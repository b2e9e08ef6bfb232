// Tests for the export/import module: DOT, OFF, and the facet-listing
// round trip.

#include <gtest/gtest.h>

#include "topology/export.h"
#include "topology/homology.h"
#include "topology/operations.h"
#include "util/random.h"

namespace psph::topology {
namespace {

TEST(Export, DotContainsVerticesAndEdges) {
  SimplicialComplex k;
  k.add_facet(Simplex{1, 2, 3});
  const std::string dot = to_dot(k);
  EXPECT_NE(dot.find("graph complex"), std::string::npos);
  EXPECT_NE(dot.find("v1 -- v2"), std::string::npos);
  EXPECT_NE(dot.find("v2 -- v3"), std::string::npos);
  EXPECT_NE(dot.find("v1;"), std::string::npos);
}

TEST(Export, DotUsesLabelCallback) {
  SimplicialComplex k;
  k.add_facet(Simplex{0, 1});
  const std::string dot = to_dot(k, [](VertexId v) {
    return "P" + std::to_string(v);
  });
  EXPECT_NE(dot.find("label=\"P0\""), std::string::npos);
}

TEST(Export, OffHeaderAndCounts) {
  const SimplicialComplex sphere = boundary_complex(Simplex{0, 1, 2, 3});
  const std::string off = to_off(sphere);
  EXPECT_EQ(off.rfind("OFF\n", 0), 0u);
  EXPECT_NE(off.find("4 4 0"), std::string::npos);  // 4 vertices, 4 faces
}

TEST(Export, DotAndOffMatchGoldenOnNonPureComplex) {
  // A tetrahedron, a triangle glued to it along an edge, a dangling edge
  // and an isolated vertex. Vertex ids skip 4 and 7, so the OFF face lines
  // show the id-to-index remap.
  SimplicialComplex k;
  k.add_facet(Simplex{1, 2, 3, 5});
  k.add_facet(Simplex{3, 5, 6});
  k.add_facet(Simplex{6, 8});
  k.add_facet(Simplex{0});
  EXPECT_EQ(to_dot(k, [](VertexId v) { return "P" + std::to_string(v); }),
            "graph complex {\n"
            "  node [shape=circle];\n"
            "  v0 [label=\"P0\"];\n"
            "  v1 [label=\"P1\"];\n"
            "  v2 [label=\"P2\"];\n"
            "  v3 [label=\"P3\"];\n"
            "  v5 [label=\"P5\"];\n"
            "  v6 [label=\"P6\"];\n"
            "  v8 [label=\"P8\"];\n"
            "  v1 -- v2;\n"
            "  v1 -- v3;\n"
            "  v1 -- v5;\n"
            "  v2 -- v3;\n"
            "  v2 -- v5;\n"
            "  v3 -- v5;\n"
            "  v3 -- v6;\n"
            "  v5 -- v6;\n"
            "  v6 -- v8;\n"
            "}\n");
  EXPECT_EQ(to_off(k),
            "OFF\n"
            "7 5 0\n"
            "1 0 0\n"
            "0.62349 0.781831 0.15\n"
            "-0.222521 0.974928 0.3\n"
            "-0.900969 0.433884 0\n"
            "-0.900969 -0.433884 0.15\n"
            "-0.222521 -0.974928 0.3\n"
            "0.62349 -0.781831 0\n"
            "3 1 2 3\n"
            "3 1 2 4\n"
            "3 1 3 4\n"
            "3 2 3 4\n"
            "3 3 4 5\n");
}

TEST(Export, FacetListingRoundTrip) {
  SimplicialComplex k;
  k.add_facet(Simplex{5, 2, 9});
  k.add_facet(Simplex{1});
  k.add_facet(Simplex{2, 3});
  const SimplicialComplex parsed = from_facet_listing(to_facet_listing(k));
  EXPECT_EQ(parsed, k);
}

TEST(Export, ListingIgnoresCommentsAndBlanks) {
  const SimplicialComplex k = from_facet_listing(
      "# a triangle\n\n0 1 2\n# and an edge\n2 3  # trailing comment\n");
  EXPECT_TRUE(k.contains(Simplex{0, 1, 2}));
  EXPECT_TRUE(k.contains(Simplex{2, 3}));
  EXPECT_EQ(k.facet_count(), 2u);
}

TEST(Export, ListingRejectsGarbage) {
  EXPECT_THROW(from_facet_listing("1 2 x\n"), std::invalid_argument);
  EXPECT_THROW(from_facet_listing("-3 1\n"), std::invalid_argument);
}

TEST(Export, RoundTripPreservesHomologyOnRandomComplexes) {
  util::Rng rng(112233);
  for (int trial = 0; trial < 10; ++trial) {
    SimplicialComplex k;
    for (int i = 0; i < 8; ++i) {
      const auto tri = rng.sample_without_replacement(7, 3);
      k.add_facet(Simplex{static_cast<VertexId>(tri[0]),
                          static_cast<VertexId>(tri[1]),
                          static_cast<VertexId>(tri[2])});
    }
    const SimplicialComplex back = from_facet_listing(to_facet_listing(k));
    EXPECT_EQ(back, k);
    EXPECT_EQ(reduced_homology(back, {.max_dim = 2}).reduced_betti,
              reduced_homology(k, {.max_dim = 2}).reduced_betti);
  }
}

}  // namespace
}  // namespace psph::topology
