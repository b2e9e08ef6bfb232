// Tests for the union-find component counter that gives the homology engine
// its dimension 0, cross-checked against an independent β̃₀: the rank of
// the boundary matrix ∂_1.

#include <gtest/gtest.h>

#include "math/modular.h"
#include "topology/components.h"
#include "topology/homology.h"
#include "topology/operations.h"
#include "util/random.h"

namespace psph::topology {
namespace {

TEST(UnionFind, Basics) {
  ComponentCounter dsu;
  dsu.add_row({1});
  dsu.add_row({2});
  EXPECT_EQ(dsu.component_count(), 2u);
  EXPECT_EQ(dsu.vertex_count(), 2u);
  EXPECT_FALSE(dsu.same(1, 2));
  dsu.add_row({1, 2});
  EXPECT_EQ(dsu.component_count(), 1u);
  EXPECT_TRUE(dsu.same(1, 2));
  dsu.add_row({1, 2});  // idempotent
  EXPECT_EQ(dsu.component_count(), 1u);
  EXPECT_EQ(dsu.vertex_count(), 2u);
  EXPECT_FALSE(dsu.same(1, 99));
}

TEST(UnionFind, UniteAddsUnknownVertices) {
  ComponentCounter dsu;
  dsu.add_row({5, 6});
  EXPECT_EQ(dsu.component_count(), 1u);
  EXPECT_EQ(dsu.vertex_count(), 2u);
  EXPECT_TRUE(dsu.same(5, 6));
}

TEST(UnionFind, RowsJoinAllTheirVertices) {
  // A row is a simplex: all of its vertices land in one component, and an
  // empty row adds nothing.
  ComponentCounter dsu;
  dsu.add_row({0, 4, 9});
  dsu.add_row({});
  dsu.add_row({7, 8});
  EXPECT_EQ(dsu.component_count(), 2u);
  EXPECT_EQ(dsu.vertex_count(), 5u);
  EXPECT_TRUE(dsu.same(0, 9));
  EXPECT_FALSE(dsu.same(4, 7));
  dsu.add_row({9, 8});
  EXPECT_EQ(dsu.component_count(), 1u);
  EXPECT_TRUE(dsu.same(0, 7));
}

TEST(UnionFind, SparseIdsCostDistinctVerticesNotTheLargestId) {
  // Hand-built complexes may use any ids: the hash mode stays proportional
  // to the distinct vertices, here three ids spread over the whole range.
  ComponentCounter dsu;
  dsu.add_row({0, 0x7fffffffU});
  dsu.add_row({0xfffffffeU});
  EXPECT_EQ(dsu.component_count(), 2u);
  EXPECT_EQ(dsu.vertex_count(), 3u);
  EXPECT_TRUE(dsu.same(0, 0x7fffffffU));
  EXPECT_FALSE(dsu.same(0, 0xfffffffeU));
}

TEST(Components, EmptyComplexHasZero) {
  EXPECT_EQ(connected_component_count(SimplicialComplex()), 0u);
  EXPECT_FALSE(is_connected(SimplicialComplex()));
}

TEST(Components, CountsPieces) {
  SimplicialComplex k;
  k.add_facet(Simplex{0, 1, 2});
  k.add_facet(Simplex{2, 3});
  k.add_facet(Simplex{5, 6});
  k.add_facet(Simplex{7});
  EXPECT_EQ(connected_component_count(k), 3u);
  EXPECT_FALSE(is_connected(k));
  k.add_facet(Simplex{3, 5});
  k.add_facet(Simplex{6, 7});
  EXPECT_EQ(connected_component_count(k), 1u);
  EXPECT_TRUE(is_connected(k));
}

TEST(Components, MatchesReducedBetti0OnRandomComplexes) {
  // Independent oracle: β̃₀ = n_0 − 1 − rank ∂_1, the rank taken over GF(p)
  // of the boundary matrix the face cache assembles. reduced_homology's
  // dimension 0 *is* the counter, so comparing against it would check
  // nothing.
  util::Rng rng(808);
  for (int trial = 0; trial < 40; ++trial) {
    SimplicialComplex k;
    const int edges = 1 + static_cast<int>(rng.next_below(12));
    for (int i = 0; i < edges; ++i) {
      const auto pair = rng.sample_without_replacement(10, 2);
      k.add_facet(Simplex{static_cast<VertexId>(pair[0]),
                          static_cast<VertexId>(pair[1])});
    }
    const long long betti0 =
        static_cast<long long>(k.count_of_dim(0)) - 1 -
        static_cast<long long>(
            boundary_matrix(k, 1).rank_mod_p(math::kDefaultPrime));
    EXPECT_EQ(static_cast<long long>(connected_component_count(k)) - 1,
              betti0)
        << "trial " << trial;
    EXPECT_EQ(reduced_homology(k, {.max_dim = 0}).reduced_betti[0], betti0)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace psph::topology
