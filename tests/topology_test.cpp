// Tests for the simplicial topology layer: simplex algebra, facet-based
// complexes (including the lazy per-vertex index and the depth-limited face
// cache), operations, boundary/homology on spaces with known homology
// (spheres, torus, projective plane), the greedy-collapse oracle,
// barycentric subdivision, and deadline polling in the face-cache build and
// the Morse reduction.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/async_complex.h"
#include "core/theorems.h"
#include "obs/obs.h"
#include "oracle/greedy_collapse.h"
#include "topology/arena.h"
#include "topology/collapse.h"
#include "topology/complex.h"
#include "topology/homology.h"
#include "topology/operations.h"
#include "topology/simplex.h"
#include "topology/subdivision.h"
#include "util/cancel.h"
#include "util/random.h"

namespace psph::topology {
namespace {

/// The facets as one row batch for add_facets.
FacetRows rows_of(const std::vector<Simplex>& facets) {
  FacetRows rows;
  for (const Simplex& s : facets) rows.push_back(s.vertices());
  return rows;
}

/// A copy of face rows, for comparisons that outlive the face cache.
std::vector<VertexId> copy_of(std::span<const VertexId> rows) {
  return {rows.begin(), rows.end()};
}

// ---------------------------------------------------------------- simplex --

TEST(Simplex, SortsAndValidates) {
  const Simplex s{3, 1, 2};
  EXPECT_EQ(s.vertices(), (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(s.dimension(), 2);
  EXPECT_THROW((Simplex{1, 1}), std::invalid_argument);
}

TEST(Simplex, EmptySimplexDimension) {
  EXPECT_EQ(Simplex().dimension(), -1);
  EXPECT_TRUE(Simplex().empty());
}

TEST(Simplex, FaceRelation) {
  const Simplex big{1, 2, 3, 4};
  EXPECT_TRUE((Simplex{2, 4}).is_face_of(big));
  EXPECT_TRUE(big.is_face_of(big));
  EXPECT_TRUE(Simplex().is_face_of(big));
  EXPECT_FALSE((Simplex{2, 5}).is_face_of(big));
}

TEST(Simplex, FaceWithoutIndex) {
  const Simplex s{1, 2, 3};
  EXPECT_EQ(s.face_without_index(0), (Simplex{2, 3}));
  EXPECT_EQ(s.face_without_index(2), (Simplex{1, 2}));
  EXPECT_THROW(s.face_without_index(3), std::out_of_range);
}

TEST(Simplex, WithoutVertex) {
  const Simplex s{1, 2, 3};
  EXPECT_EQ(s.without_vertex(2), (Simplex{1, 3}));
  EXPECT_EQ(s.without_vertex(9), s);
}

TEST(Simplex, IntersectAndUnite) {
  const Simplex a{1, 2, 3};
  const Simplex b{2, 3, 4};
  EXPECT_EQ(a.intersect(b), (Simplex{2, 3}));
  EXPECT_EQ(a.unite(b), (Simplex{1, 2, 3, 4}));
  EXPECT_TRUE(a.intersect(Simplex{7}).empty());
}

TEST(Simplex, FacesOfDim) {
  const Simplex s{1, 2, 3};
  EXPECT_EQ(s.faces_of_dim(0).size(), 3u);
  EXPECT_EQ(s.faces_of_dim(1).size(), 3u);
  EXPECT_EQ(s.faces_of_dim(2).size(), 1u);
  EXPECT_TRUE(s.faces_of_dim(3).empty());
  EXPECT_TRUE(s.faces_of_dim(-1).empty());
  EXPECT_EQ(s.all_faces().size(), 7u);
}

// ---------------------------------------------------------------- complex --

TEST(Complex, AddFacetMaintainsMaximality) {
  SimplicialComplex k;
  k.add_facet(Simplex{1, 2});
  k.add_facet(Simplex{1, 2, 3});  // dominates the edge
  EXPECT_EQ(k.facet_count(), 1u);
  k.add_facet(Simplex{2, 3});  // already a face
  EXPECT_EQ(k.facet_count(), 1u);
  k.add_facet(Simplex{4});
  EXPECT_EQ(k.facet_count(), 2u);
}

TEST(Complex, AddEmptyFacetThrows) {
  SimplicialComplex k;
  EXPECT_THROW(k.add_facet(Simplex()), std::invalid_argument);
}

TEST(Complex, AddFacetsMatchesAddFacetLoop) {
  // The bulk path and the per-facet path must build identical complexes,
  // whichever lane the bulk path takes.
  const std::vector<std::vector<Simplex>> batches = {
      // Pure batch into an empty complex (fast lane).
      {Simplex{1, 2, 3}, Simplex{2, 3, 4}, Simplex{1, 2, 3}},
      // Pure batch of matching dimension into a pure complex (fast lane).
      {Simplex{3, 4, 5}, Simplex{4, 5, 6}},
      // Mixed-dimension batch (fallback), with domination both ways.
      {Simplex{7, 8}, Simplex{6, 7, 8, 9}, Simplex{1, 2}},
  };
  SimplicialComplex bulk;
  SimplicialComplex loop;
  for (const std::vector<Simplex>& batch : batches) {
    bulk.add_facets(rows_of(batch));
    for (const Simplex& s : batch) loop.add_facet(s);
    EXPECT_EQ(bulk, loop);
  }
  EXPECT_EQ(bulk.facets(), loop.facets());
  EXPECT_EQ(bulk.f_vector(), loop.f_vector());
}

TEST(Complex, AddFacetsPureLaneDeduplicates) {
  SimplicialComplex k;
  k.add_facets(
      rows_of({Simplex{1, 2}, Simplex{2, 3}, Simplex{1, 2}, Simplex{2, 3}}));
  EXPECT_EQ(k.facet_count(), 2u);
  EXPECT_TRUE(k.is_pure());
  // A second pure batch of the same dimension also takes the fast lane and
  // must still drop exact duplicates of facets already present.
  k.add_facets(rows_of({Simplex{2, 3}, Simplex{3, 4}}));
  EXPECT_EQ(k.facet_count(), 3u);
}

TEST(Complex, AddFacetsMixedBatchKeepsMaximality) {
  SimplicialComplex k;
  k.add_facets(rows_of({Simplex{1, 2, 3}, Simplex{1, 2}, Simplex{4}}));
  EXPECT_EQ(k.facet_count(), 2u);  // {1,2} is dominated
  k.add_facets(rows_of({Simplex{1, 2, 3, 4, 5}}));
  EXPECT_EQ(k.facet_count(), 1u);  // dominates everything so far
  EXPECT_THROW(k.add_facets(rows_of({Simplex{6}, Simplex()})),
               std::invalid_argument);
  // A row that is not strictly increasing is rejected before anything of
  // its batch is inserted.
  FacetRows unsorted;
  unsorted.push_back(std::vector<VertexId>{7, 8});
  unsorted.push_back(std::vector<VertexId>{9, 9});
  EXPECT_THROW(k.add_facets(unsorted), std::invalid_argument);
  EXPECT_FALSE(k.contains(Simplex{7, 8}));
}

TEST(Complex, AddFacetsEmptyBatchAndGrowth) {
  SimplicialComplex k;
  k.add_facets(rows_of({}));
  EXPECT_TRUE(k.empty());
  k.add_facet(Simplex{1, 2});
  EXPECT_EQ(k.facet_count(), 1u);
  // Many one-facet batches (the construction consume pattern) grow the
  // tables past several capacities.
  for (VertexId v = 10; v < 300; ++v) {
    k.add_facets(rows_of({Simplex{v, v + 1000}}));
  }
  k.add_facets(rows_of({}));
  EXPECT_EQ(k.facet_count(), 291u);
  EXPECT_TRUE(k.contains(Simplex{1, 2}));
  EXPECT_TRUE(k.contains(Simplex{299, 1299}));
  EXPECT_FALSE(k.contains(Simplex{299, 1298}));
}

TEST(Rows, FacetRowsHoldMixedWidthsEndToEnd) {
  FacetRows rows;
  rows.push_back(std::vector<VertexId>{1, 2, 3});
  const std::span<VertexId> filled = rows.append_row(2);
  filled[0] = 7;
  filled[1] = 9;
  rows.push_back(std::vector<VertexId>{4});
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_TRUE(row_equal(rows[1], std::vector<VertexId>{7, 9}));
  const RowSpan tail = rows.rows(1, 3);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail.vertex_count(), 3u);
  EXPECT_TRUE(row_equal(tail[1], std::vector<VertexId>{4}));
  rows.clear();
  EXPECT_TRUE(rows.empty());
}

TEST(Rows, RowSetIdsTombstonesAndGrowth) {
  RowSet set;
  const std::vector<VertexId> a{1, 2};
  const std::vector<VertexId> b{1, 2, 3};
  using Inserted = std::pair<std::size_t, bool>;
  EXPECT_EQ(set.insert(a, row_hash(a)), (Inserted{0, true}));
  EXPECT_EQ(set.insert(b, row_hash(b)), (Inserted{1, true}));
  EXPECT_EQ(set.insert(a, row_hash(a)), (Inserted{0, false}));
  set.erase(0);
  EXPECT_TRUE(set[0].empty());
  EXPECT_FALSE(set.contains(a));
  // Re-adding an erased row takes a new slot; the old entry stays stale
  // until the grows below drop it, and never matches.
  EXPECT_EQ(set.insert(a, row_hash(a)), (Inserted{2, true}));
  for (VertexId v = 10; v < 2000; ++v) {
    const std::vector<VertexId> row{v, v + 5000};
    ASSERT_TRUE(set.insert(row));
  }
  EXPECT_EQ(set.find(a, row_hash(a)), 2u);
  EXPECT_EQ(set.find(b, row_hash(b)), 1u);
  EXPECT_TRUE(set.contains(std::vector<VertexId>{1999, 6999}));
  EXPECT_FALSE(set.contains(std::vector<VertexId>{1999, 7000}));
  EXPECT_EQ(set.size(), 3u + 1990u);
}

TEST(Complex, FacetIndexTombstones) {
  SimplicialComplex k;
  k.add_facet(Simplex{1, 2});
  k.add_facet(Simplex{1, 2, 3});  // erases {1,2}: its index entry goes stale
  EXPECT_EQ(k.facet_count(), 1u);
  k.add_facet(Simplex{1, 2});  // dominated, so a no-op
  k.add_facets(rows_of({Simplex{1, 2}}));
  EXPECT_EQ(k.facet_count(), 1u);
  EXPECT_EQ(k.facets(), (std::vector<Simplex>{Simplex{1, 2, 3}}));
  // More stale entries: points swallowed by the edges added after them.
  for (VertexId v = 20; v < 40; ++v) k.add_facet(Simplex{v});
  for (VertexId v = 20; v < 40; v += 2) k.add_facet(Simplex{v, v + 1});
  EXPECT_EQ(k.facet_count(), 11u);

  // Enough facets to grow the index several times, which drops the stale
  // entries; the complex must still equal one built without erasures.
  SimplicialComplex direct;
  direct.add_facet(Simplex{1, 2, 3});
  for (VertexId v = 20; v < 40; v += 2) direct.add_facet(Simplex{v, v + 1});
  for (VertexId v = 100; v < 400; ++v) {
    const Simplex facet{v, v + 1000, v + 2000};
    k.add_facet(facet);
    direct.add_facet(facet);
  }
  EXPECT_EQ(k.facet_count(), 311u);
  EXPECT_EQ(direct.facet_count(), 311u);
  EXPECT_TRUE(k.contains(Simplex{1, 2}));
  EXPECT_TRUE(k.contains(Simplex{1, 2, 3}));
  EXPECT_TRUE(k.contains(Simplex{21}));
  EXPECT_FALSE(k.contains(Simplex{21, 22}));
  EXPECT_FALSE(k.contains(Simplex{1, 2, 4}));
  EXPECT_EQ(k, direct);
  EXPECT_EQ(direct, k);
  EXPECT_EQ(k.f_vector(), direct.f_vector());

  const SimplicialComplex copy = k;
  EXPECT_EQ(copy, direct);
  EXPECT_TRUE(copy.contains(Simplex{399, 1399, 2399}));
  SimplicialComplex moved = std::move(k);
  EXPECT_EQ(moved, direct);
  moved.add_facet(Simplex{1, 2});  // still a no-op after copy and move
  moved.add_facet(Simplex{398, 1398, 2398});
  EXPECT_EQ(moved.facet_count(), 311u);
  moved.add_facet(Simplex{5, 6});
  EXPECT_EQ(moved.facet_count(), 312u);
  EXPECT_NE(moved, copy);
}

TEST(Complex, PureBulkBatchDefersTheVertexIndex) {
  // The pure lane of add_facets leaves the per-vertex facet index unbuilt;
  // the first read builds it (here from four threads at once, the const
  // contract), and insertions after that keep it current. A copy taken
  // before the first read builds its own and behaves the same.
  std::vector<Simplex> strip;  // triangles {v, v+1, v+2}: a triangulated band
  for (VertexId v = 0; v < 200; ++v) strip.push_back(Simplex{v, v + 1, v + 2});
  SimplicialComplex k;
  k.add_facets(rows_of(strip));
  SimplicialComplex copy = k;

  std::atomic<int> found{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&k, &found] {
      for (VertexId v = 0; v < 200; ++v) {
        if (k.contains(Simplex{v, v + 2})) found.fetch_add(1);
        if (k.contains(Simplex{v, v + 3})) found.fetch_add(1000);
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(found.load(), 4 * 200);

  for (SimplicialComplex* complex : {&k, &copy}) {
    EXPECT_TRUE(complex->contains(Simplex{7, 8}));
    EXPECT_TRUE(complex->contains(Simplex{201}));
    EXPECT_FALSE(complex->contains(Simplex{7, 10}));
    // Dominated: a face of {5,6,7}; dropped.
    complex->add_facet(Simplex{5, 7});
    EXPECT_EQ(complex->facet_count(), 200u);
    // Dominating: swallows {0,1,2} and {1,2,3}.
    complex->add_facet(Simplex{0, 1, 2, 3});
    EXPECT_EQ(complex->facet_count(), 199u);
    EXPECT_TRUE(complex->contains(Simplex{0, 3}));
    // Facets inserted after the index was built are found by it: {0,1,2,3}
    // now dominates {0,3}, and a new point lands.
    complex->add_facet(Simplex{0, 3});
    complex->add_facet(Simplex{500});
    EXPECT_EQ(complex->facet_count(), 200u);
    EXPECT_TRUE(complex->contains(Simplex{500}));
    complex->add_facet(Simplex{500, 501});
    EXPECT_EQ(complex->facet_count(), 200u);
  }
  EXPECT_EQ(k, copy);
  EXPECT_EQ(k.facets(), copy.facets());
}

TEST(Complex, AddFacetsInvalidatesFaceCache) {
  SimplicialComplex k;
  k.add_facets(rows_of({Simplex{1, 2, 3}}));
  EXPECT_EQ(k.count_of_dim(1), 3u);  // primes the face cache
  // The fast lane must still invalidate.
  k.add_facets(rows_of({Simplex{2, 3, 4}}));
  EXPECT_EQ(k.count_of_dim(1), 5u);
  EXPECT_EQ(k.count_of_dim(2), 2u);
}

TEST(Complex, ContainsFaces) {
  SimplicialComplex k;
  k.add_facet(Simplex{1, 2, 3});
  EXPECT_TRUE(k.contains(Simplex{1, 3}));
  EXPECT_TRUE(k.contains(Simplex{2}));
  EXPECT_TRUE(k.contains(Simplex()));
  EXPECT_FALSE(k.contains(Simplex{4}));
  EXPECT_FALSE(k.contains(Simplex{1, 4}));
  EXPECT_FALSE(SimplicialComplex().contains(Simplex()));
}

TEST(Complex, SimplicesOfDimDeduplicates) {
  SimplicialComplex k;
  k.add_facet(Simplex{1, 2, 3});
  k.add_facet(Simplex{2, 3, 4});
  // Edge {2,3} is shared: 5 distinct edges total.
  EXPECT_EQ(k.count_of_dim(1), 5u);
  EXPECT_EQ(k.count_of_dim(0), 4u);
  EXPECT_EQ(k.count_of_dim(2), 2u);
  EXPECT_EQ(k.count_of_dim(3), 0u);
}

TEST(Complex, FVectorAndEuler) {
  // Two triangles sharing an edge: χ = 4 - 5 + 2 = 1 (a disk).
  SimplicialComplex k;
  k.add_facet(Simplex{1, 2, 3});
  k.add_facet(Simplex{2, 3, 4});
  EXPECT_EQ(k.f_vector(), (std::vector<std::size_t>{4, 5, 2}));
  EXPECT_EQ(k.euler_characteristic(), 1);
}

TEST(FaceCache, InvalidatedByAddFacet) {
  SimplicialComplex k;
  k.add_facet(Simplex{1, 2, 3});
  // Prime the cache, then mutate; every cached quantity must refresh.
  EXPECT_EQ(k.f_vector(), (std::vector<std::size_t>{3, 3, 1}));
  EXPECT_EQ(k.count_of_dim(1), 3u);
  k.add_facet(Simplex{2, 3, 4});
  EXPECT_EQ(k.f_vector(), (std::vector<std::size_t>{4, 5, 2}));
  EXPECT_EQ(k.count_of_dim(1), 5u);
  EXPECT_EQ(k.euler_characteristic(), 1);
  EXPECT_EQ(copy_of(k.face_rows_of_dim(0)),
            (std::vector<VertexId>{1, 2, 3, 4}));
}

TEST(FaceCache, InvalidatedWhenInsertDominatesCachedFacet) {
  SimplicialComplex k;
  k.add_facet(Simplex{1, 2});
  EXPECT_EQ(k.count_of_dim(1), 1u);
  EXPECT_EQ(k.dimension(), 1);
  // {1,2,3} swallows the cached facet {1,2}; dimension and faces follow.
  k.add_facet(Simplex{1, 2, 3});
  EXPECT_EQ(k.dimension(), 2);
  EXPECT_EQ(k.facet_count(), 1u);
  EXPECT_EQ(k.f_vector(), (std::vector<std::size_t>{3, 3, 1}));
}

TEST(FaceCache, InvalidatedByMerge) {
  SimplicialComplex k;
  k.add_facet(Simplex{1, 2, 3});
  EXPECT_EQ(k.count_of_dim(0), 3u);
  SimplicialComplex other;
  other.add_facet(Simplex{3, 4});
  other.add_facet(Simplex{5});
  k.merge(other);
  EXPECT_EQ(k.f_vector(), (std::vector<std::size_t>{5, 4, 1}));
  EXPECT_EQ(k.dimension(), 2);
  // The merge source keeps its own (still valid) cache.
  EXPECT_EQ(other.f_vector(), (std::vector<std::size_t>{3, 1}));
}

TEST(FaceCache, ApplyVertexMapAfterCachedQuery) {
  SimplicialComplex k;
  k.add_facet(Simplex{1, 2, 3});
  k.add_facet(Simplex{2, 3, 4});
  EXPECT_EQ(k.count_of_dim(2), 2u);
  const SimplicialComplex image =
      k.apply_vertex_map([](VertexId v) { return v + 10; });
  EXPECT_EQ(image.f_vector(), k.f_vector());
  EXPECT_TRUE(image.contains(Simplex{12, 13}));
  // Collapsing map: both triangles land on the edge {20, 21}.
  const SimplicialComplex collapsed = k.apply_vertex_map(
      [](VertexId v) { return v < 3 ? 20 : 21; }, /*allow_collapse=*/true);
  EXPECT_EQ(collapsed.f_vector(), (std::vector<std::size_t>{2, 1}));
}

TEST(FaceCache, CopyAndMoveCarryCache) {
  SimplicialComplex k;
  k.add_facet(Simplex{1, 2, 3});
  EXPECT_EQ(k.count_of_dim(1), 3u);  // warm the cache
  SimplicialComplex copy = k;
  EXPECT_EQ(copy.f_vector(), (std::vector<std::size_t>{3, 3, 1}));
  copy.add_facet(Simplex{3, 4});  // mutating the copy leaves k intact
  EXPECT_EQ(copy.count_of_dim(0), 4u);
  EXPECT_EQ(k.count_of_dim(0), 3u);
  const SimplicialComplex moved = std::move(copy);
  EXPECT_EQ(moved.count_of_dim(0), 4u);
  EXPECT_EQ(moved.dimension(), 2);
}

TEST(FaceCache, OutOfRangeDimensionsAreEmpty) {
  SimplicialComplex k;
  k.add_facet(Simplex{1, 2});
  for (const int d : {-1, 2, 7}) {
    EXPECT_TRUE(k.face_rows_of_dim(d).empty()) << d;
    EXPECT_TRUE(k.boundary_links_of_dim(d).empty()) << d;
    EXPECT_EQ(k.count_of_dim(d), 0u) << d;
  }
  EXPECT_EQ(copy_of(k.face_rows_of_dim(1)), (std::vector<VertexId>{1, 2}));
  // Omitting vertex 1 leaves {2} (rank 1); omitting vertex 2 leaves {1}.
  EXPECT_EQ(k.boundary_links_of_dim(1), (std::vector<std::size_t>{1, 0}));
}

TEST(FaceCache, ExpiredDeadlineLeavesCacheInvalid) {
  // The build polls the deadline; a throw must leave no half-valid cache.
  core::ViewRegistry views;
  VertexArena arena;
  const Simplex input = core::rainbow_input(3, views, arena);
  const SimplicialComplex complex =
      core::async_protocol_complex(input, {3, 1, 2}, views, arena);
  const SimplicialComplex untouched = complex;
  {
    const util::DeadlineScope expired(std::chrono::steady_clock::now() -
                                      std::chrono::seconds(1));
    EXPECT_THROW(complex.warm_face_cache(), util::DeadlineExceeded);
  }
  EXPECT_EQ(complex.f_vector(), untouched.f_vector());
}

TEST(FaceCache, ShallowBuildExtendsToTheFullLattice) {
  // A 4-dimensional complex with facets of every dimension: ∂Δ⁵ (six
  // 4-simplices) plus a tetrahedron, a triangle, an edge and a point; the
  // edge path 0-6-7-1 closes a loop through the sphere, and the point is a
  // second component. reduced_homology at max_dim = 1 builds dimensions
  // 0..2 only; any deeper
  // query afterwards must see exactly what a fresh copy builds in one go,
  // and the levels built first must stay where they were.
  SimplicialComplex k;
  for (VertexId drop = 0; drop < 6; ++drop) {
    std::vector<VertexId> vs;
    for (VertexId v = 0; v < 6; ++v) {
      if (v != drop) vs.push_back(v);
    }
    k.add_facet(Simplex(vs));
  }
  k.add_facet(Simplex{1, 7, 10, 11});
  k.add_facet(Simplex{6, 7, 8});
  k.add_facet(Simplex{0, 6});
  k.add_facet(Simplex{9});
  const SimplicialComplex fresh = k;
  ASSERT_EQ(fresh.dimension(), 4);

  for (const int query : {0, 1, 2}) {
    SCOPED_TRACE("query " + std::to_string(query));
    SimplicialComplex shallow = fresh;
    const HomologyReport report = reduced_homology(shallow, {.max_dim = 1});
    EXPECT_EQ(report.reduced_betti, (std::vector<long long>{1, 1}));
    const std::span<const VertexId> vertices = shallow.face_rows_of_dim(0);
    const std::vector<VertexId> vertices_before = copy_of(vertices);
    const std::vector<std::size_t>* edge_links =
        &shallow.boundary_links_of_dim(1);
    const std::vector<std::size_t> edge_links_before = *edge_links;
    switch (query) {
      case 0: EXPECT_EQ(shallow.f_vector(), fresh.f_vector()); break;
      case 1: EXPECT_EQ(shallow.count_of_dim(4), fresh.count_of_dim(4)); break;
      default:
        EXPECT_EQ(shallow.boundary_links_of_dim(4),
                  fresh.boundary_links_of_dim(4));
        break;
    }
    EXPECT_EQ(shallow.face_rows_of_dim(0).data(), vertices.data());
    EXPECT_EQ(copy_of(vertices), vertices_before);
    EXPECT_EQ(&shallow.boundary_links_of_dim(1), edge_links);
    EXPECT_EQ(*edge_links, edge_links_before);
    EXPECT_EQ(shallow.f_vector(), fresh.f_vector());
    EXPECT_EQ(shallow.count_of_dim(4), fresh.count_of_dim(4));
    for (int d = 0; d <= 4; ++d) {
      EXPECT_EQ(shallow.boundary_links_of_dim(d),
                fresh.boundary_links_of_dim(d))
          << "d=" << d;
      EXPECT_EQ(copy_of(shallow.face_rows_of_dim(d)),
                copy_of(fresh.face_rows_of_dim(d)))
          << "d=" << d;
      EXPECT_EQ(shallow.count_of_dim(d), fresh.count_of_dim(d)) << "d=" << d;
    }
  }
}

TEST(Complex, EqualityAndSubcomplex) {
  SimplicialComplex a, b;
  a.add_facet(Simplex{1, 2});
  a.add_facet(Simplex{3});
  b.add_facet(Simplex{3});
  b.add_facet(Simplex{1, 2});
  EXPECT_EQ(a, b);
  SimplicialComplex c;
  c.add_facet(Simplex{1, 2});
  EXPECT_TRUE(c.is_subcomplex_of(a));
  EXPECT_FALSE(a.is_subcomplex_of(c));
}

TEST(Complex, IsPure) {
  SimplicialComplex k;
  k.add_facet(Simplex{1, 2, 3});
  EXPECT_TRUE(k.is_pure());
  k.add_facet(Simplex{4, 5});
  EXPECT_FALSE(k.is_pure());
}

TEST(Complex, ApplyVertexMap) {
  SimplicialComplex k;
  k.add_facet(Simplex{1, 2, 3});
  const SimplicialComplex image = k.apply_vertex_map(
      [](VertexId v) { return v + 10; });
  EXPECT_TRUE(image.contains(Simplex{11, 12, 13}));
  // A collapsing map must be requested explicitly.
  EXPECT_THROW(k.apply_vertex_map([](VertexId) { return VertexId{7}; }),
               std::invalid_argument);
  const SimplicialComplex collapsed = k.apply_vertex_map(
      [](VertexId) { return VertexId{7}; }, /*allow_collapse=*/true);
  EXPECT_EQ(collapsed.dimension(), 0);
}

// ------------------------------------------------------------- operations --

TEST(Operations, UnionAndIntersection) {
  SimplicialComplex a, b;
  a.add_facet(Simplex{1, 2, 3});
  b.add_facet(Simplex{2, 3, 4});
  const SimplicialComplex u = union_of(a, b);
  EXPECT_EQ(u.facet_count(), 2u);
  const SimplicialComplex meet = intersection_of(a, b);
  EXPECT_EQ(meet.facets(), (std::vector<Simplex>{Simplex{2, 3}}));
}

TEST(Operations, IntersectionEmptyWhenDisjoint) {
  SimplicialComplex a, b;
  a.add_facet(Simplex{1, 2});
  b.add_facet(Simplex{3, 4});
  EXPECT_TRUE(intersection_of(a, b).empty());
}

TEST(Operations, StarAndLink) {
  SimplicialComplex k;
  k.add_facet(Simplex{1, 2, 3});
  k.add_facet(Simplex{3, 4});
  k.add_facet(Simplex{5});
  const SimplicialComplex st = star(k, Simplex{3});
  EXPECT_EQ(st.facet_count(), 2u);
  const SimplicialComplex lk = link(k, Simplex{3});
  EXPECT_TRUE(lk.contains(Simplex{1, 2}));
  EXPECT_TRUE(lk.contains(Simplex{4}));
  EXPECT_FALSE(lk.contains(Simplex{3}));
}

TEST(Operations, Skeleton) {
  SimplicialComplex k;
  k.add_facet(Simplex{1, 2, 3, 4});
  const SimplicialComplex skel = skeleton(k, 1);
  EXPECT_EQ(skel.dimension(), 1);
  EXPECT_EQ(skel.facet_count(), 6u);  // C(4,2) edges
  EXPECT_TRUE(skeleton(k, -1).empty());
}

TEST(Operations, JoinOfSpheres) {
  // S^0 * S^0 = S^1 (a square). Homology check below confirms.
  SimplicialComplex s0a, s0b;
  s0a.add_facet(Simplex{1});
  s0a.add_facet(Simplex{2});
  s0b.add_facet(Simplex{3});
  s0b.add_facet(Simplex{4});
  const SimplicialComplex square = join(s0a, s0b);
  EXPECT_EQ(square.facet_count(), 4u);
  const HomologyReport h = reduced_homology(square, {.max_dim = 1});
  EXPECT_EQ(h.reduced_betti[0], 0);
  EXPECT_EQ(h.reduced_betti[1], 1);
}

TEST(Operations, JoinRejectsSharedVertices) {
  SimplicialComplex a, b;
  a.add_facet(Simplex{1});
  b.add_facet(Simplex{1});
  EXPECT_THROW(join(a, b), std::invalid_argument);
}

TEST(Operations, InducedSubcomplex) {
  SimplicialComplex k;
  k.add_facet(Simplex{1, 2, 3});
  const SimplicialComplex sub = induced(k, {1, 3});
  EXPECT_EQ(sub.facets(), (std::vector<Simplex>{Simplex{1, 3}}));
}

TEST(Operations, BoundaryComplexIsSphere) {
  // ∂Δ^3 is a 2-sphere.
  const SimplicialComplex sphere = boundary_complex(Simplex{0, 1, 2, 3});
  EXPECT_EQ(sphere.facet_count(), 4u);
  const HomologyReport h = reduced_homology(sphere, {.max_dim = 2});
  EXPECT_EQ(h.reduced_betti[0], 0);
  EXPECT_EQ(h.reduced_betti[1], 0);
  EXPECT_EQ(h.reduced_betti[2], 1);
}

// --------------------------------------------------------------- homology --

SimplicialComplex solid_simplex(int dim) {
  std::vector<VertexId> vertices;
  for (int i = 0; i <= dim; ++i) vertices.push_back(static_cast<VertexId>(i));
  SimplicialComplex k;
  k.add_facet(Simplex(vertices));
  return k;
}

TEST(Homology, PointIsAcyclic) {
  SimplicialComplex k;
  k.add_facet(Simplex{0});
  const HomologyReport h = reduced_homology(k, {.max_dim = 2});
  EXPECT_TRUE(h.nonempty);
  for (long long betti : h.reduced_betti) EXPECT_EQ(betti, 0);
}

TEST(Homology, EmptyComplex) {
  const HomologyReport h = reduced_homology(SimplicialComplex(), {.max_dim = 1});
  EXPECT_FALSE(h.nonempty);
}

TEST(Homology, TwoPointsHaveReducedBetti0) {
  SimplicialComplex k;
  k.add_facet(Simplex{0});
  k.add_facet(Simplex{1});
  const HomologyReport h = reduced_homology(k, {.max_dim = 1});
  EXPECT_EQ(h.reduced_betti[0], 1);  // two components → β̃₀ = 1
}

TEST(Homology, NegativeMaxDimAsksForNoDimension) {
  // A negative max_dim reports nonemptiness and no dimension at all.
  SimplicialComplex k;
  k.add_facet(Simplex{0, 1});
  k.add_facet(Simplex{2});
  for (const int max_dim : {-1, -2}) {
    for (const bool exact : {false, true}) {
      const HomologyReport h =
          reduced_homology(k, {.max_dim = max_dim, .exact = exact});
      EXPECT_TRUE(h.nonempty);
      EXPECT_TRUE(h.reduced_betti.empty());
      EXPECT_TRUE(h.torsion.empty());
    }
  }
}

TEST(Homology, DimensionZeroBuildsNoFaceLattice) {
  // H̃_0 comes from union-find over the facets: a max_dim = 0 query on a
  // fresh complex records no face-cache, Morse or rank span. max_dim = 1
  // does build the lattice (to dimension 2).
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto span_count = [](const char* name) {
    for (const obs::SpanStat& span : obs::snapshot().spans) {
      if (span.name == name) return span.count;
    }
    return std::uint64_t{0};
  };
  core::ViewRegistry views;
  VertexArena arena;
  const Simplex input = core::rainbow_input(3, views, arena);
  const SimplicialComplex complex =
      core::async_protocol_complex(input, {3, 1, 2}, views, arena);
  const std::uint64_t warm = span_count("homology.warm_face_cache");
  const std::uint64_t morse = span_count("morse.reduce");
  const std::uint64_t rank = span_count("homology.rank");
  const std::uint64_t components = span_count("homology.components");
  const std::uint64_t reduced = span_count("homology.reduced");
  for (const bool exact : {false, true}) {
    const HomologyReport report =
        reduced_homology(complex, {.max_dim = 0, .exact = exact});
    EXPECT_EQ(report.reduced_betti, (std::vector<long long>{0}));
    EXPECT_EQ(report.torsion, (std::vector<std::vector<std::string>>{{}}));
  }
  EXPECT_EQ(span_count("homology.warm_face_cache"), warm);
  EXPECT_EQ(span_count("morse.reduce"), morse);
  EXPECT_EQ(span_count("homology.rank"), rank);
  EXPECT_EQ(span_count("homology.components"), components + 2);
  EXPECT_EQ(span_count("homology.reduced"), reduced + 2);
  reduced_homology(complex, {.max_dim = 1});
  EXPECT_EQ(span_count("homology.warm_face_cache"), warm + 1);
  obs::set_enabled(obs_was_enabled);
}

TEST(Homology, SolidSimplexesAreAcyclic) {
  for (int dim = 0; dim <= 4; ++dim) {
    const HomologyReport h =
        reduced_homology(solid_simplex(dim), {.max_dim = 4});
    for (long long betti : h.reduced_betti) {
      EXPECT_EQ(betti, 0) << "dim=" << dim;
    }
  }
}

TEST(Homology, SpheresHaveTopClass) {
  for (int dim = 1; dim <= 4; ++dim) {
    std::vector<VertexId> vertices;
    for (int i = 0; i <= dim + 1; ++i) {
      vertices.push_back(static_cast<VertexId>(i));
    }
    const SimplicialComplex sphere = boundary_complex(Simplex(vertices));
    const HomologyReport h = reduced_homology(sphere, {.max_dim = dim});
    for (int d = 0; d < dim; ++d) {
      EXPECT_EQ(h.reduced_betti[static_cast<std::size_t>(d)], 0)
          << "S^" << dim << " dim " << d;
    }
    EXPECT_EQ(h.reduced_betti[static_cast<std::size_t>(dim)], 1)
        << "S^" << dim;
  }
}

TEST(Homology, CircleHasOneLoop) {
  SimplicialComplex k;
  k.add_facet(Simplex{0, 1});
  k.add_facet(Simplex{1, 2});
  k.add_facet(Simplex{0, 2});
  const HomologyReport h = reduced_homology(k, {.max_dim = 1});
  EXPECT_EQ(h.reduced_betti[0], 0);
  EXPECT_EQ(h.reduced_betti[1], 1);
}

TEST(Homology, WedgeOfTwoCircles) {
  SimplicialComplex k;
  // Two triangles sharing exactly the vertex 0.
  k.add_facet(Simplex{0, 1});
  k.add_facet(Simplex{1, 2});
  k.add_facet(Simplex{0, 2});
  k.add_facet(Simplex{0, 3});
  k.add_facet(Simplex{3, 4});
  k.add_facet(Simplex{0, 4});
  const HomologyReport h = reduced_homology(k, {.max_dim = 1});
  EXPECT_EQ(h.reduced_betti[0], 0);
  EXPECT_EQ(h.reduced_betti[1], 2);
}

TEST(Homology, TorusBettiNumbers) {
  // Möbius' 7-vertex torus triangulation: faces {i, i+1, i+3} and
  // {i, i+2, i+3} mod 7. All 21 edges of K7 appear in exactly two faces and
  // χ = 7 - 21 + 14 = 0.
  SimplicialComplex k;
  for (VertexId i = 0; i < 7; ++i) {
    k.add_facet(Simplex{i, (i + 1) % 7, (i + 3) % 7});
    k.add_facet(Simplex{i, (i + 2) % 7, (i + 3) % 7});
  }
  ASSERT_EQ(k.facet_count(), 14u);
  ASSERT_EQ(k.count_of_dim(1), 21u);
  EXPECT_EQ(k.euler_characteristic(), 0);
  const HomologyReport h =
      reduced_homology(k, {.max_dim = 2, .exact = true});
  EXPECT_EQ(h.reduced_betti[0], 0);
  EXPECT_EQ(h.reduced_betti[1], 2);
  EXPECT_EQ(h.reduced_betti[2], 1);
  // The torus is orientable: no torsion anywhere.
  for (const auto& dim_torsion : h.torsion) EXPECT_TRUE(dim_torsion.empty());
}

TEST(Homology, ProjectivePlaneTorsion) {
  // The minimal 6-vertex triangulation of RP² (10 faces, all 15 edges of
  // K6). Rational Betti numbers vanish; the exact path must report the Z/2
  // in H₁.
  const int faces[10][3] = {{1, 2, 4}, {1, 2, 5}, {1, 3, 4}, {1, 3, 6},
                            {1, 5, 6}, {2, 3, 5}, {2, 3, 6}, {2, 4, 6},
                            {3, 4, 5}, {4, 5, 6}};
  SimplicialComplex k;
  for (const auto& f : faces) {
    k.add_facet(Simplex{static_cast<VertexId>(f[0]),
                        static_cast<VertexId>(f[1]),
                        static_cast<VertexId>(f[2])});
  }
  ASSERT_EQ(k.count_of_dim(1), 15u);
  EXPECT_EQ(k.euler_characteristic(), 1);
  const HomologyReport h =
      reduced_homology(k, {.max_dim = 2, .exact = true});
  EXPECT_EQ(h.reduced_betti[0], 0);
  EXPECT_EQ(h.reduced_betti[1], 0);
  EXPECT_EQ(h.reduced_betti[2], 0);
  ASSERT_EQ(h.torsion[1].size(), 1u);
  EXPECT_EQ(h.torsion[1][0], "2");
  EXPECT_TRUE(h.torsion[2].empty());
}

// ------------------------------------------------------------- collapse --

TEST(Collapse, SolidSimplexCollapses) {
  for (int dim = 1; dim <= 4; ++dim) {
    EXPECT_TRUE(oracle::collapses_to_point(solid_simplex(dim))) << dim;
  }
}

TEST(Collapse, SingleVertexIsAlreadyPoint) {
  SimplicialComplex k;
  k.add_facet(Simplex{0});
  const oracle::CollapseResult r = oracle::collapse_greedily(k);
  EXPECT_TRUE(r.collapsed_to_point);
  EXPECT_EQ(r.steps, 0u);
}

TEST(Collapse, SphereDoesNotCollapse) {
  const SimplicialComplex sphere = boundary_complex(Simplex{0, 1, 2, 3});
  EXPECT_FALSE(oracle::collapses_to_point(sphere));
}

TEST(Collapse, TreeCollapses) {
  SimplicialComplex k;
  k.add_facet(Simplex{0, 1});
  k.add_facet(Simplex{1, 2});
  k.add_facet(Simplex{1, 3});
  k.add_facet(Simplex{3, 4});
  EXPECT_TRUE(oracle::collapses_to_point(k));
}

TEST(Collapse, CircleDoesNotCollapse) {
  SimplicialComplex k;
  k.add_facet(Simplex{0, 1});
  k.add_facet(Simplex{1, 2});
  k.add_facet(Simplex{0, 2});
  const oracle::CollapseResult r = oracle::collapse_greedily(k);
  EXPECT_FALSE(r.collapsed_to_point);
  EXPECT_EQ(r.remaining_faces, 6u);  // nothing is free on a circle
}

// ------------------------------------------------------------ subdivision --

TEST(Subdivision, TriangleCounts) {
  // sd(Δ²) has 7 vertices (3 + 3 + 1) and 6 triangles.
  const Subdivision sd = barycentric_subdivision(solid_simplex(2));
  EXPECT_EQ(sd.complex.count_of_dim(0), 7u);
  EXPECT_EQ(sd.complex.facet_count(), 6u);
  EXPECT_EQ(sd.carriers.size(), 7u);
}

TEST(Subdivision, PreservesHomologyOfSphere) {
  const SimplicialComplex sphere = boundary_complex(Simplex{0, 1, 2, 3});
  const Subdivision sd = barycentric_subdivision(sphere);
  const HomologyReport h = reduced_homology(sd.complex, {.max_dim = 2});
  EXPECT_EQ(h.reduced_betti[0], 0);
  EXPECT_EQ(h.reduced_betti[1], 0);
  EXPECT_EQ(h.reduced_betti[2], 1);
}

TEST(Subdivision, PreservesEulerCharacteristic) {
  SimplicialComplex k;
  k.add_facet(Simplex{0, 1, 2});
  k.add_facet(Simplex{2, 3});
  const Subdivision sd = barycentric_subdivision(k);
  EXPECT_EQ(sd.complex.euler_characteristic(), k.euler_characteristic());
}

TEST(Subdivision, IteratedGrowth) {
  const Subdivision sd2 =
      iterated_barycentric_subdivision(solid_simplex(2), 2);
  // sd² of a triangle: each of the 6 triangles subdivides into 6.
  EXPECT_EQ(sd2.complex.facet_count(), 36u);
}

// ----------------------------------------------------------------- arena --

TEST(Arena, InternIsIdempotent) {
  VertexArena arena;
  const VertexId a = arena.intern(0, 42);
  const VertexId b = arena.intern(0, 42);
  const VertexId c = arena.intern(1, 42);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(arena.pid(a), 0);
  EXPECT_EQ(arena.state(c), 42u);
  EXPECT_EQ(arena.size(), 2u);
  EXPECT_THROW(arena.label(99), std::out_of_range);
}

// --------------------------------------------------- randomized properties --

TEST(Property, EulerEqualsAlternatingBettiSum) {
  // χ(K) = Σ (-1)^d β_d (unreduced). Check on random 2-dimensional
  // complexes; unreduced β₀ = reduced β̃₀ + 1.
  util::Rng rng(211);
  for (int trial = 0; trial < 20; ++trial) {
    SimplicialComplex k;
    const int n = 6;
    for (int i = 0; i < 10; ++i) {
      const std::vector<int> tri = rng.sample_without_replacement(n, 3);
      k.add_facet(Simplex{static_cast<VertexId>(tri[0]),
                          static_cast<VertexId>(tri[1]),
                          static_cast<VertexId>(tri[2])});
    }
    const HomologyReport h = reduced_homology(k, {.max_dim = 2});
    const long long chi = 1 + h.reduced_betti[0] - h.reduced_betti[1] +
                          h.reduced_betti[2];
    EXPECT_EQ(k.euler_characteristic(), chi);
  }
}

TEST(Property, SubdivisionPreservesBetti) {
  util::Rng rng(223);
  for (int trial = 0; trial < 5; ++trial) {
    SimplicialComplex k;
    for (int i = 0; i < 6; ++i) {
      const std::vector<int> tri = rng.sample_without_replacement(5, 3);
      k.add_facet(Simplex{static_cast<VertexId>(tri[0]),
                          static_cast<VertexId>(tri[1]),
                          static_cast<VertexId>(tri[2])});
    }
    const Subdivision sd = barycentric_subdivision(k);
    const HomologyReport h1 = reduced_homology(k, {.max_dim = 2});
    const HomologyReport h2 = reduced_homology(sd.complex, {.max_dim = 2});
    EXPECT_EQ(h1.reduced_betti, h2.reduced_betti);
  }
}

TEST(Property, IntersectionIsSubcomplexOfBoth) {
  util::Rng rng(227);
  for (int trial = 0; trial < 20; ++trial) {
    SimplicialComplex a, b;
    for (int i = 0; i < 5; ++i) {
      const std::vector<int> ta = rng.sample_without_replacement(6, 3);
      const std::vector<int> tb = rng.sample_without_replacement(6, 3);
      a.add_facet(Simplex{static_cast<VertexId>(ta[0]),
                          static_cast<VertexId>(ta[1]),
                          static_cast<VertexId>(ta[2])});
      b.add_facet(Simplex{static_cast<VertexId>(tb[0]),
                          static_cast<VertexId>(tb[1]),
                          static_cast<VertexId>(tb[2])});
    }
    const SimplicialComplex meet = intersection_of(a, b);
    EXPECT_TRUE(meet.is_subcomplex_of(a));
    EXPECT_TRUE(meet.is_subcomplex_of(b));
    // And the union contains both.
    const SimplicialComplex u = union_of(a, b);
    EXPECT_TRUE(a.is_subcomplex_of(u));
    EXPECT_TRUE(b.is_subcomplex_of(u));
  }
}

// ------------------------------------------------- boundary link table --

TEST(Complex, BoundaryLinksMatchFaceIndexLookups) {
  // The link table the cache build records must agree with what explicit
  // face_without_index + rank lookups produce, for every simplex and
  // omitted vertex, on an irregular complex. The ranks come from a map
  // built here from the level below's rows.
  SimplicialComplex k;
  k.add_facet(Simplex{0, 1, 2, 3});
  k.add_facet(Simplex{2, 3, 4});
  k.add_facet(Simplex{4, 5});
  k.add_facet(Simplex{6});
  for (int d = 1; d <= k.dimension(); ++d) {
    const std::size_t width = static_cast<std::size_t>(d) + 1;
    const std::span<const VertexId> rows = k.face_rows_of_dim(d);
    const std::span<const VertexId> below = k.face_rows_of_dim(d - 1);
    std::map<Simplex, std::size_t> rank_below;
    for (std::size_t i = 0; i < k.count_of_dim(d - 1); ++i) {
      rank_below.emplace(Simplex(below.subspan(i * (width - 1), width - 1)),
                         i);
    }
    ASSERT_EQ(rank_below.size(), k.count_of_dim(d - 1));
    const std::vector<std::size_t>& links = k.boundary_links_of_dim(d);
    ASSERT_EQ(rows.size(), k.count_of_dim(d) * width);
    ASSERT_EQ(links.size(), rows.size());
    for (std::size_t c = 0; c < k.count_of_dim(d); ++c) {
      const Simplex simplex(rows.subspan(c * width, width));
      for (std::size_t omit = 0; omit < width; ++omit) {
        const Simplex face = simplex.face_without_index(omit);
        EXPECT_EQ(links[c * width + omit], rank_below.at(face))
            << "d=" << d << " c=" << c << " omit=" << omit;
      }
    }
  }
  EXPECT_TRUE(k.boundary_links_of_dim(0).empty());
  EXPECT_TRUE(k.boundary_links_of_dim(9).empty());
}

// ----------------------------------------------------- Morse reduction --

TEST(Morse, SolidSimplexReducesToNothing) {
  // A solid simplex is collapsible, and with the augmentation cell in play
  // the coreduction cascade pairs away every cell: no critical cells, all
  // reduced matrices empty.
  SimplicialComplex k;
  k.add_facet(Simplex{0, 1, 2, 3});
  const MorseComplex mc = morse_reduce(k, 4);
  EXPECT_EQ(mc.cells_after, 0u);
  EXPECT_EQ(2 * mc.pairs, mc.cells_before);
  for (const std::size_t c : mc.critical) EXPECT_EQ(c, 0u);
  EXPECT_EQ(mc.boundary[0].rows(), 0u);
}

TEST(Morse, BoundaryOfTetrahedronKeepsTopHomology) {
  // ∂Δ³ ≃ S²: β̃ = [0, 0, 1]. The cascade cannot eat the 2-sphere cycle,
  // and homology through the reduced matrices must see it.
  SimplicialComplex k;
  for (const auto& f : {Simplex{0, 1, 2}, Simplex{0, 1, 3}, Simplex{0, 2, 3},
                        Simplex{1, 2, 3}}) {
    k.add_facet(f);
  }
  const MorseComplex mc = morse_reduce(k, 3);
  EXPECT_LT(mc.cells_after, mc.cells_before);
  const HomologyReport with_morse =
      reduced_homology(k, {.max_dim = 2, .morse = true});
  const HomologyReport without_morse =
      reduced_homology(k, {.max_dim = 2, .morse = false});
  const std::vector<long long> expected = {0, 0, 1};
  EXPECT_EQ(with_morse.reduced_betti, expected);
  EXPECT_EQ(without_morse.reduced_betti, expected);
}

TEST(Morse, DisconnectedComplexKeepsComponentCount) {
  // Three components, one a hollow triangle: β̃_0 = 2, β̃_1 = 1. Only one
  // component's vertex can pair with the augmentation cell.
  SimplicialComplex k;
  k.add_facet(Simplex{0, 1});
  k.add_facet(Simplex{1, 2});
  k.add_facet(Simplex{0, 2});  // hollow triangle 0-1-2
  k.add_facet(Simplex{3, 4});
  k.add_facet(Simplex{5});
  for (const bool morse : {true, false}) {
    const HomologyReport report =
        reduced_homology(k, {.max_dim = 1, .morse = morse});
    const std::vector<long long> expected = {2, 1};
    EXPECT_EQ(report.reduced_betti, expected) << "morse=" << morse;
  }
}

TEST(Morse, ExpiredDeadlineStopsTheReduction) {
  // The transpose and the cascade poll the deadline: with the face cache
  // already warm, an expired deadline must still stop the reduction.
  core::ViewRegistry views;
  VertexArena arena;
  const Simplex input = core::rainbow_input(3, views, arena);
  const SimplicialComplex complex =
      core::async_protocol_complex(input, {3, 1, 2}, views, arena);
  complex.warm_face_cache();
  {
    const util::DeadlineScope expired(std::chrono::steady_clock::now() -
                                      std::chrono::seconds(1));
    EXPECT_THROW(morse_reduce(complex, 3), util::DeadlineExceeded);
  }
  const MorseComplex mc = morse_reduce(complex, 3);
  EXPECT_EQ(mc.cells_before - mc.cells_after, 2 * mc.pairs);
}

TEST(Morse, TruncationDepthOnlyAffectsDimensionsAtOrAboveIt) {
  // Reducing with top_dim = t preserves homology strictly below t; the
  // engine always passes t = max_dim + 1 so every reported dimension is
  // safe. Cross-check on the 3-sphere pseudosphere-like boundary ∂Δ⁴.
  SimplicialComplex k;
  for (VertexId drop = 0; drop < 5; ++drop) {
    std::vector<VertexId> vs;
    for (VertexId v = 0; v < 5; ++v) {
      if (v != drop) vs.push_back(v);
    }
    k.add_facet(Simplex(vs));
  }
  for (int max_dim = 0; max_dim <= 3; ++max_dim) {
    const HomologyReport report =
        reduced_homology(k, {.max_dim = max_dim, .morse = true});
    for (int d = 0; d <= max_dim; ++d) {
      const long long expected = (d == 3) ? 1 : 0;
      EXPECT_EQ(report.reduced_betti[static_cast<std::size_t>(d)], expected)
          << "max_dim=" << max_dim << " d=" << d;
    }
  }
}

}  // namespace
}  // namespace psph::topology
