// Tests for the indistinguishability-chain engine: similarity graphs and
// degree histograms (Section 1's "higher degrees of similarity"), and the
// chain-witness consensus impossibility proof, cross-checked against the
// exhaustive search on the same complexes.

#include <gtest/gtest.h>

#include "core/async_complex.h"
#include "core/chains.h"
#include "core/pseudosphere.h"
#include "core/sync_complex.h"
#include "core/theorems.h"
#include "oracle/decision_search.h"

namespace psph::core {
namespace {

using oracle::search_decision_map;
using oracle::SearchResult;

struct Fixture {
  ViewRegistry views;
  topology::VertexArena arena;
};

TEST(SimilarityGraph, CountsSharedVertices) {
  topology::SimplicialComplex k;
  k.add_facet(topology::Simplex{0, 1, 2});
  k.add_facet(topology::Simplex{2, 3, 4});  // shares 1 vertex with first
  k.add_facet(topology::Simplex{5, 6});     // isolated
  const SimilarityGraph graph = similarity_graph(k);
  ASSERT_EQ(graph.facets.size(), 3u);
  // One pair with exactly one shared vertex.
  ASSERT_GE(graph.degree_histogram.size(), 2u);
  EXPECT_EQ(graph.degree_histogram[1], 1u);
  EXPECT_EQ(max_similarity_degree(k), 1u);
}

TEST(SimilarityGraph, HigherDegrees) {
  topology::SimplicialComplex k;
  k.add_facet(topology::Simplex{0, 1, 2});
  k.add_facet(topology::Simplex{1, 2, 3});  // shares an edge (2 vertices)
  EXPECT_EQ(max_similarity_degree(k), 2u);
}

TEST(SimilarityGraph, AdjacencySymmetric) {
  Fixture fx;
  const topology::Simplex input = rainbow_input(3, fx.views, fx.arena);
  const topology::SimplicialComplex a1 =
      async_round_complex(input, {3, 1, 1}, fx.views, fx.arena);
  const SimilarityGraph graph = similarity_graph(a1);
  for (std::size_t i = 0; i < graph.adjacency.size(); ++i) {
    for (std::size_t j : graph.adjacency[i]) {
      const auto& back = graph.adjacency[j];
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), i));
    }
  }
}

TEST(ChainWitness, FoundOnAsyncConsensusComplex) {
  // The one-round 1-resilient complex over binary inputs: a chain from the
  // all-0 execution to the all-1 execution exists, proving consensus
  // impossible — matching the exhaustive search.
  Fixture fx;
  const topology::SimplicialComplex inputs =
      input_complex(3, {0, 1}, fx.views, fx.arena);
  const topology::SimplicialComplex protocol =
      async_protocol_complex_over(inputs, {3, 1, 1}, fx.views, fx.arena);

  const auto witness = consensus_chain_witness(protocol, fx.views, fx.arena);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(witness->low_value, 0);
  EXPECT_EQ(witness->high_value, 1);
  EXPECT_GE(witness->chain.size(), 2u);

  // Validate the witness: consecutive facets share a vertex, endpoints are
  // forced to distinct values.
  const SimilarityGraph graph = similarity_graph(protocol);
  for (std::size_t i = 1; i < witness->chain.size(); ++i) {
    const topology::Simplex& a = graph.facets[witness->chain[i - 1]];
    const topology::Simplex& b = graph.facets[witness->chain[i]];
    EXPECT_FALSE(a.intersect(b).empty()) << "link " << i;
  }

  // Cross-check with the search.
  const SearchResult search =
      search_decision_map(protocol, 1, fx.views, fx.arena);
  EXPECT_TRUE(search.exhausted);
  EXPECT_FALSE(search.decidable);
}

TEST(ChainWitness, FoundOnSyncOneRound) {
  Fixture fx;
  const topology::SimplicialComplex inputs =
      input_complex(3, {0, 1}, fx.views, fx.arena);
  const topology::SimplicialComplex protocol =
      sync_protocol_complex_over(inputs, {3, 1, 1, 1}, fx.views, fx.arena);
  const auto witness = consensus_chain_witness(protocol, fx.views, fx.arena);
  ASSERT_TRUE(witness.has_value());
}

TEST(ChainWitness, AbsentWhenConsensusSolvable) {
  // Two synchronous rounds with f = 1: consensus is solvable, so no chain
  // witness can exist (forced-0 and forced-1 facets lie in regions a
  // decision map separates — here they are in different components of the
  // forced relation; the BFS must fail).
  Fixture fx;
  const topology::SimplicialComplex inputs =
      input_complex(3, {0, 1}, fx.views, fx.arena);
  const topology::SimplicialComplex protocol =
      sync_protocol_complex_over(inputs, {3, 1, 1, 2}, fx.views, fx.arena);
  const auto witness = consensus_chain_witness(protocol, fx.views, fx.arena);
  EXPECT_FALSE(witness.has_value());
  const SearchResult search =
      search_decision_map(protocol, 1, fx.views, fx.arena);
  EXPECT_TRUE(search.decidable);
}

TEST(ChainWitness, AbsentWithoutForcedEndpoints) {
  // A single-input complex has one forced value only: no witness.
  Fixture fx;
  const topology::Simplex input = input_facet({0, 0, 0}, fx.views, fx.arena);
  const topology::SimplicialComplex protocol =
      async_round_complex(input, {3, 1, 1}, fx.views, fx.arena);
  EXPECT_FALSE(
      consensus_chain_witness(protocol, fx.views, fx.arena).has_value());
}

}  // namespace
}  // namespace psph::core
