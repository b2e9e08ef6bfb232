#include "core/chains.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <span>
#include <unordered_map>

namespace psph::core {

SimilarityGraph similarity_graph(const topology::SimplicialComplex& k) {
  SimilarityGraph graph;
  graph.facets = k.facets();
  graph.adjacency.assign(graph.facets.size(), {});

  // vertex -> facet indices containing it.
  std::unordered_map<topology::VertexId, std::vector<std::size_t>> by_vertex;
  for (std::size_t i = 0; i < graph.facets.size(); ++i) {
    for (topology::VertexId v : graph.facets[i].vertices()) {
      by_vertex[v].push_back(i);
    }
  }

  // Count shared vertices per facet pair via the vertex lists.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> shared;
  for (const auto& [v, owners] : by_vertex) {
    (void)v;
    for (std::size_t a = 0; a < owners.size(); ++a) {
      for (std::size_t b = a + 1; b < owners.size(); ++b) {
        ++shared[{owners[a], owners[b]}];
      }
    }
  }
  std::size_t max_degree = 0;
  for (const auto& [pair, count] : shared) {
    graph.adjacency[pair.first].push_back(pair.second);
    graph.adjacency[pair.second].push_back(pair.first);
    max_degree = std::max(max_degree, count);
  }
  graph.degree_histogram.assign(max_degree + 1, 0);
  for (const auto& [pair, count] : shared) {
    (void)pair;
    ++graph.degree_histogram[count];
  }
  for (auto& neighbors : graph.adjacency) {
    std::sort(neighbors.begin(), neighbors.end());
  }
  return graph;
}

std::size_t max_similarity_degree(const topology::SimplicialComplex& k) {
  const SimilarityGraph graph = similarity_graph(k);
  for (std::size_t s = graph.degree_histogram.size(); s-- > 1;) {
    if (graph.degree_histogram[s] > 0) return s;
  }
  return 0;
}

namespace {

// The single decision value a facet is forced to, if every vertex's view
// saw exactly one input value and it is the same across the facet.
std::optional<std::int64_t> forced_value(const topology::Simplex& facet,
                                         const ViewRegistry& views,
                                         const topology::VertexArena& arena) {
  std::optional<std::int64_t> forced;
  for (topology::VertexId v : facet.vertices()) {
    const std::span<const std::int64_t> seen =
        views.inputs_seen(arena.state(v));
    if (seen.size() != 1) return std::nullopt;
    if (forced.has_value() && *forced != seen.front()) return std::nullopt;
    forced = seen.front();
  }
  return forced;
}

}  // namespace

std::optional<ChainWitness> consensus_chain_witness(
    const topology::SimplicialComplex& protocol, const ViewRegistry& views,
    const topology::VertexArena& arena) {
  const SimilarityGraph graph = similarity_graph(protocol);

  // Locate forced facets per value.
  std::map<std::int64_t, std::vector<std::size_t>> forced_by_value;
  for (std::size_t i = 0; i < graph.facets.size(); ++i) {
    const auto value = forced_value(graph.facets[i], views, arena);
    if (value.has_value()) forced_by_value[*value].push_back(i);
  }
  if (forced_by_value.size() < 2) return std::nullopt;

  // BFS from all facets forced to the smallest value; stop at any facet
  // forced to a different value.
  const auto first = forced_by_value.begin();
  const std::int64_t low = first->first;
  std::vector<std::ptrdiff_t> parent(graph.facets.size(), -2);  // -2 unseen
  std::deque<std::size_t> queue;
  for (std::size_t start : first->second) {
    parent[start] = -1;  // root
    queue.push_back(start);
  }
  while (!queue.empty()) {
    const std::size_t current = queue.front();
    queue.pop_front();
    const auto value = forced_value(graph.facets[current], views, arena);
    if (value.has_value() && *value != low) {
      ChainWitness witness;
      witness.low_value = low;
      witness.high_value = *value;
      for (std::ptrdiff_t node = static_cast<std::ptrdiff_t>(current);
           node >= 0; node = parent[static_cast<std::size_t>(node)]) {
        witness.chain.push_back(static_cast<std::size_t>(node));
      }
      std::reverse(witness.chain.begin(), witness.chain.end());
      return witness;
    }
    for (std::size_t next : graph.adjacency[current]) {
      if (parent[next] == -2) {
        parent[next] = static_cast<std::ptrdiff_t>(current);
        queue.push_back(next);
      }
    }
  }
  return std::nullopt;
}

}  // namespace psph::core
