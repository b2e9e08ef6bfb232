#include "core/sync_complex.h"

#include <algorithm>
#include <stdexcept>

#include "core/round_ops.h"
#include "math/combinatorics.h"

namespace psph::core {

std::vector<std::vector<ProcessId>> lexicographic_fail_sets(
    const std::vector<ProcessId>& participants, int max_size) {
  return math::subsets_with_size_between(participants, 0, max_size);
}

topology::SimplicialComplex sync_round_complex_for_failset(
    const topology::Simplex& input, const std::vector<ProcessId>& fail_set,
    ViewRegistry& views, topology::VertexArena& arena) {
  std::vector<ProcessId> sorted_k = fail_set;
  std::sort(sorted_k.begin(), sorted_k.end());
  const detail::SortedFacet decoded = detail::decode_sorted(input, arena);
  std::vector<topology::Simplex> facets;
  detail::sync_failset_facets(decoded, sorted_k, {}, views, arena, &facets);
  topology::SimplicialComplex result;
  result.add_facets(std::move(facets));
  return result;
}

topology::SimplicialComplex sync_lemma15_rhs(
    const topology::Simplex& input, const std::vector<ProcessId>& fail_set,
    ViewRegistry& views, topology::VertexArena& arena) {
  std::vector<ProcessId> sorted_k = fail_set;
  std::sort(sorted_k.begin(), sorted_k.end());
  const detail::SortedFacet decoded = detail::decode_sorted(input, arena);
  topology::SimplicialComplex result;
  for (ProcessId heard_for_sure : sorted_k) {
    // ψ(S\K; 2^{K - {j}}): the views in which j's round message *was*
    // delivered, i.e. the missed set avoids j.
    std::vector<topology::Simplex> facets;
    detail::sync_failset_facets(decoded, sorted_k, {heard_for_sure}, views,
                                arena, &facets);
    result.add_facets(std::move(facets));
  }
  return result;
}

topology::SimplicialComplex sync_round_complex(
    const topology::Simplex& input, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena) {
  std::vector<detail::RoundGroup> groups;
  detail::expand_sync_round(input, params, views, arena, &groups);
  topology::SimplicialComplex result;
  for (detail::RoundGroup& group : groups) {
    result.add_facets(std::move(group.facets));
  }
  return result;
}

topology::SimplicialComplex sync_protocol_complex_seq(
    const topology::Simplex& input, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena) {
  if (params.rounds < 1) {
    throw std::invalid_argument("sync_protocol_complex: rounds < 1");
  }
  const detail::SortedFacet decoded = detail::decode_sorted(input, arena);
  const int cap = std::min(params.failures_per_round, params.total_failures);
  topology::SimplicialComplex result;
  for (const std::vector<ProcessId>& fail_set :
       lexicographic_fail_sets(decoded.pids, cap)) {
    std::vector<topology::Simplex> facets;
    detail::sync_failset_facets(decoded, fail_set, {}, views, arena, &facets);
    topology::SimplicialComplex round_complex;
    round_complex.add_facets(std::move(facets));
    if (params.rounds == 1) {
      result.merge(round_complex);
      continue;
    }
    SyncParams next = params;
    next.rounds = params.rounds - 1;
    next.total_failures =
        params.total_failures - static_cast<int>(fail_set.size());
    for (const topology::Simplex& facet : round_complex.facets()) {
      result.merge(sync_protocol_complex_seq(facet, next, views, arena));
    }
  }
  return result;
}

}  // namespace psph::core
