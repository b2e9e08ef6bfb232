#include "core/sync_complex.h"

#include <algorithm>

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
  detail::SortedFacet decoded;
  detail::decode_sorted(input.vertices(), arena, decoded);
  detail::ExpandScratch scratch;
  topology::FacetRows facets;
  detail::sync_failset_facets(decoded, sorted_k, {}, views, arena, scratch,
                              &facets);
  topology::SimplicialComplex result;
  result.add_facets(facets);
  return result;
}

topology::SimplicialComplex sync_lemma15_rhs(
    const topology::Simplex& input, const std::vector<ProcessId>& fail_set,
    ViewRegistry& views, topology::VertexArena& arena) {
  std::vector<ProcessId> sorted_k = fail_set;
  std::sort(sorted_k.begin(), sorted_k.end());
  detail::SortedFacet decoded;
  detail::decode_sorted(input.vertices(), arena, decoded);
  detail::ExpandScratch scratch;
  topology::FacetRows facets;
  topology::SimplicialComplex result;
  for (const ProcessId heard_for_sure : sorted_k) {
    // ψ(S\K; 2^{K - {j}}): the views in which j's round message *was*
    // delivered, i.e. the missed set avoids j.
    facets.clear();
    detail::sync_failset_facets(decoded, sorted_k, {&heard_for_sure, 1},
                                views, arena, scratch, &facets);
    result.add_facets(facets);
  }
  return result;
}

topology::SimplicialComplex sync_round_complex(
    const topology::Simplex& input, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena) {
  detail::ExpandScratch scratch;
  detail::RoundOutput out;
  detail::expand_sync_round(input.vertices(), params, views, arena, scratch,
                            &out);
  topology::SimplicialComplex result;
  for (const detail::RoundGroup& group : out.groups) {
    result.add_facets(out.facets.rows(group.first, group.last));
  }
  return result;
}

}  // namespace psph::core
