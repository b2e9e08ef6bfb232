#include "oracle/protocol_complex_seq.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/iis_complex.h"
#include "core/round_ops.h"

namespace psph::oracle {

namespace detail = core::detail;

topology::SimplicialComplex async_protocol_complex_seq(
    const topology::Simplex& input, const core::AsyncParams& params,
    core::ViewRegistry& views, topology::VertexArena& arena) {
  if (params.rounds < 1) {
    throw std::invalid_argument("async_protocol_complex: rounds < 1");
  }
  topology::SimplicialComplex one_round =
      core::async_round_complex(input, params, views, arena);
  if (params.rounds == 1) return one_round;

  core::AsyncParams next = params;
  next.rounds = params.rounds - 1;
  topology::SimplicialComplex result;
  for (const topology::Simplex& facet : one_round.facets()) {
    result.merge(async_protocol_complex_seq(facet, next, views, arena));
  }
  return result;
}

topology::SimplicialComplex sync_protocol_complex_seq(
    const topology::Simplex& input, const core::SyncParams& params,
    core::ViewRegistry& views, topology::VertexArena& arena) {
  if (params.rounds < 1) {
    throw std::invalid_argument("sync_protocol_complex: rounds < 1");
  }
  detail::SortedFacet decoded;
  detail::decode_sorted(input.vertices(), arena, decoded);
  const int cap = std::min(params.failures_per_round, params.total_failures);
  detail::ExpandScratch scratch;
  topology::SimplicialComplex result;
  for (const std::vector<core::ProcessId>& fail_set :
       core::lexicographic_fail_sets(decoded.pids, cap)) {
    topology::FacetRows facets;
    detail::sync_failset_facets(decoded, fail_set, {}, views, arena, scratch,
                                &facets);
    topology::SimplicialComplex round_complex;
    round_complex.add_facets(facets);
    if (params.rounds == 1) {
      result.merge(round_complex);
      continue;
    }
    core::SyncParams next = params;
    next.rounds = params.rounds - 1;
    next.total_failures =
        params.total_failures - static_cast<int>(fail_set.size());
    for (const topology::Simplex& facet : round_complex.facets()) {
      result.merge(sync_protocol_complex_seq(facet, next, views, arena));
    }
  }
  return result;
}

topology::SimplicialComplex semisync_protocol_complex_seq(
    const topology::Simplex& input, const core::SemiSyncParams& params,
    core::ViewRegistry& views, topology::VertexArena& arena) {
  if (params.rounds < 1) {
    throw std::invalid_argument("semisync_protocol_complex: rounds < 1");
  }
  detail::SortedFacet decoded;
  detail::decode_sorted(input.vertices(), arena, decoded);
  const int cap = std::min(params.failures_per_round, params.total_failures);
  detail::ExpandScratch scratch;
  topology::SimplicialComplex result;
  for (const core::FailurePattern& pattern : core::enumerate_failure_patterns(
           decoded.pids, cap, params.micro_rounds)) {
    topology::FacetRows facets;
    detail::semisync_pattern_facets(decoded, pattern, params.micro_rounds, -1,
                                    views, arena, scratch, &facets);
    topology::SimplicialComplex round_complex;
    round_complex.add_facets(facets);
    if (params.rounds == 1) {
      result.merge(round_complex);
      continue;
    }
    core::SemiSyncParams next = params;
    next.rounds = params.rounds - 1;
    next.total_failures =
        params.total_failures - static_cast<int>(pattern.fail_set.size());
    for (const topology::Simplex& facet : round_complex.facets()) {
      result.merge(semisync_protocol_complex_seq(facet, next, views, arena));
    }
  }
  return result;
}

topology::SimplicialComplex iis_protocol_complex_seq(
    const topology::Simplex& input, int rounds, core::ViewRegistry& views,
    topology::VertexArena& arena) {
  if (rounds < 1) {
    throw std::invalid_argument("iis_protocol_complex: rounds < 1");
  }
  topology::SimplicialComplex one_round =
      core::iis_round_complex(input, views, arena);
  if (rounds == 1) return one_round;
  topology::SimplicialComplex result;
  for (const topology::Simplex& facet : one_round.facets()) {
    result.merge(iis_protocol_complex_seq(facet, rounds - 1, views, arena));
  }
  return result;
}

}  // namespace psph::oracle
