#include "core/semisync_complex.h"

#include <algorithm>
#include <stdexcept>

#include "core/round_ops.h"
#include "math/combinatorics.h"

namespace psph::core {

std::uint64_t view_count(const FailurePattern& pattern) {
  return 1ULL << pattern.fail_set.size();
}

std::vector<FailurePattern> enumerate_failure_patterns(
    const std::vector<ProcessId>& participants, int max_failures, int mu) {
  if (mu < 1) throw std::invalid_argument("enumerate_failure_patterns: mu<1");
  std::vector<FailurePattern> result;
  for (const std::vector<ProcessId>& fail_set :
       math::subsets_with_size_between(participants, 0, max_failures)) {
    const std::size_t k = fail_set.size();
    if (k == 0) {
      result.push_back({fail_set, {}});
      continue;
    }
    // Reverse lexicographic over microrounds: all-μ first, all-1 last.
    std::vector<std::size_t> sizes(k, static_cast<std::size_t>(mu));
    std::vector<std::vector<int>> micro_choices;
    math::for_each_product(sizes, [&](const std::vector<std::size_t>& odo) {
      std::vector<int> micro(k);
      for (std::size_t i = 0; i < k; ++i) {
        micro[i] = mu - static_cast<int>(odo[i]);  // μ, μ-1, ..., 1
      }
      micro_choices.push_back(std::move(micro));
    });
    for (std::vector<int>& micro : micro_choices) {
      result.push_back({fail_set, std::move(micro)});
    }
  }
  return result;
}

topology::SimplicialComplex semisync_round_complex_for_pattern(
    const topology::Simplex& input, const FailurePattern& pattern, int mu,
    ViewRegistry& views, topology::VertexArena& arena) {
  FailurePattern sorted = pattern;
  // Keep (fail_set, fail_micro) aligned while sorting by pid.
  std::vector<std::size_t> order(sorted.fail_set.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return pattern.fail_set[a] < pattern.fail_set[b];
  });
  for (std::size_t i = 0; i < order.size(); ++i) {
    sorted.fail_set[i] = pattern.fail_set[order[i]];
    sorted.fail_micro[i] = pattern.fail_micro[order[i]];
  }
  for (int micro : sorted.fail_micro) {
    if (micro < 1 || micro > mu) {
      throw std::invalid_argument("failure pattern: microround out of range");
    }
  }
  const detail::SortedFacet decoded = detail::decode_sorted(input, arena);
  std::vector<topology::Simplex> facets;
  detail::semisync_pattern_facets(decoded, sorted, mu, -1, views, arena,
                                  &facets);
  topology::SimplicialComplex result;
  result.add_facets(std::move(facets));
  return result;
}

topology::SimplicialComplex semisync_lemma20_rhs(
    const topology::Simplex& input, const FailurePattern& pattern, int mu,
    ViewRegistry& views, topology::VertexArena& arena) {
  const detail::SortedFacet decoded = detail::decode_sorted(input, arena);
  topology::SimplicialComplex result;
  for (std::size_t j = 0; j < pattern.fail_set.size(); ++j) {
    std::vector<topology::Simplex> facets;
    detail::semisync_pattern_facets(decoded, pattern, mu, static_cast<int>(j),
                                    views, arena, &facets);
    result.add_facets(std::move(facets));
  }
  return result;
}

topology::SimplicialComplex semisync_round_complex(
    const topology::Simplex& input, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena) {
  std::vector<detail::RoundGroup> groups;
  detail::expand_semisync_round(input, params, views, arena, &groups);
  topology::SimplicialComplex result;
  for (detail::RoundGroup& group : groups) {
    result.add_facets(std::move(group.facets));
  }
  return result;
}

topology::SimplicialComplex semisync_protocol_complex_seq(
    const topology::Simplex& input, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena) {
  if (params.rounds < 1) {
    throw std::invalid_argument("semisync_protocol_complex: rounds < 1");
  }
  const detail::SortedFacet decoded = detail::decode_sorted(input, arena);
  const int cap = std::min(params.failures_per_round, params.total_failures);
  topology::SimplicialComplex result;
  for (const FailurePattern& pattern : enumerate_failure_patterns(
           decoded.pids, cap, params.micro_rounds)) {
    std::vector<topology::Simplex> facets;
    detail::semisync_pattern_facets(decoded, pattern, params.micro_rounds, -1,
                                    views, arena, &facets);
    topology::SimplicialComplex round_complex;
    round_complex.add_facets(std::move(facets));
    if (params.rounds == 1) {
      result.merge(round_complex);
      continue;
    }
    SemiSyncParams next = params;
    next.rounds = params.rounds - 1;
    next.total_failures =
        params.total_failures - static_cast<int>(pattern.fail_set.size());
    for (const topology::Simplex& facet : round_complex.facets()) {
      result.merge(semisync_protocol_complex_seq(facet, next, views, arena));
    }
  }
  return result;
}

}  // namespace psph::core
