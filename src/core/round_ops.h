#pragma once

// One-round expanders shared by every construction path.
//
// The model logic — which views one round produces and which facets they
// span (Lemma 11 for async, Lemma 14 for sync, Lemma 19 for semi-sync, the
// chromatic subdivision for IIS) — is written once here and interns
// straight into the canonical ViewRegistry / VertexArena. The public
// one-round functions, the *_seq recursions and the multi-round pipeline
// (construction.h) all call these.
//
// Enumeration order is part of the contract: every loop below visits
// choices in a fixed order, so new views and vertices are created — and
// numbered — in the same order on every run.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/async_complex.h"
#include "core/semisync_complex.h"
#include "core/sync_complex.h"
#include "core/view.h"
#include "math/combinatorics.h"
#include "topology/arena.h"
#include "topology/simplex.h"

namespace psph::core::detail {

/// One adversary-choice group of a round expansion: the facets contributed
/// by a single fail set (sync) or failure pattern (semi-sync), plus how much
/// of the total-failure budget that choice consumed. The multi-round driver
/// recurses on each facet with the budget reduced by failures_used; async
/// and IIS have a single group with failures_used = 0.
struct RoundGroup {
  int failures_used = 0;
  std::vector<topology::Simplex> facets;
};

/// Facets of ψ(pids; value_sets) in odometer order (the exact order
/// math::for_each_product visits), interning vertices through `arena`.
/// Positions must be nonempty and pids distinct; within one pseudosphere
/// all facets are distinct and of equal dimension, so the output needs no
/// dedup and qualifies for SimplicialComplex::add_facets's pure fast lane.
inline void product_facets(const std::vector<ProcessId>& pids,
                           const std::vector<std::vector<StateId>>& value_sets,
                           topology::VertexArena& arena,
                           std::vector<topology::Simplex>* out) {
  std::vector<std::size_t> sizes;
  sizes.reserve(value_sets.size());
  for (const auto& set : value_sets) sizes.push_back(set.size());
  math::for_each_product(sizes, [&](const std::vector<std::size_t>& choice) {
    std::vector<topology::VertexId> vertices;
    vertices.reserve(pids.size());
    for (std::size_t i = 0; i < pids.size(); ++i) {
      vertices.push_back(arena.intern(pids[i], value_sets[i][choice[i]]));
    }
    out->push_back(topology::Simplex(std::move(vertices)));
  });
}

/// A facet decoded to aligned (pid, state) vectors sorted by pid — the
/// representation the sync and semi-sync expanders work over.
struct SortedFacet {
  std::vector<ProcessId> pids;
  std::vector<StateId> states;

  StateId state_of(ProcessId pid) const {
    const auto it = std::lower_bound(pids.begin(), pids.end(), pid);
    return states[static_cast<std::size_t>(it - pids.begin())];
  }
};

inline SortedFacet decode_sorted(const topology::Simplex& input,
                                 const topology::VertexArena& arena) {
  SortedFacet decoded;
  for (topology::VertexId v : input.vertices()) {
    decoded.pids.push_back(arena.pid(v));
    decoded.states.push_back(arena.state(v));
  }
  std::vector<std::size_t> order(decoded.pids.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return decoded.pids[a] < decoded.pids[b];
  });
  SortedFacet sorted;
  sorted.pids.reserve(order.size());
  sorted.states.reserve(order.size());
  for (std::size_t i : order) {
    sorted.pids.push_back(decoded.pids[i]);
    sorted.states.push_back(decoded.states[i]);
  }
  return sorted;
}

// ------------------------------------------------------------- async ----

/// Lemma 11: one asynchronous round from `input` is the single pseudosphere
/// of independent admissible heard-sets. Empty (no group) when the facet
/// has fewer than n + 1 - f participants.
inline void expand_async_round(const topology::Simplex& input,
                               const AsyncParams& params, ViewRegistry& views,
                               topology::VertexArena& arena,
                               std::vector<RoundGroup>* out) {
  std::vector<ProcessId> pids;
  std::vector<StateId> states;
  for (topology::VertexId v : input.vertices()) {
    pids.push_back(arena.pid(v));
    states.push_back(arena.state(v));
  }
  const int participants = static_cast<int>(pids.size());
  if (participants < params.num_processes - params.max_failures) return;
  if (participants == 0) return;

  const int round = views.round(states[0]) + 1;
  const int min_others = params.num_processes - 1 - params.max_failures;

  std::vector<std::vector<StateId>> choices(
      static_cast<std::size_t>(participants));
  for (int i = 0; i < participants; ++i) {
    std::vector<int> others;
    for (int j = 0; j < participants; ++j) {
      if (j != i) others.push_back(j);
    }
    for (const std::vector<int>& subset : math::subsets_with_size_between(
             others, min_others, participants - 1)) {
      std::vector<HeardEntry> heard;
      heard.reserve(subset.size() + 1);
      heard.push_back({pids[static_cast<std::size_t>(i)],
                       states[static_cast<std::size_t>(i)], kNoMicro});
      for (int j : subset) {
        heard.push_back({pids[static_cast<std::size_t>(j)],
                         states[static_cast<std::size_t>(j)], kNoMicro});
      }
      choices[static_cast<std::size_t>(i)].push_back(views.intern_round(
          pids[static_cast<std::size_t>(i)], round, std::move(heard)));
    }
  }
  RoundGroup group;
  product_facets(pids, choices, arena, &group.facets);
  out->push_back(std::move(group));
}

// -------------------------------------------------------------- sync ----

/// ψ(S\K; ...) where each survivor independently hears all survivors plus a
/// subset J ⊆ K of the failing processes, with `required` ⊆ J forced.
/// Lemma 14 uses required = ∅; Lemma 15's right-hand side pins one failing
/// process as heard. `fail_set` and `required` must be sorted.
inline void sync_failset_facets(const SortedFacet& input,
                                const std::vector<ProcessId>& fail_set,
                                const std::vector<ProcessId>& required,
                                ViewRegistry& views,
                                topology::VertexArena& arena,
                                std::vector<topology::Simplex>* out) {
  std::vector<ProcessId> survivors;
  for (ProcessId p : input.pids) {
    if (!std::binary_search(fail_set.begin(), fail_set.end(), p)) {
      survivors.push_back(p);
    }
  }
  if (survivors.empty()) return;

  const int round = views.round(input.state_of(survivors[0])) + 1;

  std::vector<ProcessId> optional;
  for (ProcessId p : fail_set) {
    if (!std::binary_search(required.begin(), required.end(), p)) {
      optional.push_back(p);
    }
  }

  std::vector<std::vector<StateId>> choices;
  choices.reserve(survivors.size());
  for (ProcessId receiver : survivors) {
    std::vector<StateId> receiver_choices;
    for (const std::vector<ProcessId>& extra : math::all_subsets(optional)) {
      std::vector<HeardEntry> heard;
      heard.reserve(survivors.size() + required.size() + extra.size());
      for (ProcessId sender : survivors) {
        heard.push_back({sender, input.state_of(sender), kNoMicro});
      }
      for (ProcessId sender : required) {
        heard.push_back({sender, input.state_of(sender), kNoMicro});
      }
      for (ProcessId sender : extra) {
        heard.push_back({sender, input.state_of(sender), kNoMicro});
      }
      receiver_choices.push_back(
          views.intern_round(receiver, round, std::move(heard)));
    }
    choices.push_back(std::move(receiver_choices));
  }
  product_facets(survivors, choices, arena, out);
}

/// Lemma 14 union: one group per fail set K with |K| ≤ min(k, f), in the
/// paper's lexicographic order.
inline void expand_sync_round(const topology::Simplex& input,
                              const SyncParams& params, ViewRegistry& views,
                              topology::VertexArena& arena,
                              std::vector<RoundGroup>* out) {
  const SortedFacet decoded = decode_sorted(input, arena);
  const int cap = std::min(params.failures_per_round, params.total_failures);
  for (const std::vector<ProcessId>& fail_set :
       math::subsets_with_size_between(decoded.pids, 0, cap)) {
    RoundGroup group;
    group.failures_used = static_cast<int>(fail_set.size());
    sync_failset_facets(decoded, fail_set, {}, views, arena, &group.facets);
    out->push_back(std::move(group));
  }
}

// ---------------------------------------------------------- semi-sync ----

/// One view from [F]: `delivered_last[i]` says whether the choice for the
/// i-th failing process is μ_j = F(P_j) (true) or F(P_j) - 1 (false).
inline StateId semisync_make_view(const SortedFacet& input,
                                  const FailurePattern& pattern, int mu,
                                  ProcessId receiver,
                                  const std::vector<bool>& delivered_last,
                                  int round, ViewRegistry& views) {
  std::vector<HeardEntry> heard;
  for (ProcessId sender : input.pids) {
    if (std::binary_search(pattern.fail_set.begin(), pattern.fail_set.end(),
                           sender)) {
      continue;
    }
    heard.push_back({sender, input.state_of(sender), mu});
  }
  for (std::size_t i = 0; i < pattern.fail_set.size(); ++i) {
    const int micro =
        delivered_last[i] ? pattern.fail_micro[i] : pattern.fail_micro[i] - 1;
    if (micro >= 1) {
      heard.push_back(
          {pattern.fail_set[i], input.state_of(pattern.fail_set[i]), micro});
    }
  }
  return views.intern_round(receiver, round, std::move(heard));
}

/// Lemma 19: M¹_{K,F}(S) ≅ ψ(S\K; [F]), optionally with one failing
/// process's delivery pinned (Lemma 20's [F ↑ j]); force_delivered_index is
/// -1 for none, else an index into pattern.fail_set. `pattern.fail_set`
/// must be sorted with fail_micro aligned.
inline void semisync_pattern_facets(const SortedFacet& input,
                                    const FailurePattern& pattern, int mu,
                                    int force_delivered_index,
                                    ViewRegistry& views,
                                    topology::VertexArena& arena,
                                    std::vector<topology::Simplex>* out) {
  std::vector<ProcessId> survivors;
  for (ProcessId p : input.pids) {
    if (!std::binary_search(pattern.fail_set.begin(), pattern.fail_set.end(),
                            p)) {
      survivors.push_back(p);
    }
  }
  if (survivors.empty()) return;

  const int round = views.round(input.state_of(survivors[0])) + 1;

  const std::size_t k = pattern.fail_set.size();
  std::vector<std::vector<bool>> all_choices;
  std::vector<std::size_t> sizes;
  for (std::size_t i = 0; i < k; ++i) {
    sizes.push_back(static_cast<std::size_t>(i) ==
                            static_cast<std::size_t>(force_delivered_index)
                        ? 1u
                        : 2u);
  }
  math::for_each_product(sizes, [&](const std::vector<std::size_t>& odo) {
    std::vector<bool> choice(k);
    for (std::size_t i = 0; i < k; ++i) {
      if (static_cast<int>(i) == force_delivered_index) {
        choice[i] = true;  // pinned: the last message was delivered
      } else {
        choice[i] = odo[i] == 1;
      }
    }
    all_choices.push_back(std::move(choice));
  });

  std::vector<std::vector<StateId>> per_survivor;
  per_survivor.reserve(survivors.size());
  for (ProcessId receiver : survivors) {
    std::vector<StateId> options;
    options.reserve(all_choices.size());
    for (const std::vector<bool>& choice : all_choices) {
      options.push_back(semisync_make_view(input, pattern, mu, receiver,
                                           choice, round, views));
    }
    per_survivor.push_back(std::move(options));
  }
  product_facets(survivors, per_survivor, arena, out);
}

/// Lemma 19 union: one group per (K, F) pair in the paper's order.
inline void expand_semisync_round(const topology::Simplex& input,
                                  const SemiSyncParams& params,
                                  ViewRegistry& views,
                                  topology::VertexArena& arena,
                                  std::vector<RoundGroup>* out) {
  const SortedFacet decoded = decode_sorted(input, arena);
  const int cap = std::min(params.failures_per_round, params.total_failures);
  for (const FailurePattern& pattern : enumerate_failure_patterns(
           decoded.pids, cap, params.micro_rounds)) {
    RoundGroup group;
    group.failures_used = static_cast<int>(pattern.fail_set.size());
    semisync_pattern_facets(decoded, pattern, params.micro_rounds, -1, views,
                            arena, &group.facets);
    out->push_back(std::move(group));
  }
}

// --------------------------------------------------------------- IIS ----

/// Enumerates all ordered partitions of `items` (each block nonempty),
/// calling `visit` with the block list. Every nonempty subset of the
/// remaining items may come first, so enumeration never double counts.
void for_each_ordered_partition(
    const std::vector<int>& items,
    const std::function<void(const std::vector<std::vector<int>>&)>& visit);

/// One IIS round: the chromatic subdivision of the input facet, one facet
/// per ordered partition of the participants.
inline void expand_iis_round(const topology::Simplex& input,
                             ViewRegistry& views, topology::VertexArena& arena,
                             std::vector<RoundGroup>* out) {
  std::vector<ProcessId> pids;
  std::vector<StateId> states;
  for (topology::VertexId v : input.vertices()) {
    pids.push_back(arena.pid(v));
    states.push_back(arena.state(v));
  }
  if (pids.empty()) return;
  const int round = views.round(states[0]) + 1;

  std::vector<int> indices;
  for (std::size_t i = 0; i < pids.size(); ++i) {
    indices.push_back(static_cast<int>(i));
  }
  RoundGroup group;
  for_each_ordered_partition(
      indices, [&](const std::vector<std::vector<int>>& blocks) {
        // Process p in block B_j snapshots blocks B_1..B_j.
        std::vector<topology::VertexId> facet;
        std::vector<HeardEntry> seen_so_far;
        for (const std::vector<int>& block : blocks) {
          for (int i : block) {
            seen_so_far.push_back({pids[static_cast<std::size_t>(i)],
                                   states[static_cast<std::size_t>(i)],
                                   kNoMicro});
          }
          for (int i : block) {
            const StateId state = views.intern_round(
                pids[static_cast<std::size_t>(i)], round, seen_so_far);
            facet.push_back(
                arena.intern(pids[static_cast<std::size_t>(i)], state));
          }
        }
        group.facets.push_back(topology::Simplex(std::move(facet)));
      });
  out->push_back(std::move(group));
}

}  // namespace psph::core::detail
