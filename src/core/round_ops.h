#pragma once

// One-round expanders shared by every construction path.
//
// The model logic — which views one round produces and which facets they
// span (Lemma 11 for async, Lemma 14 for sync, Lemma 19 for semi-sync, the
// chromatic subdivision for IIS) — is written once here and interns
// straight into the canonical ViewRegistry / VertexArena. The public
// one-round functions and the multi-round pipeline (construction.h) call
// these, as do the tests' depth-first reference recursions.
//
// Facets come out as sorted vertex rows appended to one topology::FacetRows
// (rows.h), each adversary group a run of them, so no facet costs a heap
// vector. The expanders take their heard lists, choice tables and subset
// picks from an ExpandScratch the caller keeps, and hand heard lists to
// ViewRegistry::intern_round as borrowed spans, so a probe that finds its
// view allocates nothing. product_facets interns each (position, choice)
// vertex label once per product rather than once per facet.
//
// Enumeration order is part of the contract: every loop below visits
// choices in a fixed order, so new views and vertices are created — and
// numbered — in the same order on every run. product_facets interns its
// labels in the order the odometer first meets them, so the ids match a
// facet-by-facet interning exactly.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/async_complex.h"
#include "core/semisync_complex.h"
#include "core/sync_complex.h"
#include "core/view.h"
#include "topology/arena.h"
#include "topology/rows.h"

namespace psph::core::detail {

using topology::VertexId;

/// One adversary-choice group of a round expansion: the facets contributed
/// by a single fail set (sync) or failure pattern (semi-sync), as the run
/// [first, last) of the output's rows, plus how much of the total-failure
/// budget that choice consumed. The multi-round driver recurses on each
/// facet with the budget reduced by failures_used; async and IIS have a
/// single group with failures_used = 0. Within one product every facet has
/// the same width.
struct RoundGroup {
  int failures_used = 0;
  std::size_t first = 0;
  std::size_t last = 0;
};

/// What round expansions append to: every group's facets end to end.
struct RoundOutput {
  topology::FacetRows facets;
  std::vector<RoundGroup> groups;

  void clear() {
    facets.clear();
    groups.clear();
  }
  /// Closes a group over the rows appended since row `first`.
  void add_group(int failures_used, std::size_t first) {
    groups.push_back({failures_used, first, facets.size()});
  }
};

/// Per position of a product, the states it may take: position i's are
/// states[begin[i], begin[i + 1]).
struct ChoiceTable {
  std::vector<StateId> states;
  std::vector<std::size_t> begin{0};

  std::size_t size(std::size_t i) const { return begin[i + 1] - begin[i]; }
  /// Ends the position whose states were pushed since the last one ended.
  void close_position() { begin.push_back(states.size()); }
  void clear() {
    states.clear();
    begin.resize(1);
  }
};

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

/// The buffers one expansion works in, kept by the caller and reused by
/// every expansion it runs. Each field serves one role, so nested loops
/// never share one.
struct ExpandScratch {
  SortedFacet input;                    // the facet being expanded
  std::vector<std::size_t> fail_pick;   // the fail set, as input positions
  std::vector<ProcessId> fail_set;
  std::vector<ProcessId> survivors;
  std::vector<ProcessId> optional;      // failing senders a view may miss
  std::vector<std::size_t> pick;        // one heard subset, as positions
  std::vector<std::uint64_t> masks;     // semi-sync delivered-last choices
  std::vector<HeardEntry> heard;
  ChoiceTable choices;
  std::vector<VertexId> vertex_of;      // product_facets: label -> vertex
  std::vector<std::size_t> odometer;
  std::vector<int> indices;             // IIS: the input's positions
};

/// Calls visit(pick) for every subset of {0, ..., n-1} whose size is in
/// [min_size, max_size] (clamped to [0, n]), as increasing positions: by
/// size, then lexicographically — math::subsets_with_size_between's order.
/// `pick` is the buffer the subsets are written to.
template <typename Visit>
void for_each_subset(std::size_t n, int min_size, int max_size,
                     std::vector<std::size_t>& pick, Visit visit) {
  const int top = std::min(max_size, static_cast<int>(n));
  for (int size = std::max(min_size, 0); size <= top; ++size) {
    const std::size_t k = static_cast<std::size_t>(size);
    pick.resize(k);
    std::iota(pick.begin(), pick.end(), std::size_t{0});
    while (true) {
      visit(std::span<const std::size_t>(pick));
      std::size_t i = k;
      while (i > 0 && pick[i - 1] == n - k + i - 1) --i;
      if (i == 0) break;
      ++pick[i - 1];
      for (std::size_t j = i; j < k; ++j) pick[j] = pick[j - 1] + 1;
    }
  }
}

/// Sorts a short row in place (facets have a handful of vertices).
inline void sort_row(std::span<VertexId> row) {
  for (std::size_t i = 1; i < row.size(); ++i) {
    const VertexId v = row[i];
    std::size_t j = i;
    for (; j > 0 && row[j - 1] > v; --j) row[j] = row[j - 1];
    row[j] = v;
  }
}

/// Facets of ψ(pids; choices) in odometer order (the last position varies
/// fastest, as math::for_each_product visits), appended to `out` as sorted
/// rows. Each (position, choice) label is interned once, in the order the
/// odometer first meets it: choice 0 of every position in position order,
/// then the later choices of the last position, then those of the
/// second-to-last, and so on — the order interning facet by facet would
/// give. Positions must be nonempty and pids distinct; within one
/// pseudosphere all facets are distinct and of equal dimension, so the
/// output needs no dedup and qualifies for SimplicialComplex::add_facets's
/// pure fast lane.
inline void product_facets(std::span<const ProcessId> pids,
                           const ChoiceTable& choices,
                           topology::VertexArena& arena,
                           ExpandScratch& scratch, topology::FacetRows* out) {
  const std::size_t n = pids.size();
  if (n == 0) return;
  for (std::size_t i = 0; i < n; ++i) {
    if (choices.size(i) == 0) return;
  }
  std::vector<VertexId>& vertex_of = scratch.vertex_of;
  vertex_of.resize(choices.states.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = choices.begin[i];
    vertex_of[c] = arena.intern(pids[i], choices.states[c]);
  }
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t c = choices.begin[i] + 1; c < choices.begin[i + 1]; ++c) {
      vertex_of[c] = arena.intern(pids[i], choices.states[c]);
    }
  }
  std::vector<std::size_t>& odometer = scratch.odometer;
  odometer.assign(n, 0);
  for (bool more = true; more;) {
    const std::span<VertexId> row = out->append_row(n);
    for (std::size_t i = 0; i < n; ++i) {
      row[i] = vertex_of[choices.begin[i] + odometer[i]];
    }
    sort_row(row);
    more = false;
    for (std::size_t position = n; position-- > 0;) {
      if (++odometer[position] < choices.size(position)) {
        more = true;
        break;
      }
      odometer[position] = 0;
    }
  }
}

/// Decodes a facet row into `out`, sorted by pid.
inline void decode_sorted(std::span<const VertexId> input,
                          const topology::VertexArena& arena,
                          SortedFacet& out) {
  out.pids.clear();
  out.states.clear();
  for (const VertexId v : input) {
    const ProcessId pid = arena.pid(v);
    std::size_t at = out.pids.size();
    out.pids.push_back(pid);
    out.states.push_back(arena.state(v));
    for (; at > 0 && out.pids[at - 1] > pid; --at) {
      std::swap(out.pids[at], out.pids[at - 1]);
      std::swap(out.states[at], out.states[at - 1]);
    }
  }
}

// ------------------------------------------------------------- async ----

/// Lemma 11: one asynchronous round from `input` is the single pseudosphere
/// of independent admissible heard-sets. Empty (no group) when the facet
/// has fewer than n + 1 - f participants.
inline void expand_async_round(std::span<const VertexId> input,
                               const AsyncParams& params, ViewRegistry& views,
                               topology::VertexArena& arena,
                               ExpandScratch& scratch, RoundOutput* out) {
  std::vector<ProcessId>& pids = scratch.input.pids;
  std::vector<StateId>& states = scratch.input.states;
  pids.clear();
  states.clear();
  for (const VertexId v : input) {
    pids.push_back(arena.pid(v));
    states.push_back(arena.state(v));
  }
  const int participants = static_cast<int>(pids.size());
  if (participants < params.num_processes - params.max_failures) return;
  if (participants == 0) return;

  const int round = views.round(states[0]) + 1;
  const int min_others = params.num_processes - 1 - params.max_failures;

  ChoiceTable& choices = scratch.choices;
  std::vector<HeardEntry>& heard = scratch.heard;
  choices.clear();
  for (std::size_t i = 0; i < pids.size(); ++i) {
    // The others are every position but i; pick p names position p, or
    // p + 1 from i on.
    for_each_subset(
        pids.size() - 1, min_others, participants - 1, scratch.pick,
        [&](std::span<const std::size_t> pick) {
          heard.clear();
          heard.push_back({pids[i], states[i], kNoMicro});
          for (const std::size_t p : pick) {
            const std::size_t j = p < i ? p : p + 1;
            heard.push_back({pids[j], states[j], kNoMicro});
          }
          choices.states.push_back(views.intern_round(pids[i], round, heard));
        });
    choices.close_position();
  }
  const std::size_t first = out->facets.size();
  product_facets(pids, choices, arena, scratch, &out->facets);
  out->add_group(0, first);
}

// -------------------------------------------------------------- sync ----

/// ψ(S\K; ...) where each survivor independently hears all survivors plus a
/// subset J ⊆ K of the failing processes, with `required` ⊆ J forced.
/// Lemma 14 uses required = ∅; Lemma 15's right-hand side pins one failing
/// process as heard. `fail_set` and `required` must be sorted, and neither
/// may be one of scratch's buffers other than fail_set.
inline void sync_failset_facets(const SortedFacet& input,
                                std::span<const ProcessId> fail_set,
                                std::span<const ProcessId> required,
                                ViewRegistry& views,
                                topology::VertexArena& arena,
                                ExpandScratch& scratch,
                                topology::FacetRows* out) {
  std::vector<ProcessId>& survivors = scratch.survivors;
  survivors.clear();
  for (ProcessId p : input.pids) {
    if (!std::binary_search(fail_set.begin(), fail_set.end(), p)) {
      survivors.push_back(p);
    }
  }
  if (survivors.empty()) return;

  const int round = views.round(input.state_of(survivors[0])) + 1;

  std::vector<ProcessId>& optional = scratch.optional;
  optional.clear();
  for (ProcessId p : fail_set) {
    if (!std::binary_search(required.begin(), required.end(), p)) {
      optional.push_back(p);
    }
  }

  ChoiceTable& choices = scratch.choices;
  std::vector<HeardEntry>& heard = scratch.heard;
  choices.clear();
  for (ProcessId receiver : survivors) {
    const int all = static_cast<int>(optional.size());
    for_each_subset(
        optional.size(), 0, all, scratch.pick,
        [&](std::span<const std::size_t> extra) {
          heard.clear();
          for (ProcessId sender : survivors) {
            heard.push_back({sender, input.state_of(sender), kNoMicro});
          }
          for (ProcessId sender : required) {
            heard.push_back({sender, input.state_of(sender), kNoMicro});
          }
          for (const std::size_t p : extra) {
            heard.push_back(
                {optional[p], input.state_of(optional[p]), kNoMicro});
          }
          choices.states.push_back(views.intern_round(receiver, round, heard));
        });
    choices.close_position();
  }
  product_facets(survivors, choices, arena, scratch, out);
}

/// Lemma 14 union: one group per fail set K with |K| ≤ min(k, f), in the
/// paper's lexicographic order.
inline void expand_sync_round(std::span<const VertexId> input,
                              const SyncParams& params, ViewRegistry& views,
                              topology::VertexArena& arena,
                              ExpandScratch& scratch, RoundOutput* out) {
  decode_sorted(input, arena, scratch.input);
  const int cap = std::min(params.failures_per_round, params.total_failures);
  for_each_subset(scratch.input.pids.size(), 0, cap, scratch.fail_pick,
                  [&](std::span<const std::size_t> pick) {
                    scratch.fail_set.clear();
                    for (const std::size_t p : pick) {
                      scratch.fail_set.push_back(scratch.input.pids[p]);
                    }
                    const std::size_t first = out->facets.size();
                    sync_failset_facets(scratch.input, scratch.fail_set, {},
                                        views, arena, scratch, &out->facets);
                    out->add_group(static_cast<int>(pick.size()), first);
                  });
}

// ---------------------------------------------------------- semi-sync ----

/// One view from [F]: bit i of `delivered_last` says whether the choice for
/// the i-th failing process is μ_j = F(P_j) (set) or F(P_j) - 1 (clear).
inline StateId semisync_make_view(const SortedFacet& input,
                                  const FailurePattern& pattern, int mu,
                                  ProcessId receiver,
                                  std::uint64_t delivered_last, int round,
                                  ViewRegistry& views,
                                  std::vector<HeardEntry>& heard) {
  heard.clear();
  for (ProcessId sender : input.pids) {
    if (std::binary_search(pattern.fail_set.begin(), pattern.fail_set.end(),
                           sender)) {
      continue;
    }
    heard.push_back({sender, input.state_of(sender), mu});
  }
  for (std::size_t i = 0; i < pattern.fail_set.size(); ++i) {
    const int micro = (delivered_last >> i) & 1U ? pattern.fail_micro[i]
                                                 : pattern.fail_micro[i] - 1;
    if (micro >= 1) {
      heard.push_back(
          {pattern.fail_set[i], input.state_of(pattern.fail_set[i]), micro});
    }
  }
  return views.intern_round(receiver, round, heard);
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
                                    ExpandScratch& scratch,
                                    topology::FacetRows* out) {
  std::vector<ProcessId>& survivors = scratch.survivors;
  survivors.clear();
  for (ProcessId p : input.pids) {
    if (!std::binary_search(pattern.fail_set.begin(), pattern.fail_set.end(),
                            p)) {
      survivors.push_back(p);
    }
  }
  if (survivors.empty()) return;

  const int round = views.round(input.state_of(survivors[0])) + 1;

  // The delivered-last choices as bit masks, in odometer order (the last
  // failing process varies fastest, a pinned one stays delivered).
  const std::size_t k = pattern.fail_set.size();
  if (k >= 64) {
    throw std::length_error("semisync_pattern_facets: 64+ failing processes");
  }
  const auto pinned = [&](std::size_t i) {
    return static_cast<int>(i) == force_delivered_index;
  };
  std::vector<std::uint64_t>& masks = scratch.masks;
  std::vector<std::size_t>& odometer = scratch.odometer;
  masks.clear();
  odometer.assign(k, 0);
  for (bool more = true; more;) {
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < k; ++i) {
      if (pinned(i) || odometer[i] == 1) mask |= std::uint64_t{1} << i;
    }
    masks.push_back(mask);
    more = false;
    for (std::size_t position = k; position-- > 0;) {
      if (++odometer[position] < (pinned(position) ? 1u : 2u)) {
        more = true;
        break;
      }
      odometer[position] = 0;
    }
  }

  ChoiceTable& choices = scratch.choices;
  choices.clear();
  for (ProcessId receiver : survivors) {
    for (const std::uint64_t mask : masks) {
      choices.states.push_back(semisync_make_view(
          input, pattern, mu, receiver, mask, round, views, scratch.heard));
    }
    choices.close_position();
  }
  product_facets(survivors, choices, arena, scratch, out);
}

/// Lemma 19 union: one group per (K, F) pair in the paper's order.
inline void expand_semisync_round(std::span<const VertexId> input,
                                  const SemiSyncParams& params,
                                  ViewRegistry& views,
                                  topology::VertexArena& arena,
                                  ExpandScratch& scratch, RoundOutput* out) {
  decode_sorted(input, arena, scratch.input);
  const int cap = std::min(params.failures_per_round, params.total_failures);
  for (const FailurePattern& pattern : enumerate_failure_patterns(
           scratch.input.pids, cap, params.micro_rounds)) {
    const std::size_t first = out->facets.size();
    semisync_pattern_facets(scratch.input, pattern, params.micro_rounds, -1,
                            views, arena, scratch, &out->facets);
    out->add_group(static_cast<int>(pattern.fail_set.size()), first);
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
inline void expand_iis_round(std::span<const VertexId> input,
                             ViewRegistry& views, topology::VertexArena& arena,
                             ExpandScratch& scratch, RoundOutput* out) {
  std::vector<ProcessId>& pids = scratch.input.pids;
  std::vector<StateId>& states = scratch.input.states;
  pids.clear();
  states.clear();
  for (const VertexId v : input) {
    pids.push_back(arena.pid(v));
    states.push_back(arena.state(v));
  }
  if (pids.empty()) return;
  const int round = views.round(states[0]) + 1;

  std::vector<int>& indices = scratch.indices;
  indices.resize(pids.size());
  std::iota(indices.begin(), indices.end(), 0);
  std::vector<HeardEntry>& seen_so_far = scratch.heard;
  const std::size_t first = out->facets.size();
  for_each_ordered_partition(
      indices, [&](const std::vector<std::vector<int>>& blocks) {
        // Process p in block B_j snapshots blocks B_1..B_j. Interning
        // leaves the output's rows alone, so the row stays writable.
        const std::span<VertexId> row = out->facets.append_row(pids.size());
        std::size_t filled = 0;
        seen_so_far.clear();
        for (const std::vector<int>& block : blocks) {
          for (int i : block) {
            seen_so_far.push_back({pids[static_cast<std::size_t>(i)],
                                   states[static_cast<std::size_t>(i)],
                                   kNoMicro});
          }
          for (int i : block) {
            const ProcessId pid = pids[static_cast<std::size_t>(i)];
            const StateId state = views.intern_round(pid, round, seen_so_far);
            row[filled++] = arena.intern(pid, state);
          }
        }
        sort_row(row);
      });
  out->add_group(0, first);
}

}  // namespace psph::core::detail
