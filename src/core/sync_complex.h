#pragma once

// The r-round synchronous protocol complex S^r(S) of Section 7.
//
// One round with failing set K ⊆ ids(S): every surviving process hears from
// every surviving process (including itself) and from an independently
// chosen subset of K (a process that crashes mid-round delivers to an
// arbitrary subset of receivers). By Lemma 14,
//   S¹_K(S) ≅ ψ(S\K; 2^K),
// and the one-round complex S¹(S) with at most k failures is the union of
// these pseudospheres over |K| ≤ k (Figure 3 is the 3-process instance).
//
// The r-round complex recursively fails a fresh K_i per round (at most k per
// round, within the remaining total budget f) and recurses on each facet of
// the K_i round with budget f - |K_i|.

#include <vector>

#include "core/view.h"
#include "topology/arena.h"
#include "topology/complex.h"
#include "topology/simplex.h"

namespace psph::core {

struct SyncParams {
  int num_processes = 3;      // n + 1
  int total_failures = 1;     // f — budget across all rounds
  int failures_per_round = 1; // k — cap per round
  int rounds = 1;             // r
};

/// S¹_K(S): the pseudosphere of one-round executions in which exactly the
/// processes in `fail_set` fail (Lemma 14). Empty if K covers all
/// participants.
topology::SimplicialComplex sync_round_complex_for_failset(
    const topology::Simplex& input, const std::vector<ProcessId>& fail_set,
    ViewRegistry& views, topology::VertexArena& arena);

/// S¹(S): union over all K with |K| ≤ min(failures_per_round,
/// total_failures).
topology::SimplicialComplex sync_round_complex(const topology::Simplex& input,
                                               const SyncParams& params,
                                               ViewRegistry& views,
                                               topology::VertexArena& arena);

/// S^r(S): the inductive r-round construction. Runs the level loop of
/// construction.h; output equals the depth-first recursion the tests keep
/// as a reference (tests/oracle).
topology::SimplicialComplex sync_protocol_complex(
    const topology::Simplex& input, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena);

/// Union of S^r over every facet of an input complex.
topology::SimplicialComplex sync_protocol_complex_over(
    const topology::SimplicialComplex& inputs, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena);

/// Lemma 15's right-hand side: the intersection of S¹_{K_t}(S) with the
/// union of all lexicographically earlier S¹_{K_i}(S) equals
///   ∪_{P ∈ K_t} ψ(S\K_t; 2^{K_t - {P}}).
/// This helper builds that union so tests/benches can compare it with the
/// directly computed intersection.
topology::SimplicialComplex sync_lemma15_rhs(
    const topology::Simplex& input, const std::vector<ProcessId>& fail_set,
    ViewRegistry& views, topology::VertexArena& arena);

/// All failure sets K ⊆ participants with |K| ≤ max_size, in the paper's
/// lexicographic order (by size, then lexicographically).
std::vector<std::vector<ProcessId>> lexicographic_fail_sets(
    const std::vector<ProcessId>& participants, int max_size);

}  // namespace psph::core
