#pragma once

// The r-round semi-synchronous protocol complex M^r(S) of Section 8.
//
// The model has process step times in [c1, c2] and message delay at most d.
// The paper's round structure: each round lasts exactly time d, processes
// step in lockstep every c1, giving μ = ⌈d/c1⌉ microrounds per round, and
// all messages sent in a round are delivered at its end. A surviving
// process's view of a failure pattern F (mapping each failing process P_j
// to the microround F(P_j) ∈ [1, μ] in which it fails) records, per
// process, the microround of the last message received:
//   μ_j = μ for survivors;  μ_j ∈ {F(P_j) - 1, F(P_j)} for P_j ∈ K.
// By Lemma 19,  M¹_{K,F}(S) ≅ ψ(S\K; [F]): every survivor independently
// draws a view from [F]. The one-round complex is the union over all (K, F)
// pairs, lexicographically ordered (by K, then by F in reverse-lex order);
// Lemma 20 identifies the successive intersections as unions of the
// restricted pseudospheres ψ(S\K_t; [F_t ↑ j]).
//
// Microround encoding in views: HeardEntry.last_micro = μ_j for every heard
// process; a failing process with μ_j = 0 contributes no entry at all (no
// message was ever received from it).

#include <vector>

#include "core/view.h"
#include "topology/arena.h"
#include "topology/complex.h"
#include "topology/simplex.h"

namespace psph::core {

struct SemiSyncParams {
  int num_processes = 3;       // n + 1
  int total_failures = 1;      // f — budget across rounds
  int failures_per_round = 1;  // k — cap per round
  int micro_rounds = 2;        // μ = ⌈d/c1⌉
  int rounds = 1;              // r
};

/// A failure pattern F for a failing set K: fail_micro[i] ∈ [1, μ] is the
/// microround in which fail_set[i] crashes. fail_set is kept sorted.
struct FailurePattern {
  std::vector<ProcessId> fail_set;
  std::vector<int> fail_micro;
};

/// All (K, F) pairs for the given participants, |K| ≤ max_failures,
/// microrounds in [1, μ], in the paper's order: K lexicographic (by size
/// then lex), then F in reverse lexicographic order (all-fail-at-μ first).
std::vector<FailurePattern> enumerate_failure_patterns(
    const std::vector<ProcessId>& participants, int max_failures, int mu);

/// M¹_{K,F}(S) = ψ(S\K; [F]) — Lemma 19.
topology::SimplicialComplex semisync_round_complex_for_pattern(
    const topology::Simplex& input, const FailurePattern& pattern, int mu,
    ViewRegistry& views, topology::VertexArena& arena);

/// Lemma 20's right-hand side: ∪_{j ∈ K} ψ(S\K; [F ↑ j]), where [F ↑ j]
/// fixes μ_j = F(P_j) (the last message from P_j *was* delivered).
topology::SimplicialComplex semisync_lemma20_rhs(
    const topology::Simplex& input, const FailurePattern& pattern, int mu,
    ViewRegistry& views, topology::VertexArena& arena);

/// M¹(S): union over all (K, F).
topology::SimplicialComplex semisync_round_complex(
    const topology::Simplex& input, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena);

/// M^r(S): the inductive r-round construction (fresh (K, F) per round,
/// budget decreasing). Runs the level loop of construction.h; output equals
/// the depth-first recursion the tests keep as a reference (tests/oracle).
topology::SimplicialComplex semisync_protocol_complex(
    const topology::Simplex& input, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena);

/// Union of M^r over every facet of an input complex.
topology::SimplicialComplex semisync_protocol_complex_over(
    const topology::SimplicialComplex& inputs, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena);

/// |[F]| = 2^|K| distinct views per survivor.
std::uint64_t view_count(const FailurePattern& pattern);

}  // namespace psph::core
