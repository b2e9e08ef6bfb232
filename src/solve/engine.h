#pragma once

// The solvability engine (DESIGN §5.17): propagating, learning decision
// search over a compiled CSP (csp.h).
//
// Two stages, the second subsuming the first and each independently
// selectable (the differential suite toggles them one at a time):
//
//   kPropagate — arc consistency over the carrier/validity structure:
//     per-vertex domain masks pruned through saturated facets with
//     incremental per-facet distinct-value counters, unit assignments,
//     wipeout detection, and failed-literal probing at the root. It is the
//     no-learning baseline the ablation and the nogood replay test use.
//
//   kLearn (the default, and the only production stage) — adds conflict-
//     driven learning: every dead branch is analysed back through its
//     propagation reasons to the minimal implicated set of *decisions*
//     (the saturated-facet conflict set), which becomes a nogood. Nogoods
//     are orbit-canonicalized through the instance's input symmetry group
//     (core/orbit, lowered to dense permutations at compile time) and
//     instantiated across their symmetry class, so one learned conflict
//     prunes every symmetric re-entry. Nogoods propagate through a
//     two-watch scheme like SAT clauses.
//
// Both stages branch on the smallest domain (ties to the vertex in most
// facets, then the lowest index) and try values in ascending order, so a
// run is a deterministic function of the problem and the options.
//
// Witness canonicalization: when an instance is solvable and
// canonical_witness is on (default), the reported witness is the
// lexicographically least decision map (vertex index order, ascending
// values), computed by a deterministic completion search seeded from the
// first witness found. This makes the full result — verdict AND witness —
// bit-identical across stages; only the stats reflect the actual run.
//
// Cooperative deadlines: the search loop and the propagation loop both
// poll util::poll_deadline(), so a psph_serve deadline fires mid-
// propagation, not just every few thousand nodes.

#include <cstdint>
#include <vector>

#include "solve/csp.h"

namespace psph::solve {

enum class EngineStage { kPropagate, kLearn };

const char* stage_name(EngineStage stage);

struct EngineOptions {
  EngineStage stage = EngineStage::kLearn;
  /// Abort the search after this many nodes (0 = unlimited). An aborted
  /// search reports exhausted = false.
  std::uint64_t node_limit = 0;
  /// Failed-literal probing at the root before branching.
  bool root_probing = true;
  /// Instantiate each learned nogood across its orbit under the compiled
  /// symmetry group (capped per nogood by max_symmetric_images).
  bool symmetric_nogoods = true;
  std::size_t max_nogoods = 200'000;
  std::size_t max_symmetric_images = 256;
  /// Canonicalize the witness to the lex-min decision map (see above).
  bool canonical_witness = true;
  /// Return the learned nogoods in SolveOutcome (tests; off in production
  /// paths to keep results lean).
  bool collect_nogoods = false;
};

/// One (vertex, value) assignment literal in dense indices.
struct Lit {
  int vertex = 0;
  int value = 0;
  bool operator==(const Lit&) const = default;
  bool operator<(const Lit& o) const {
    return vertex != o.vertex ? vertex < o.vertex : value < o.value;
  }
};

struct EngineStats {
  std::uint64_t nodes = 0;
  std::uint64_t propagations = 0;
  std::uint64_t learned_nogoods = 0;
  std::uint64_t nogood_hits = 0;
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
};

struct SolveOutcome {
  /// A decision map exists. Meaningful only when exhausted.
  bool solvable = false;
  /// The search ran to a definitive verdict (false only under node_limit).
  bool exhausted = false;
  /// Dense value index per vertex when solvable (lex-min under
  /// canonical_witness, else the first witness found).
  std::vector<int> witness;
  EngineStats stats;
  /// Learned nogoods (decision conjunctions proven contradictory), present
  /// when collect_nogoods is set.
  std::vector<std::vector<Lit>> learned;
};

/// Decides the compiled instance. Throws util::DeadlineExceeded if the
/// calling thread's cooperative deadline expires mid-search.
SolveOutcome solve(const CspProblem& problem, const EngineOptions& options = {});

/// Decides the instance under forced assignments (each assumption is
/// applied as a decision before the search; conflicting or out-of-domain
/// assumptions yield unsolvable). The property tests use this to replay
/// learned nogoods against the oracle.
SolveOutcome solve_under(const CspProblem& problem,
                         const std::vector<Lit>& assumptions,
                         const EngineOptions& options = {});

}  // namespace psph::solve
