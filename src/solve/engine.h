#pragma once

// The solvability engine (DESIGN §5.17): one propagating decision search
// over a compiled CSP (csp.h).
//
// Propagation is arc consistency over the carrier/validity structure:
// per-vertex domain masks pruned through saturated facets with incremental
// per-facet distinct-value counters (one flat facets x values array),
// unit assignments and wipeout detection. Before branching, failed-literal
// probing at the root prunes every (vertex, value) whose propagation dies,
// to fixpoint. Probing is load-bearing: it refutes IIS (3, k=2, r=1) in
// about 0.1 ms, and the search without it runs past 30 s on that instance.
//
// Probing skips implied literals. Each sweep probes in vertex order, then
// value order. When a probe of (v, a) propagates without conflict, every
// literal it assigned is marked implied; a marked literal is not probed,
// and all marks clear at the start of a sweep and whenever a failed probe
// prunes a value. This is exact because propagation is monotone: a facet
// that reaches k distinct values under fewer assignments reaches k or more
// under more. So the closure of a literal (u, b) in the closure of (v, a)
// lies inside the closure of (v, a), taken from the same root state, and
// cannot fail. A skipped probe is one that would have succeeded and pruned
// nothing: the failures, the root fixpoint and the search after it are the
// same as when every literal is probed. EngineStats::probes counts the
// probes actually run.
//
// The search branches on the smallest domain (ties to the vertex in most
// facets, then the lowest index) and tries values in ascending order, so a
// run is a deterministic function of the problem and the node limit. The
// branching vertex comes without a scan: the vertices are ranked once by
// (facet count descending, index ascending), and for each domain size a
// bitset over that ranking holds the unassigned vertices of that size.
// Assignment, shrinking and undo keep the bitsets current; the pick is the
// lowest set bit of the smallest nonempty size.
//
// Witness canonicalization: when an instance is solvable, the reported
// witness is the lexicographically least decision map (vertex index order,
// ascending values), computed by a deterministic completion search seeded
// from the first witness found. The full result — verdict AND witness — is
// therefore a function of the instance alone; only the stats reflect the
// search order.
//
// Cooperative deadlines: the search loop and the propagation loop both
// poll util::poll_deadline(), so a psph_serve deadline fires mid-
// propagation, not just every few thousand nodes.

#include <cstdint>
#include <vector>

#include "solve/csp.h"

namespace psph::solve {

struct EngineOptions {
  /// Abort the search after this many nodes (0 = unlimited). An aborted
  /// search reports exhausted = false.
  std::uint64_t node_limit = 0;
};

struct EngineStats {
  std::uint64_t nodes = 0;
  std::uint64_t propagations = 0;
  /// Retired: the engine no longer learns, so this always reads 0. Kept
  /// only because the ledger still reports it.
  std::uint64_t learned_nogoods = 0;
  /// Root probes run; implied literals are skipped and not counted.
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
};

struct SolveOutcome {
  /// A decision map exists. Meaningful only when exhausted.
  bool solvable = false;
  /// The search ran to a definitive verdict (false only under node_limit).
  bool exhausted = false;
  /// Dense value index per vertex when solvable: the lex-min decision map.
  std::vector<int> witness;
  EngineStats stats;
};

/// Decides the compiled instance, whose domains hold only bits below
/// num_values. Throws util::DeadlineExceeded if the calling thread's
/// cooperative deadline expires mid-search.
SolveOutcome solve(const CspProblem& problem, const EngineOptions& options = {});

}  // namespace psph::solve
