#pragma once

// The test-only decision oracle: the seed backtracker, kept as the
// reference the solvability engine (src/solve) is checked against. Only
// test binaries link it; shipped code decides through solve::decide.
//
// Exhaustive search for a k-set-agreement decision map on an explicitly
// constructed protocol complex. For a *finite* complex the statement "no
// decision map exists" is decidable by search: a completed search with no
// solution proves impossibility for that instance, and a witness
// assignment proves possibility. Most-constrained vertex first, with
// domains filtered through saturated facets; nothing is compiled or
// learned, so the oracle shares no code with the engine beyond the
// complex and the validity rule (core/agreement).

#include <cstdint>
#include <unordered_map>

#include "core/view.h"
#include "solve/decide.h"
#include "store/serialize.h"
#include "topology/arena.h"
#include "topology/complex.h"

namespace psph::oracle {

struct SearchOptions {
  /// Abort after exploring this many search nodes (0 = unlimited).
  std::uint64_t node_limit = 200'000'000;
  /// Most-constrained-vertex ordering with saturated-facet domain
  /// filtering. Disable to measure the heuristic's effect (agreement_test's
  /// SearchAblation does); plain fixed-order search explores far more nodes.
  bool use_mrv = true;
};

struct SearchResult {
  /// True if a valid decision map was found.
  bool decidable = false;
  /// True if the search ran to completion (decidable or proven impossible);
  /// false only when the node limit aborted it, in which case `decidable`
  /// is meaningless.
  bool exhausted = false;
  /// Witness assignment when decidable.
  std::unordered_map<topology::VertexId, std::int64_t> assignment;
  std::uint64_t nodes_explored = 0;
};

/// Searches for a decision map for k-set agreement on `protocol` (validity
/// from full-information views; agreement on every facet).
SearchResult search_decision_map(const topology::SimplicialComplex& protocol,
                                 int k, const core::ViewRegistry& views,
                                 const topology::VertexArena& arena,
                                 const SearchOptions& options = {});

/// The backtracker on the protocol complex solve::decide would build for
/// `request`. Exhaustive up to `options.node_limit`; the
/// witness is the backtracker's first find (NOT canonical — compare
/// verdicts and validity, not bytes).
store::DecisionRecord decide_seq(const solve::DecideRequest& request,
                                 const SearchOptions& options = {});

}  // namespace psph::oracle
