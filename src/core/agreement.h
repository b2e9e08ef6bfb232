#pragma once

// k-set agreement as a predicate over protocol complexes (Section 4).
//
// A protocol solves k-set agreement when its decision map δ carries each
// protocol-complex vertex to a value such that
//   (validity)    δ(v) is some participating process's input — with full
//                 information, exactly: a value visible in v's view;
//   (agreement)   no simplex of the protocol complex receives more than k
//                 distinct values.
// This header checks concrete rules (e.g. FloodSet's "decide the minimum
// value seen") against explicitly constructed complexes; solve::decide
// (src/solve) decides whether *any* rule exists.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/view.h"
#include "topology/arena.h"
#include "topology/complex.h"

namespace psph::core {

/// A decision rule maps a local state to a decision value.
using DecisionRule = std::function<std::int64_t(StateId)>;

/// The canonical full-information rule: decide the minimum input seen.
DecisionRule min_seen_rule(const ViewRegistry& views);

struct RuleViolation {
  enum class Kind { validity, agreement } kind;
  topology::Simplex facet;   // offending simplex (vertex for validity)
  std::string description;
};

struct RuleCheckResult {
  bool ok = true;
  std::optional<RuleViolation> violation;
  std::size_t facets_checked = 0;
  std::size_t vertices_checked = 0;
};

/// Checks `rule` on every vertex (validity) and facet (≤ k distinct values)
/// of the protocol complex. Checking facets suffices for agreement: a
/// violating simplex is a face of a violating facet.
RuleCheckResult check_decision_rule(const topology::SimplicialComplex& protocol,
                                    int k, const DecisionRule& rule,
                                    const ViewRegistry& views,
                                    const topology::VertexArena& arena);

/// Allowed decision values for a vertex under validity = inputs visible in
/// its view, materialized as a sorted vector.
std::vector<std::int64_t> allowed_values(topology::VertexId vertex,
                                         const ViewRegistry& views,
                                         const topology::VertexArena& arena);

}  // namespace psph::core
