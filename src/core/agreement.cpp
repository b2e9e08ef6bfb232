#include "core/agreement.h"

#include <algorithm>
#include <set>
#include <span>
#include <sstream>

namespace psph::core {

DecisionRule min_seen_rule(const ViewRegistry& views) {
  return [&views](StateId state) { return views.min_input_seen(state); };
}

std::vector<std::int64_t> allowed_values(topology::VertexId vertex,
                                         const ViewRegistry& views,
                                         const topology::VertexArena& arena) {
  const std::span<const std::int64_t> seen =
      views.inputs_seen(arena.state(vertex));
  return std::vector<std::int64_t>(seen.begin(), seen.end());
}

RuleCheckResult check_decision_rule(
    const topology::SimplicialComplex& protocol, int k,
    const DecisionRule& rule, const ViewRegistry& views,
    const topology::VertexArena& arena) {
  RuleCheckResult result;

  // Validity per vertex.
  for (topology::VertexId v : protocol.vertex_ids()) {
    ++result.vertices_checked;
    const std::int64_t decision = rule(arena.state(v));
    // Read after the rule, which may fill the memo the span points into.
    const std::span<const std::int64_t> seen =
        views.inputs_seen(arena.state(v));
    if (!std::binary_search(seen.begin(), seen.end(), decision)) {
      std::ostringstream why;
      why << "vertex P" << arena.pid(v) << " decides " << decision
          << " which it never saw";
      result.ok = false;
      result.violation = RuleViolation{RuleViolation::Kind::validity,
                                       topology::Simplex{v}, why.str()};
      return result;
    }
  }

  // Agreement per facet.
  bool ok = true;
  std::optional<RuleViolation> violation;
  std::size_t facets = 0;
  protocol.for_each_facet([&](std::span<const topology::VertexId> facet) {
    if (!ok) return;
    ++facets;
    std::set<std::int64_t> decisions;
    for (topology::VertexId v : facet) {
      decisions.insert(rule(arena.state(v)));
    }
    if (static_cast<int>(decisions.size()) > k) {
      std::ostringstream why;
      why << "facet carries " << decisions.size() << " distinct decisions (> "
          << k << ")";
      ok = false;
      violation = RuleViolation{RuleViolation::Kind::agreement,
                                topology::Simplex(facet), why.str()};
    }
  });
  result.facets_checked = facets;
  if (!ok) {
    result.ok = false;
    result.violation = std::move(violation);
  }
  return result;
}

}  // namespace psph::core
