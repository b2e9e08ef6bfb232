#include "solve/csp.h"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>

#include "util/cancel.h"

namespace psph::solve {

CspProblem compile_csp(const topology::SimplicialComplex& protocol, int k,
                       const core::ViewRegistry& views,
                       const topology::VertexArena& arena) {
  CspProblem problem;
  problem.k = k;

  // The facet pass: each facet's members as raw vertex ids, every vertex
  // marked in a table over the arena's dense ids. Cooperative cancellation
  // (util/cancel.h), every 4096 facets.
  std::vector<int> dense_of(arena.size(), -1);
  problem.facets.offsets.reserve(protocol.facet_count() + 1);
  problem.facets.members.reserve(
      protocol.facet_count() *
      static_cast<std::size_t>(std::max(protocol.dimension() + 1, 0)));
  std::vector<int> row;
  protocol.for_each_facet([&](std::span<const topology::VertexId> facet) {
    if ((problem.facets.size() & 4095) == 0) util::poll_deadline();
    row.clear();
    for (topology::VertexId v : facet) {
      dense_of.at(v) = 0;
      row.push_back(static_cast<int>(v));
    }
    problem.facets.push_back(row);
  });

  // Dense vertex indices in ascending id order, then members remapped.
  for (std::size_t id = 0; id < dense_of.size(); ++id) {
    if (dense_of[id] < 0) continue;
    dense_of[id] = static_cast<int>(problem.vertex_ids.size());
    problem.vertex_ids.push_back(static_cast<topology::VertexId>(id));
  }
  for (int& member : problem.facets.members) {
    member = dense_of[static_cast<std::size_t>(member)];
  }

  // Validity: a vertex may decide exactly the inputs its view has heard,
  // directly or through the views it heard (core::allowed_values). The
  // sets go in as masks over the inputs in the order first met, memoized
  // per view in a table over the registry's dense ids, and are renumbered
  // to ascending values once every input is known.
  std::vector<std::int64_t> met;
  std::vector<std::uint64_t> seen_of(views.size(), 0);  // 0: not yet known
  const auto seen = [&](const auto& self, core::StateId id) -> std::uint64_t {
    std::uint64_t& memo = seen_of.at(static_cast<std::size_t>(id));
    if (memo != 0) return memo;
    const core::View view = views.view(id);
    if (view.round == 0) {
      auto it = std::find(met.begin(), met.end(), view.input);
      if (it == met.end()) {
        if (met.size() == static_cast<std::size_t>(kMaxValues)) {
          throw std::invalid_argument(
              "compile_csp: more than 64 distinct decision values");
        }
        it = met.insert(met.end(), view.input);
      }
      return memo = std::uint64_t{1} << (it - met.begin());
    }
    std::uint64_t mask = 0;
    for (const core::HeardEntry& entry : view.heard) {
      mask |= self(self, entry.state);
    }
    return memo = mask;
  };
  problem.domains.reserve(problem.vertex_ids.size());
  for (topology::VertexId v : problem.vertex_ids) {
    problem.domains.push_back(seen(seen, arena.state(v)));
  }
  problem.value_of = met;
  std::sort(problem.value_of.begin(), problem.value_of.end());
  problem.num_values = static_cast<int>(problem.value_of.size());
  std::vector<int> dense_value(met.size());
  for (std::size_t i = 0; i < met.size(); ++i) {
    dense_value[i] = static_cast<int>(
        std::lower_bound(problem.value_of.begin(), problem.value_of.end(),
                         met[i]) -
        problem.value_of.begin());
  }
  for (std::uint64_t& domain : problem.domains) {
    std::uint64_t dense = 0;
    for (std::uint64_t bits = domain; bits != 0; bits &= bits - 1) {
      dense |= std::uint64_t{1} << dense_value[static_cast<std::size_t>(
                   std::countr_zero(bits))];
    }
    domain = dense;
  }

  // Vertex -> facets by a counting pass, so each row ascends.
  std::vector<int>& offsets = problem.facets_of.offsets;
  offsets.assign(problem.vertex_ids.size() + 1, 0);
  for (const int v : problem.facets.members) {
    ++offsets[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t v = 0; v < problem.vertex_ids.size(); ++v) {
    offsets[v + 1] += offsets[v];
  }
  std::vector<int> cursor(offsets.begin(), offsets.end() - 1);
  problem.facets_of.members.resize(problem.facets.members.size());
  for (std::size_t f = 0; f < problem.facets.size(); ++f) {
    for (const int v : problem.facets[f]) {
      problem.facets_of.members[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(v)]++)] = static_cast<int>(f);
    }
  }
  return problem;
}

WitnessCheck verify_witness(const CspProblem& problem,
                            const std::vector<int>& assignment) {
  WitnessCheck check;
  if (assignment.size() != problem.vertex_ids.size()) {
    check.ok = false;
    check.reason = "assignment size mismatch";
    return check;
  }
  for (std::size_t v = 0; v < assignment.size(); ++v) {
    const int value = assignment[v];
    if (value < 0 || value >= problem.num_values ||
        (problem.domains[v] & (std::uint64_t{1} << value)) == 0) {
      check.ok = false;
      check.reason = "validity violated at vertex index " + std::to_string(v);
      return check;
    }
  }
  for (std::size_t f = 0; f < problem.facets.size(); ++f) {
    std::uint64_t seen = 0;
    for (int v : problem.facets[f]) {
      seen |= std::uint64_t{1} << assignment[static_cast<std::size_t>(v)];
    }
    if (std::popcount(seen) > problem.k) {
      check.ok = false;
      check.reason = "agreement violated at facet " + std::to_string(f);
      return check;
    }
  }
  return check;
}

}  // namespace psph::solve
