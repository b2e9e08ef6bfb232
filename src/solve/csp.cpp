#include "solve/csp.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_map>

#include "core/agreement.h"

namespace psph::solve {

CspProblem compile_csp(const topology::SimplicialComplex& protocol, int k,
                       const core::ViewRegistry& views,
                       const topology::VertexArena& arena) {
  CspProblem problem;
  problem.k = k;
  problem.vertex_ids = protocol.vertex_ids();

  std::unordered_map<topology::VertexId, int> vertex_index;
  vertex_index.reserve(problem.vertex_ids.size());
  for (std::size_t i = 0; i < problem.vertex_ids.size(); ++i) {
    vertex_index.emplace(problem.vertex_ids[i], static_cast<int>(i));
  }

  // Dense value table: union of all validity domains, sorted.
  std::vector<std::vector<std::int64_t>> raw_domains;
  raw_domains.reserve(problem.vertex_ids.size());
  std::vector<std::int64_t> all_values;
  for (topology::VertexId v : problem.vertex_ids) {
    raw_domains.push_back(core::allowed_values(v, views, arena));
    all_values.insert(all_values.end(), raw_domains.back().begin(),
                      raw_domains.back().end());
  }
  std::sort(all_values.begin(), all_values.end());
  all_values.erase(std::unique(all_values.begin(), all_values.end()),
                   all_values.end());
  if (all_values.size() > static_cast<std::size_t>(kMaxValues)) {
    throw std::invalid_argument(
        "compile_csp: more than 64 distinct decision values");
  }
  problem.value_of = all_values;
  problem.num_values = static_cast<int>(all_values.size());
  std::unordered_map<std::int64_t, int> value_index;
  for (int i = 0; i < problem.num_values; ++i) {
    value_index.emplace(problem.value_of[static_cast<std::size_t>(i)], i);
  }

  problem.domains.reserve(raw_domains.size());
  for (const std::vector<std::int64_t>& domain : raw_domains) {
    std::uint64_t mask = 0;
    for (std::int64_t value : domain) {
      mask |= std::uint64_t{1} << value_index.at(value);
    }
    problem.domains.push_back(mask);
  }

  problem.facets_of.assign(problem.vertex_ids.size(), {});
  protocol.for_each_facet([&](const topology::Simplex& facet) {
    std::vector<int> members;
    members.reserve(facet.size());
    for (topology::VertexId v : facet.vertices()) {
      members.push_back(vertex_index.at(v));
    }
    const int facet_id = static_cast<int>(problem.facets.size());
    for (int v : members) {
      problem.facets_of[static_cast<std::size_t>(v)].push_back(facet_id);
    }
    problem.facets.push_back(std::move(members));
  });

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
