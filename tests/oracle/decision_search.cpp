#include "oracle/decision_search.h"

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "core/agreement.h"

namespace psph::oracle {

namespace {

struct Problem {
  int k = 1;
  std::vector<topology::VertexId> vertices;           // dense index -> id
  std::unordered_map<topology::VertexId, int> index;  // id -> dense index
  std::vector<std::vector<std::int64_t>> domain;      // allowed values
  std::vector<std::vector<int>> facets;               // facet -> vertex idxs
  std::vector<std::vector<int>> facets_of;            // vertex -> facet idxs
};

struct State {
  std::vector<std::int64_t> value;  // assigned value per vertex
  std::vector<bool> assigned;
  std::uint64_t nodes = 0;
  std::uint64_t limit = 0;
  bool aborted = false;
  bool use_mrv = true;
  std::size_t next_fixed = 0;  // cursor for the fixed-order ablation mode
};

// Effective domain of vertex `v`: its validity domain filtered through every
// facet that already carries k distinct values (new values are then barred).
std::vector<std::int64_t> effective_domain(const Problem& problem,
                                           const State& state, int v) {
  std::vector<std::int64_t> domain = problem.domain[static_cast<std::size_t>(v)];
  for (int facet : problem.facets_of[static_cast<std::size_t>(v)]) {
    std::set<std::int64_t> present;
    int unassigned = 0;
    for (int u : problem.facets[static_cast<std::size_t>(facet)]) {
      if (state.assigned[static_cast<std::size_t>(u)]) {
        present.insert(state.value[static_cast<std::size_t>(u)]);
      } else {
        ++unassigned;
      }
    }
    if (static_cast<int>(present.size()) >= problem.k) {
      // Saturated: v must reuse one of the present values.
      std::vector<std::int64_t> filtered;
      for (std::int64_t value : domain) {
        if (present.count(value) != 0) filtered.push_back(value);
      }
      domain = std::move(filtered);
      if (domain.empty()) break;
    }
    (void)unassigned;
  }
  return domain;
}

// Picks the unassigned vertex with the smallest effective domain (MRV),
// breaking ties toward vertices in more facets. Returns -1 if all assigned.
int pick_vertex(const Problem& problem, const State& state,
                std::vector<std::int64_t>* domain_out) {
  if (!state.use_mrv) {
    // Ablation mode: first unassigned vertex in index order, raw validity
    // domain (no saturated-facet filtering).
    for (std::size_t v = 0; v < problem.vertices.size(); ++v) {
      if (!state.assigned[v]) {
        *domain_out = problem.domain[v];
        return static_cast<int>(v);
      }
    }
    return -1;
  }
  int best = -1;
  std::size_t best_size = 0;
  std::vector<std::int64_t> best_domain;
  for (std::size_t v = 0; v < problem.vertices.size(); ++v) {
    if (state.assigned[v]) continue;
    std::vector<std::int64_t> domain =
        effective_domain(problem, state, static_cast<int>(v));
    if (domain.empty()) {
      *domain_out = {};
      return static_cast<int>(v);  // dead end, fail fast
    }
    const bool better =
        best == -1 || domain.size() < best_size ||
        (domain.size() == best_size &&
         problem.facets_of[v].size() >
             problem.facets_of[static_cast<std::size_t>(best)].size());
    if (better) {
      best = static_cast<int>(v);
      best_size = domain.size();
      best_domain = std::move(domain);
      if (best_size == 1) break;  // cannot do better
    }
  }
  *domain_out = std::move(best_domain);
  return best;
}

bool backtrack(const Problem& problem, State& state) {
  if (state.limit != 0 && state.nodes >= state.limit) {
    state.aborted = true;
    return false;
  }
  ++state.nodes;

  std::vector<std::int64_t> domain;
  const int v = pick_vertex(problem, state, &domain);
  if (v == -1) return true;  // fully assigned
  if (domain.empty()) return false;

  for (std::int64_t value : domain) {
    state.assigned[static_cast<std::size_t>(v)] = true;
    state.value[static_cast<std::size_t>(v)] = value;
    // Local consistency: every facet of v must still be satisfiable —
    // at most k distinct values among its assigned vertices.
    bool feasible = true;
    for (int facet : problem.facets_of[static_cast<std::size_t>(v)]) {
      std::set<std::int64_t> present;
      for (int u : problem.facets[static_cast<std::size_t>(facet)]) {
        if (state.assigned[static_cast<std::size_t>(u)]) {
          present.insert(state.value[static_cast<std::size_t>(u)]);
        }
      }
      if (static_cast<int>(present.size()) > problem.k) {
        feasible = false;
        break;
      }
    }
    if (feasible && backtrack(problem, state)) return true;
    state.assigned[static_cast<std::size_t>(v)] = false;
    if (state.aborted) return false;
  }
  return false;
}

}  // namespace

SearchResult search_decision_map(const topology::SimplicialComplex& protocol,
                                 int k, const core::ViewRegistry& views,
                                 const topology::VertexArena& arena,
                                 const SearchOptions& options) {
  Problem problem;
  problem.k = k;
  problem.vertices = protocol.vertex_ids();
  for (std::size_t i = 0; i < problem.vertices.size(); ++i) {
    problem.index.emplace(problem.vertices[i], static_cast<int>(i));
  }
  problem.domain.reserve(problem.vertices.size());
  for (topology::VertexId v : problem.vertices) {
    problem.domain.push_back(core::allowed_values(v, views, arena));
  }
  problem.facets_of.assign(problem.vertices.size(), {});
  protocol.for_each_facet([&](std::span<const topology::VertexId> facet) {
    std::vector<int> indices;
    indices.reserve(facet.size());
    for (topology::VertexId v : facet) {
      indices.push_back(problem.index.at(v));
    }
    const int facet_id = static_cast<int>(problem.facets.size());
    for (int v : indices) {
      problem.facets_of[static_cast<std::size_t>(v)].push_back(facet_id);
    }
    problem.facets.push_back(std::move(indices));
  });

  State state;
  state.value.assign(problem.vertices.size(), 0);
  state.assigned.assign(problem.vertices.size(), false);
  state.limit = options.node_limit;
  state.use_mrv = options.use_mrv;

  SearchResult result;
  const bool found = backtrack(problem, state);
  result.nodes_explored = state.nodes;
  result.exhausted = !state.aborted;
  result.decidable = found;
  if (found) {
    for (std::size_t i = 0; i < problem.vertices.size(); ++i) {
      result.assignment.emplace(problem.vertices[i], state.value[i]);
    }
  }
  return result;
}

store::DecisionRecord decide_seq(const solve::DecideRequest& raw,
                                 const SearchOptions& options) {
  const solve::DecideRequest request = solve::normalize(raw);
  const std::unique_ptr<solve::Instance> instance =
      solve::build_instance(request);
  const SearchResult result = search_decision_map(
      instance->protocol, request.k, instance->views, instance->arena,
      options);
  store::DecisionRecord record;
  record.engine_version = solve::kDecisionEngineVersion;
  record.model = solve::model_name(request.model);
  record.processes = request.processes;
  record.f = request.f;
  record.k = request.k;
  record.mu = request.mu;
  record.rounds = request.rounds;
  record.protocol_facets = instance->problem.facets.size();
  record.protocol_vertices = instance->problem.vertex_ids.size();
  record.exhausted = result.exhausted;
  record.solvable = result.exhausted && result.decidable;
  if (record.solvable) {
    record.witness.reserve(result.assignment.size());
    for (const auto& [vertex, value] : result.assignment) {
      record.witness.emplace_back(static_cast<std::uint64_t>(vertex), value);
    }
    std::sort(record.witness.begin(), record.witness.end());
  }
  return record;
}

}  // namespace psph::oracle
