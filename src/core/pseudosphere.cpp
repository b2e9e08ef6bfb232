#include "core/pseudosphere.h"

#include <limits>
#include <set>
#include <stdexcept>

#include "core/round_ops.h"
#include "math/combinatorics.h"
#include "topology/simplex.h"

namespace psph::core {

SimplicialComplex pseudosphere(
    const std::vector<ProcessId>& pids,
    const std::vector<std::vector<StateId>>& value_sets, VertexArena& arena) {
  if (pids.size() != value_sets.size()) {
    throw std::invalid_argument("pseudosphere: pids/value_sets size mismatch");
  }
  if (std::set<ProcessId>(pids.begin(), pids.end()).size() != pids.size()) {
    throw std::invalid_argument("pseudosphere: duplicate process id");
  }

  // Drop positions with empty value sets (Lemma 4, property 2).
  std::vector<ProcessId> live_pids;
  detail::ChoiceTable live_sets;
  for (std::size_t i = 0; i < pids.size(); ++i) {
    if (!value_sets[i].empty()) {
      live_pids.push_back(pids[i]);
      live_sets.states.insert(live_sets.states.end(), value_sets[i].begin(),
                              value_sets[i].end());
      live_sets.close_position();
    }
  }

  SimplicialComplex result;
  if (live_pids.empty()) return result;

  // All facets of one pseudosphere are distinct and share one dimension, so
  // the bulk insert takes SimplicialComplex::add_facets's pure fast lane.
  detail::ExpandScratch scratch;
  topology::FacetRows facets;
  detail::product_facets(live_pids, live_sets, arena, scratch, &facets);
  result.add_facets(facets);
  return result;
}

SimplicialComplex pseudosphere_uniform(const std::vector<ProcessId>& pids,
                                       const std::vector<StateId>& values,
                                       VertexArena& arena) {
  return pseudosphere(
      pids, std::vector<std::vector<StateId>>(pids.size(), values), arena);
}

std::uint64_t pseudosphere_facet_count(
    const std::vector<std::vector<StateId>>& value_sets) {
  std::uint64_t count = 0;
  bool any = false;
  for (const auto& set : value_sets) {
    if (set.empty()) continue;
    if (!any) {
      count = 1;
      any = true;
    }
    if (count > std::numeric_limits<std::uint64_t>::max() / set.size()) {
      throw std::overflow_error("pseudosphere_facet_count: overflow");
    }
    count *= set.size();
  }
  return count;
}

SimplicialComplex input_complex(int num_processes,
                                const std::vector<std::int64_t>& values,
                                ViewRegistry& views, VertexArena& arena) {
  if (num_processes < 1) {
    throw std::invalid_argument("input_complex: need at least one process");
  }
  if (values.empty()) {
    throw std::invalid_argument("input_complex: empty value set");
  }
  std::vector<ProcessId> pids;
  std::vector<std::vector<StateId>> value_sets;
  for (ProcessId p = 0; p < num_processes; ++p) {
    pids.push_back(p);
    std::vector<StateId> states;
    states.reserve(values.size());
    for (std::int64_t v : values) states.push_back(views.intern_input(p, v));
    value_sets.push_back(std::move(states));
  }
  return pseudosphere(pids, value_sets, arena);
}

SimplicialComplex input_pseudosphere(
    const std::vector<std::vector<std::int64_t>>& per_process_values,
    ViewRegistry& views, VertexArena& arena) {
  std::vector<ProcessId> pids;
  std::vector<std::vector<StateId>> value_sets;
  for (std::size_t i = 0; i < per_process_values.size(); ++i) {
    const ProcessId pid = static_cast<ProcessId>(i);
    pids.push_back(pid);
    std::vector<StateId> states;
    states.reserve(per_process_values[i].size());
    for (std::int64_t v : per_process_values[i]) {
      states.push_back(views.intern_input(pid, v));
    }
    value_sets.push_back(std::move(states));
  }
  return pseudosphere(pids, value_sets, arena);
}

topology::Simplex input_facet(const std::vector<std::int64_t>& values,
                              ViewRegistry& views, VertexArena& arena) {
  std::vector<topology::VertexId> vertices;
  vertices.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const ProcessId pid = static_cast<ProcessId>(i);
    vertices.push_back(arena.intern(pid, views.intern_input(pid, values[i])));
  }
  return topology::Simplex(std::move(vertices));
}

}  // namespace psph::core
