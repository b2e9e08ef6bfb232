#include "core/orbit.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace psph::core {

namespace {

template <typename K, typename V>
V mapped_or_self(const std::vector<std::pair<K, V>>& table, K key) {
  const auto it = std::lower_bound(
      table.begin(), table.end(), key,
      [](const std::pair<K, V>& entry, K k) { return entry.first < k; });
  if (it != table.end() && it->first == key) return it->second;
  return key;
}

/// Round-0 (pid, input) labels of an input facet, sorted by pid. Throws if
/// any vertex state is not a round-0 view.
std::vector<std::pair<ProcessId, std::int64_t>> input_labels(
    const topology::Simplex& input, const ViewRegistry& views,
    const topology::VertexArena& arena) {
  std::vector<std::pair<ProcessId, std::int64_t>> labels;
  for (const topology::VertexId v : input.vertices()) {
    const View& view = views.view(arena.state(v));
    if (view.round != 0) {
      throw std::invalid_argument(
          "SymmetryGroup: input vertex state is not a round-0 view");
    }
    labels.emplace_back(arena.pid(v), view.input);
  }
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

ProcessId SymmetryElement::map_pid(ProcessId pid) const {
  return mapped_or_self(pid_map, pid);
}

std::int64_t SymmetryElement::map_value(std::int64_t value) const {
  return mapped_or_self(value_map, value);
}

bool SymmetryElement::is_identity() const {
  for (const auto& [from, to] : pid_map) {
    if (from != to) return false;
  }
  for (const auto& [from, to] : value_map) {
    if (from != to) return false;
  }
  return true;
}

SymmetryGroup SymmetryGroup::identity() {
  SymmetryGroup group;
  group.elements_.push_back(SymmetryElement{});
  return group;
}

SymmetryGroup SymmetryGroup::for_input_facet(
    const topology::Simplex& input, const ViewRegistry& views,
    const topology::VertexArena& arena) {
  const std::vector<std::pair<ProcessId, std::int64_t>> labels =
      input_labels(input, views, arena);
  std::vector<ProcessId> pids;
  pids.reserve(labels.size());
  for (const auto& [pid, value] : labels) pids.push_back(pid);

  SymmetryGroup group;
  std::vector<std::size_t> perm(pids.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  // std::next_permutation over index positions enumerates all |pids|!
  // candidate π (in lexicographic order, identity first). For each, σ is
  // forced by σ(value_of(p)) = value_of(π(p)); the candidate survives iff
  // that assignment is a well-defined bijection on the values in use.
  do {
    std::vector<std::pair<std::int64_t, std::int64_t>> value_map;
    bool ok = true;
    for (std::size_t i = 0; i < labels.size() && ok; ++i) {
      const std::int64_t from = labels[i].second;
      const std::int64_t to = labels[perm[i]].second;
      bool found = false;
      for (const auto& [existing_from, existing_to] : value_map) {
        if (existing_from == from) {
          ok = existing_to == to;
          found = true;
          break;
        }
        if (existing_to == to) {  // σ must stay injective
          ok = existing_from == from;
          found = ok;
          break;
        }
      }
      if (!found && ok) value_map.emplace_back(from, to);
    }
    if (!ok) continue;
    SymmetryElement element;
    for (std::size_t i = 0; i < pids.size(); ++i) {
      element.pid_map.emplace_back(pids[i], pids[perm[i]]);
    }
    std::sort(value_map.begin(), value_map.end());
    element.value_map = std::move(value_map);
    group.elements_.push_back(std::move(element));
  } while (std::next_permutation(perm.begin(), perm.end()));

  // next_permutation visited the identity first, so element 0 is id.
  return group;
}

OrbitContext::OrbitContext(SymmetryGroup group, ViewRegistry& views,
                           topology::VertexArena& arena)
    : group_(std::move(group)),
      views_(views),
      arena_(arena),
      memo_(group_.size()),
      vertex_memo_(group_.size()) {}

StateId OrbitContext::relabel_state(std::size_t element_index, StateId state) {
  std::unordered_map<StateId, StateId>& memo = memo_[element_index];
  const auto hit = memo.find(state);
  if (hit != memo.end()) return hit->second;

  const SymmetryElement& g = group_.element(element_index);
  const View& v = views_.view(state);
  StateId result;
  if (v.round == 0) {
    result = views_.intern_input(g.map_pid(v.pid), g.map_value(v.input));
  } else {
    std::vector<HeardEntry> heard;
    heard.reserve(v.heard.size());
    for (const HeardEntry& e : v.heard) {
      // Recursion strictly descends in round number, so it terminates; each
      // (g, state) pair relabels once and is thereafter a memo hit.
      heard.push_back(
          {g.map_pid(e.from), relabel_state(element_index, e.state),
           e.last_micro});
    }
    result = views_.intern_round(g.map_pid(v.pid), v.round, std::move(heard));
  }
  memo.emplace(state, result);
  return result;
}

topology::VertexId OrbitContext::relabel_vertex(std::size_t element_index,
                                                topology::VertexId vertex) {
  std::vector<topology::VertexId>& memo = vertex_memo_[element_index];
  if (vertex < memo.size() && memo[vertex] != topology::kInvalidVertex) {
    return memo[vertex];
  }
  const SymmetryElement& g = group_.element(element_index);
  const topology::ProcessId pid = arena_.pid(vertex);
  const StateId state = arena_.state(vertex);
  const topology::VertexId result =
      arena_.intern(g.map_pid(pid), relabel_state(element_index, state));
  if (vertex >= memo.size()) memo.resize(vertex + 1, topology::kInvalidVertex);
  memo[vertex] = result;
  return result;
}

topology::Simplex OrbitContext::relabel_facet(std::size_t element_index,
                                              const topology::Simplex& facet) {
  std::vector<topology::VertexId> mapped;
  mapped.reserve(facet.size());
  for (const topology::VertexId v : facet.vertices()) {
    mapped.push_back(relabel_vertex(element_index, v));
  }
  return topology::Simplex(std::move(mapped));
}

CanonicalFacet OrbitContext::canonicalize(const topology::Simplex& facet) {
  ++canonicalized_;
  CanonicalFacet best{facet, 1};
  if (group_.size() == 1) return best;
  // Element 0 is the identity: start from the facet itself, then challenge
  // with every non-trivial relabeling. Ties count the stabilizer. Candidates
  // are compared as sorted raw vertex vectors in a reused scratch buffer —
  // a Simplex is only materialized when a candidate actually wins.
  std::vector<topology::VertexId> scratch;
  scratch.reserve(facet.size());
  for (std::size_t gi = 1; gi < group_.size(); ++gi) {
    scratch.clear();
    for (const topology::VertexId v : facet.vertices()) {
      scratch.push_back(relabel_vertex(gi, v));
    }
    std::sort(scratch.begin(), scratch.end());
    if (scratch < best.rep.vertices()) {
      best.rep = topology::Simplex(scratch);
      best.stabilizer = 1;
    } else if (scratch == best.rep.vertices()) {
      ++best.stabilizer;
    }
  }
  return best;
}

}  // namespace psph::core
