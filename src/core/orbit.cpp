#include "core/orbit.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/obs.h"

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
    const View view = views.view(arena.state(v));
    if (view.round != 0) {
      throw std::invalid_argument(
          "SymmetryGroup: input vertex state is not a round-0 view");
    }
    labels.emplace_back(arena.pid(v), view.input);
  }
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// Sentinel of the state memo: no image computed yet.
constexpr StateId kNoState = std::numeric_limits<StateId>::max();

/// Counts vertex-memo misses: images computed (and interned) rather than
/// read back from a table.
obs::Counter g_obs_relabels("construction.orbit_relabels");

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
      memo_(group_.size()) {
  images_.views_ = &views;
  images_.arena_ = &arena;
  images_.tables_.resize(group_.size());
}

StateId OrbitContext::relabel_state(std::size_t element_index, StateId state) {
  std::vector<StateId>& memo = memo_[element_index];
  if (state < memo.size() && memo[state] != kNoState) return memo[state];

  const SymmetryElement& g = group_.element(element_index);
  const View v = views_.view(state);
  const ProcessId pid = g.map_pid(v.pid);
  StateId result;
  if (v.round == 0) {
    result = views_.intern_input(pid, g.map_value(v.input));
  } else {
    const int round = v.round;
    const std::size_t senders = v.heard.size();
    std::vector<HeardEntry> heard;
    heard.reserve(senders);
    for (std::size_t i = 0; i < senders; ++i) {
      // Recursion strictly descends in round number, so it terminates; each
      // (g, state) pair relabels once and is thereafter a memo hit. It may
      // intern, and a registry that grows moves its heard arena, so each
      // entry is read afresh through the id rather than through `v.heard`.
      const HeardEntry e = views_.view(state).heard[i];
      heard.push_back({g.map_pid(e.from), relabel_state(element_index, e.state),
                       e.last_micro});
    }
    result = views_.intern_round(pid, round, heard);
  }
  if (state >= memo.size()) memo.resize(views_.size(), kNoState);
  memo[state] = result;
  return result;
}

topology::VertexId OrbitContext::relabel_vertex_miss(
    std::size_t element_index, topology::VertexId vertex) {
  std::vector<topology::VertexId>& memo = images_.tables_[element_index];
  g_obs_relabels.add(1);
  const SymmetryElement& g = group_.element(element_index);
  const topology::ProcessId pid = arena_.pid(vertex);
  const StateId state = arena_.state(vertex);
  const topology::VertexId result =
      arena_.intern(g.map_pid(pid), relabel_state(element_index, state));
  if (vertex >= memo.size()) {
    memo.resize(arena_.size(), topology::kInvalidVertex);
  }
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

std::uint32_t OrbitContext::canonicalize(
    std::span<const topology::VertexId> facet,
    std::vector<topology::VertexId>& rep) {
  rep.assign(facet.begin(), facet.end());
  std::uint32_t stabilizer = 1;
  // Element 0 is the identity: start from the facet itself, then challenge
  // with every non-trivial relabeling. Ties count the stabilizer.
  for (std::size_t gi = 1; gi < group_.size(); ++gi) {
    candidate_.clear();
    for (const topology::VertexId v : facet) {
      candidate_.push_back(relabel_vertex(gi, v));
    }
    std::sort(candidate_.begin(), candidate_.end());
    if (candidate_ < rep) {
      rep.assign(candidate_.begin(), candidate_.end());
      stabilizer = 1;
    } else if (candidate_ == rep) {
      ++stabilizer;
    }
  }
  return stabilizer;
}

void OrbitImages::missing_image() {
  throw std::logic_error(
      "OrbitImages: no image was computed for this vertex under this "
      "element");
}

}  // namespace psph::core
