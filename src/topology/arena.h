#pragma once

// VertexArena interns (process id, state id) pairs into dense VertexIds.
//
// The paper labels every vertex of a protocol complex with a process id and
// a local state. Hash-consing the labels means that indistinguishable local
// states arising in different branches of the r-round recursion map to the
// *same* vertex — which is precisely how the constructions glue pseudospheres
// together along shared faces.

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "topology/types.h"
#include "util/hash.h"

namespace psph::topology {

struct VertexLabel {
  ProcessId pid = -1;
  StateId state = 0;

  bool operator==(const VertexLabel& other) const {
    return pid == other.pid && state == other.state;
  }
};

struct VertexLabelHash {
  std::size_t operator()(const VertexLabel& label) const {
    return util::hash_combine(
        std::hash<ProcessId>{}(label.pid),
        std::hash<StateId>{}(label.state));
  }
};

class VertexArena {
 public:
  /// Returns the unique VertexId for this label, creating it if new.
  VertexId intern(ProcessId pid, StateId state) {
    const VertexLabel label{pid, state};
    const auto it = index_.find(label);
    if (it != index_.end()) return it->second;
    const VertexId id = static_cast<VertexId>(labels_.size());
    labels_.push_back(label);
    index_.emplace(label, id);
    return id;
  }

  /// Read-only lookup: the id for this label, or nullopt if it was never
  /// interned. Unlike intern() this never creates a vertex — orbit
  /// relabeling uses it to map input vertices only onto existing ones.
  std::optional<VertexId> find(ProcessId pid, StateId state) const {
    const auto it = index_.find(VertexLabel{pid, state});
    if (it == index_.end()) return std::nullopt;
    return it->second;
  }

  const VertexLabel& label(VertexId id) const {
    if (id >= labels_.size()) throw std::out_of_range("VertexArena::label");
    return labels_[id];
  }

  ProcessId pid(VertexId id) const { return label(id).pid; }
  StateId state(VertexId id) const { return label(id).state; }

  std::size_t size() const { return labels_.size(); }

 private:
  std::vector<VertexLabel> labels_;
  std::unordered_map<VertexLabel, VertexId, VertexLabelHash> index_;
};

}  // namespace psph::topology
