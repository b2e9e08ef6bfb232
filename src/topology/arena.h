#pragma once

// VertexArena interns (process id, state id) pairs into dense VertexIds.
//
// The paper labels every vertex of a protocol complex with a process id and
// a local state. Hash-consing the labels means that indistinguishable local
// states arising in different branches of the r-round recursion map to the
// *same* vertex — which is precisely how the constructions glue pseudospheres
// together along shared faces. Each label is stored once, in id order; the
// index over it is a flat open-addressing table (util/flat_index.h).

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "topology/types.h"
#include "util/flat_index.h"
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
  /// Returns the unique VertexId for this label, creating it if new. Ids
  /// are dense, in first-interned order, and never kInvalidVertex: a new
  /// label whose id would be throws std::length_error.
  VertexId intern(ProcessId pid, StateId state) {
    const VertexLabel label{pid, state};
    const std::size_t next = labels_.size();
    const std::size_t id = index_.find_or_insert(
        VertexLabelHash{}(label), next,
        [&](std::size_t i) { return labels_[i] == label; });
    if (id == next) labels_.push_back(label);
    return static_cast<VertexId>(id);
  }

  const VertexLabel& label(VertexId id) const {
    if (id >= labels_.size()) throw std::out_of_range("VertexArena::label");
    return labels_[id];
  }

  ProcessId pid(VertexId id) const { return label(id).pid; }
  StateId state(VertexId id) const { return label(id).state; }

  std::size_t size() const { return labels_.size(); }

 private:
  std::vector<VertexLabel> labels_;  // by VertexId
  util::FlatIndex index_;            // over labels_
};

}  // namespace psph::topology
