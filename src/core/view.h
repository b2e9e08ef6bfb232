#pragma once

// Interned full-information views.
//
// Section 4: a process's local state is its input value plus the sequence of
// messages received so far, and WLOG every protocol is the full-information
// protocol. We represent local states as hash-consed View nodes:
//
//   * round 0: (pid, input value);
//   * round r > 0: (pid, r, heard), where `heard` lists, per sender, the
//     sender's (interned) state at the start of the round — and, in the
//     semi-synchronous model, the microround of the last message received
//     from that sender (Section 8's view component μ_j).
//
// Hash-consing means two local states arising in different branches of a
// construction are the same StateId exactly when they are indistinguishable
// to the process — the similarity structure the paper's proofs live on.
// Each view is stored once, in id order: its plain fields in one record
// array, its heard entries end to end with every other view's in one arena.
// The index over them is a flat open-addressing table of (hash, id) entries
// (util/flat_index.h). intern_round takes the heard list as a borrowed span
// and probes without allocating: only a view seen for the first time is
// copied into the arena.
//
// view(id) returns a small value whose `heard` is a span into that arena. It
// dies when the registry grows, so across any call that can intern, read a
// view again through its id rather than through a held span.

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "topology/types.h"
#include "util/flat_index.h"
#include "util/hash.h"

namespace psph::core {

using topology::ProcessId;
using topology::StateId;

/// `last_micro` value meaning "the model has no microround structure"
/// (asynchronous and synchronous views).
inline constexpr int kNoMicro = -1;

struct HeardEntry {
  ProcessId from = -1;
  StateId state = 0;  // sender's state at the start of the round
  int last_micro = kNoMicro;

  bool operator==(const HeardEntry& other) const = default;
  bool operator<(const HeardEntry& other) const {
    if (from != other.from) return from < other.from;
    if (state != other.state) return state < other.state;
    return last_micro < other.last_micro;
  }
};

/// A view as the registry hands it out. `heard` points into the registry's
/// arena (see the header comment for how long it lives).
struct View {
  ProcessId pid = -1;
  int round = 0;
  std::int64_t input = 0;               // meaningful iff round == 0
  std::span<const HeardEntry> heard;    // sorted by sender; empty iff round 0
};

struct ViewHash {
  std::size_t operator()(const View& v) const {
    std::size_t h = util::hash_combine(std::hash<ProcessId>{}(v.pid),
                                       std::hash<int>{}(v.round));
    h = util::hash_combine(h, std::hash<std::int64_t>{}(v.input));
    for (const HeardEntry& e : v.heard) {
      h = util::hash_combine(h, std::hash<ProcessId>{}(e.from));
      h = util::hash_combine(h, std::hash<StateId>{}(e.state));
      h = util::hash_combine(h, std::hash<int>{}(e.last_micro));
    }
    return h;
  }
};

class ViewRegistry {
 public:
  /// Interns the round-0 view (pid starts with `input`). Ids are dense and
  /// given out in first-interned order; std::length_error if a new view's
  /// id would pass util::FlatIndex::kMaxId.
  StateId intern_input(ProcessId pid, std::int64_t input);

  /// Interns a round-r view (r >= 1). `heard` is borrowed: it is copied into
  /// a scratch buffer and sorted there, so it may be in any order and may
  /// point anywhere, this registry's own arena included. One entry per
  /// sender is required. Same ids and limit as intern_input.
  StateId intern_round(ProcessId pid, int round,
                       std::span<const HeardEntry> heard);

  View view(StateId id) const;
  int round(StateId id) const { return record(id).round; }
  ProcessId pid(StateId id) const { return record(id).pid; }

  /// All input values visible in this view, i.e. inputs of processes the
  /// owner has (transitively) heard from, ascending. Full information means
  /// these are exactly the values the owner may validly decide. Memoized
  /// per id as rows of one value array, so the span dies at the next call
  /// that fills the memo (any inputs_seen or min_input_seen).
  std::span<const std::int64_t> inputs_seen(StateId id) const;

  /// min of inputs_seen — the canonical FloodSet decision rule.
  std::int64_t min_input_seen(StateId id) const;

  /// Process ids heard from directly in the final round (including self).
  std::set<ProcessId> direct_senders(StateId id) const;

  /// Human-readable rendering, e.g. "P2@r1<P0:0,P2:1>". Memoized per id:
  /// a view's rendering embeds the renderings of every heard sub-view, so
  /// the naive recursion re-renders shared sub-views exponentially often in
  /// deep rounds; the cache makes each view render exactly once. Like
  /// inputs_seen, this populates a mutable cache and therefore is NOT safe
  /// to call concurrently (view/round/pid are the const-thread-safe
  /// subset).
  const std::string& to_string(StateId id) const;

  std::size_t size() const { return records_.size(); }

 private:
  // A stored view: its plain fields and where its heard entries are.
  struct Record {
    ProcessId pid = -1;
    int round = 0;
    std::int64_t input = 0;
    std::size_t heard_begin = 0;
    std::size_t heard_size = 0;
  };
  // A memoized inputs_seen row; size == kUnset while not yet computed.
  struct SeenRow {
    std::size_t begin = 0;
    std::size_t size = kUnset;
  };
  static constexpr std::size_t kUnset = static_cast<std::size_t>(-1);

  const Record& record(StateId id) const;
  StateId intern(const View& v);

  std::vector<Record> records_;      // by StateId
  std::vector<HeardEntry> heard_;    // every view's heard entries, end to end
  util::FlatIndex index_;            // over records_
  std::vector<HeardEntry> scratch_;  // intern_round's sorted copy
  mutable std::vector<SeenRow> seen_rows_;        // by StateId
  mutable std::vector<std::int64_t> seen_values_;  // the rows, end to end
  mutable std::unordered_map<StateId, std::string> string_cache_;
};

}  // namespace psph::core
