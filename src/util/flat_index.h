#pragma once

// One open-addressing index for every hash-consing table: a power-of-two
// array of {hash, id + 1} entries (0 = empty), probed linearly. The keys live
// in the caller's own storage (views, vertex labels, facet rows, records)
// under dense ids; an entry holds only the key's 32-bit hash beside its id.
// A probe compares the stored hash first and asks the caller's predicate
// only on a match, and a grow re-places entries from their stored hashes
// without reading a key. Nothing is allocated per key, so building,
// growing and freeing a table are a handful of array passes.
//
// Callers hand in a plain 64-bit hash of the key (hash_combine, row_hash).
// The index finalises it through mix64 itself before keeping 32 bits: it
// masks off the low bits, and clustered keys (small dense ids, combined
// rows) would otherwise pile into long probe runs.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/hash.h"

namespace psph::util {

class FlatIndex {
 public:
  /// What find returns when no stored id matches.
  static constexpr std::size_t kAbsent =
      std::numeric_limits<std::size_t>::max();
  /// Largest id an entry holds (id + 1 fills its 32 bits), so 0xffffffff is
  /// never handed out: the arenas keep it as their invalid id.
  static constexpr std::size_t kMaxId = 0xfffffffeU;

  /// A table kept at most max_load_quarters / 4 full (default: half).
  explicit FlatIndex(unsigned max_load_quarters = 2)
      : quarters_(max_load_quarters) {}

  /// Entries held, including any the caller no longer counts as live.
  std::size_t size() const { return used_; }
  std::size_t capacity() const { return table_.size(); }

  /// The id stored under `hash` that `same(id)` accepts, or kAbsent.
  template <typename Same>
  std::size_t find(std::uint64_t hash, Same same) const {
    if (table_.empty()) return kAbsent;
    const Entry& entry = table_[probe(finalise(hash), same)];
    return entry.id == 0 ? kAbsent : entry.id - 1;
  }

  /// find(hash, same) if that finds an id; otherwise records `id` under
  /// `hash` and returns it, growing first if the table would pass its load.
  /// Throws std::length_error, recording nothing, if `id` > kMaxId.
  template <typename Same>
  std::size_t find_or_insert(std::uint64_t hash, std::size_t id, Same same) {
    const std::uint32_t h = finalise(hash);
    if (!table_.empty()) {
      const std::size_t at = probe(h, same);
      if (table_[at].id != 0) return table_[at].id - 1;
      if (fits(used_ + 1, table_.size())) {
        put(at, h, id);
        return id;
      }
    }
    place(h, id);
    return id;
  }

  /// Records `id`, whose key the caller knows is absent, under `hash`.
  void insert(std::uint64_t hash, std::size_t id) { place(finalise(hash), id); }

  /// Makes room for `more` entries beyond size() within the load limit. A
  /// grow at least doubles the table (from 16) and keeps only the ids that
  /// `keep` accepts, so a caller whose keys can die drops them here.
  template <typename Keep>
  void reserve(std::size_t more, Keep keep) {
    if (fits(used_ + more, table_.size())) return;
    std::size_t capacity = std::max<std::size_t>(16, table_.size() * 2);
    while (!fits(used_ + more, capacity)) capacity *= 2;
    std::vector<Entry> old(capacity);
    table_.swap(old);
    used_ = 0;
    for (const Entry& entry : old) {
      if (entry.id != 0 && keep(entry.id - 1)) {
        table_[probe(entry.hash, never)] = entry;
        ++used_;
      }
    }
  }
  void reserve(std::size_t more) {
    reserve(more, [](std::size_t) { return true; });
  }

  /// Drops every entry and the table's memory.
  void clear() {
    table_ = {};
    used_ = 0;
  }

 private:
  struct Entry {
    std::uint32_t hash = 0;
    std::uint32_t id = 0;  // id + 1; 0 = empty
  };

  // The predicate of a probe for an empty slot.
  static bool never(std::size_t) { return false; }

  // The 32 bits an entry stores: the caller's hash with every bit mixed in.
  static std::uint32_t finalise(std::uint64_t hash) {
    return static_cast<std::uint32_t>(mix64(hash));
  }

  bool fits(std::size_t entries, std::size_t capacity) const {
    return entries * 4 <= capacity * quarters_;
  }

  // The slot of the entry under the finalised `hash` that `same` accepts,
  // else the empty slot that ends the probe run. The table is non-empty and
  // never full.
  template <typename Same>
  std::size_t probe(std::uint32_t hash, Same same) const {
    const std::size_t mask = table_.size() - 1;
    std::size_t at = hash & mask;
    while (table_[at].id != 0 &&
           !(table_[at].hash == hash && same(table_[at].id - 1))) {
      at = (at + 1) & mask;
    }
    return at;
  }

  // Records `id` under the finalised `hash` in a free slot, growing first.
  void place(std::uint32_t hash, std::size_t id) {
    reserve(1);
    put(probe(hash, never), hash, id);
  }

  void put(std::size_t at, std::uint32_t hash, std::size_t id) {
    if (id > kMaxId) {
      throw std::length_error("FlatIndex: ids exceed 32 bits");
    }
    table_[at] = Entry{hash, static_cast<std::uint32_t>(id + 1)};
    ++used_;
  }

  std::vector<Entry> table_;
  std::size_t used_ = 0;
  unsigned quarters_;
};

}  // namespace psph::util
