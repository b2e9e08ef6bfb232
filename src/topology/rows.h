#pragma once

// Vertex rows end to end: the flat storage that facet lists use instead of
// one heap vector per facet.
//
//   * FacetRows — an append-only list of sorted rows of any width: one
//     vertex array plus cumulative offsets. The construction's levels and
//     round expansions are FacetRows, and SimplicialComplex::add_facets takes
//     a batch of rows as a RowSpan over one.
//   * RowSet    — distinct nonempty rows under one flat index
//     (util/flat_index.h), each in a slot of its own that erase() empties in
//     place. It is SimplicialComplex's facet store and the construction's
//     face sets.
//
// A span either hands out points into its vertex array, so it dies when the
// structure grows: across a call that can insert, read through row ids, not
// through a held span. A row passed in must not point into the structure it
// is appended to.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "topology/types.h"
#include "util/flat_index.h"
#include "util/hash.h"

namespace psph::topology {

/// Hash of a row for the flat indexes (util::row_hash over its vertices).
inline std::uint64_t row_hash(std::span<const VertexId> row,
                              std::uint64_t seed = 0) {
  return util::row_hash(row.data(), row.size(), seed);
}

/// Lexicographic order of two rows (shorter prefixes first), the order of
/// the Simplexes they spell.
inline bool row_less(std::span<const VertexId> a,
                     std::span<const VertexId> b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

inline bool row_equal(std::span<const VertexId> a,
                      std::span<const VertexId> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// Rows [first, last) of a FacetRows, read-only: the batch
/// SimplicialComplex::add_facets takes. Valid while the FacetRows is
/// unchanged.
class RowSpan {
 public:
  RowSpan(const VertexId* vertices, const std::size_t* offsets,
          std::size_t size)
      : vertices_(vertices), offsets_(offsets), size_(size) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::span<const VertexId> operator[](std::size_t i) const {
    return {vertices_ + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }
  /// Vertices over all rows.
  std::size_t vertex_count() const { return offsets_[size_] - offsets_[0]; }

 private:
  const VertexId* vertices_;
  const std::size_t* offsets_;  // size_ + 1 entries
  std::size_t size_;
};

/// Rows end to end: row i is vertices()[offset(i), offset(i + 1)).
class FacetRows {
 public:
  std::size_t size() const { return offsets_.size() - 1; }
  bool empty() const { return offsets_.size() == 1; }
  std::span<const VertexId> operator[](std::size_t i) const {
    return {vertices_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  void push_back(std::span<const VertexId> row) {
    vertices_.insert(vertices_.end(), row.begin(), row.end());
    offsets_.push_back(vertices_.size());
  }

  /// Appends a row of `width` vertices for the caller to fill in place; the
  /// span dies at the next append.
  std::span<VertexId> append_row(std::size_t width) {
    vertices_.resize(vertices_.size() + width);
    offsets_.push_back(vertices_.size());
    return {vertices_.data() + vertices_.size() - width, width};
  }

  /// Rows [first, last) as a batch.
  RowSpan rows(std::size_t first, std::size_t last) const {
    return {vertices_.data(), offsets_.data() + first, last - first};
  }
  operator RowSpan() const { return rows(0, size()); }  // NOLINT: a view

  void reserve(std::size_t rows, std::size_t vertices) {
    offsets_.reserve(offsets_.size() + rows);
    vertices_.reserve(vertices_.size() + vertices);
  }

  /// Drops every row, keeping the memory for reuse.
  void clear() {
    vertices_.clear();
    offsets_.resize(1);
  }

 private:
  std::vector<VertexId> vertices_;
  std::vector<std::size_t> offsets_{0};
};

/// Distinct nonempty rows, each in a slot of its own under one flat index.
/// Slot ids are dense, in insertion order. erase() empties a slot in place
/// (a tombstone): its index entry stays behind, matching no nonempty row,
/// until a grow drops it.
class RowSet {
 public:
  /// An index kept at most max_load_quarters / 4 full (default: half).
  explicit RowSet(unsigned max_load_quarters = 2)
      : index_(max_load_quarters) {}

  /// Slots handed out, emptied ones included.
  std::size_t size() const { return slots_.size(); }
  /// Slot `id`'s row; empty once erased.
  std::span<const VertexId> operator[](std::size_t id) const {
    const Slot& slot = slots_[id];
    return {vertices_.data() + slot.begin, slot.end - slot.begin};
  }

  /// The slot holding `row` (hashed by row_hash), or FlatIndex::kAbsent.
  std::size_t find(std::span<const VertexId> row, std::uint64_t hash) const {
    return index_.find(hash, [&](std::size_t id) {
      return row_equal((*this)[id], row);
    });
  }

  /// The slot holding `row`, appending it first if absent; second is true
  /// iff it was appended.
  std::pair<std::size_t, bool> insert(std::span<const VertexId> row,
                                      std::uint64_t hash) {
    reserve_index(1);
    const std::size_t next = slots_.size();
    const std::size_t id = index_.find_or_insert(
        hash, next, [&](std::size_t i) { return row_equal((*this)[i], row); });
    if (id != next) return {id, false};
    const std::size_t begin = vertices_.size();
    vertices_.insert(vertices_.end(), row.begin(), row.end());
    slots_.push_back({begin, vertices_.size()});
    return {id, true};
  }
  bool insert(std::span<const VertexId> row) {
    return insert(row, row_hash(row)).second;
  }
  bool contains(std::span<const VertexId> row) const {
    return find(row, row_hash(row)) != util::FlatIndex::kAbsent;
  }

  /// Empties slot `id`; its vertices stay in the array unread.
  void erase(std::size_t id) {
    slots_[id].end = slots_[id].begin;
    ++erased_;
  }

  /// Room for `rows` more rows holding `vertices` vertices in all. The slot
  /// array grows at least twofold, so many small batches cost the same
  /// amortized time per row as one large one; an index grow drops the
  /// entries of emptied slots.
  void reserve(std::size_t rows, std::size_t vertices) {
    const std::size_t want = slots_.size() + rows;
    if (want > slots_.capacity()) {
      slots_.reserve(std::max(want, 2 * slots_.capacity()));
    }
    const std::size_t want_vertices = vertices_.size() + vertices;
    if (want_vertices > vertices_.capacity()) {
      vertices_.reserve(std::max(want_vertices, 2 * vertices_.capacity()));
    }
    reserve_index(rows);
  }

  /// Drops every row and the memory under them.
  void clear() {
    vertices_ = {};
    slots_ = {};
    index_.clear();
    erased_ = 0;
  }

 private:
  struct Slot {
    std::size_t begin = 0;
    std::size_t end = 0;  // == begin: emptied
  };

  // A grow keeps the entries of live slots; with none emptied it need not
  // read the slots to know.
  void reserve_index(std::size_t more) {
    index_.reserve(more, [this](std::size_t id) {
      return erased_ == 0 || slots_[id].end != slots_[id].begin;
    });
  }

  std::vector<VertexId> vertices_;
  std::vector<Slot> slots_;
  std::size_t erased_ = 0;  // slots emptied
  util::FlatIndex index_;
};

}  // namespace psph::topology
