#pragma once

// Sparse integer matrices in row-major flat-row form. These hold
// simplicial boundary operators, whose entries start in {-1, 0, +1}; the
// Smith normal form reduction mutates entries, so the value type is int64
// here and BigInt in the exact SNF path (see smith.h).

#include <cstdint>
#include <utility>
#include <vector>

namespace psph::math {

/// A sparse matrix with int64 entries. Each row is a flat vector of
/// (column, value) pairs sorted by column; zero values are never stored.
/// Flat rows keep the GF(p) elimination inner loop allocation-free: row
/// updates are two-pointer merges into a reused scratch buffer instead of
/// node-by-node mutation of a std::map.
class SparseMatrix {
 public:
  using Entry = std::pair<std::size_t, std::int64_t>;
  using Row = std::vector<Entry>;

  SparseMatrix() = default;
  SparseMatrix(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Sets entry (r, c); storing 0 erases it. Appending in increasing
  /// column order per row is O(1).
  void set(std::size_t r, std::size_t c, std::int64_t value);

  /// Reserves capacity for `n` entries in row r (builders that know their
  /// fill pattern, e.g. boundary-matrix assembly, avoid growth churn).
  void reserve_row(std::size_t r, std::size_t n) { entries_[r].reserve(n); }

  /// Adds delta to entry (r, c).
  void add(std::size_t r, std::size_t c, std::int64_t delta);

  std::int64_t get(std::size_t r, std::size_t c) const;

  /// Number of stored nonzero entries.
  std::size_t nonzeros() const;

  const Row& row(std::size_t r) const { return entries_[r]; }

  /// Dense copy (tests and small exact computations only).
  std::vector<std::vector<std::int64_t>> to_dense() const;

  /// Matrix rank over GF(p) via sparse Gaussian elimination on a working
  /// copy. Does not modify *this.
  std::size_t rank_mod_p(std::int64_t p) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Row> entries_;
};

}  // namespace psph::math
