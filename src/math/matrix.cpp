#include "math/matrix.h"

#include <algorithm>
#include <stdexcept>

#include "math/modular.h"

namespace psph::math {

namespace {

constexpr std::size_t kNoPivot = static_cast<std::size_t>(-1);

// Iterator to the entry with column c, or end() if absent.
SparseMatrix::Row::iterator find_col(SparseMatrix::Row& row, std::size_t c) {
  const auto it = std::lower_bound(
      row.begin(), row.end(), c,
      [](const SparseMatrix::Entry& e, std::size_t col) {
        return e.first < col;
      });
  return (it != row.end() && it->first == c) ? it : row.end();
}

}  // namespace

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), entries_(rows) {}

void SparseMatrix::set(std::size_t r, std::size_t c, std::int64_t value) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("SparseMatrix::set");
  Row& row = entries_[r];
  if (row.empty() || row.back().first < c) {
    if (value != 0) row.emplace_back(c, value);
    return;
  }
  const auto it = std::lower_bound(
      row.begin(), row.end(), c,
      [](const Entry& e, std::size_t col) { return e.first < col; });
  if (it != row.end() && it->first == c) {
    if (value == 0) {
      row.erase(it);
    } else {
      it->second = value;
    }
  } else if (value != 0) {
    row.insert(it, Entry(c, value));
  }
}

void SparseMatrix::add(std::size_t r, std::size_t c, std::int64_t delta) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("SparseMatrix::add");
  Row& row = entries_[r];
  const auto it = find_col(row, c);
  if (it != row.end()) {
    it->second += delta;
    if (it->second == 0) row.erase(it);
  } else if (delta != 0) {
    set(r, c, delta);
  }
}

std::int64_t SparseMatrix::get(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("SparseMatrix::get");
  const Row& row = entries_[r];
  const auto it = std::lower_bound(
      row.begin(), row.end(), c,
      [](const Entry& e, std::size_t col) { return e.first < col; });
  return (it != row.end() && it->first == c) ? it->second : 0;
}

std::size_t SparseMatrix::nonzeros() const {
  std::size_t count = 0;
  for (const Row& row : entries_) count += row.size();
  return count;
}

std::vector<std::vector<std::int64_t>> SparseMatrix::to_dense() const {
  std::vector<std::vector<std::int64_t>> dense(
      rows_, std::vector<std::int64_t>(cols_, 0));
  for (std::size_t r = 0; r < rows_; ++r) {
    for (const auto& [c, v] : entries_[r]) dense[r][c] = v;
  }
  return dense;
}

std::size_t SparseMatrix::rank_mod_p(std::int64_t p) const {
  if (p < 2) throw std::invalid_argument("rank_mod_p: p must be prime >= 2");

  // Working copy with entries normalized into [0, p); empty rows dropped.
  std::vector<Row> work;
  work.reserve(entries_.size());
  for (const Row& row : entries_) {
    Row reduced;
    reduced.reserve(row.size());
    for (const auto& [c, v] : row) {
      const std::int64_t m = mod_normalize(v, p);
      if (m != 0) reduced.emplace_back(c, m);
    }
    if (!reduced.empty()) work.push_back(std::move(reduced));
  }

  // pivot_of[c]: index in `pivot_rows` of the pivot whose leading column is
  // c. Pivot rows are normalized so their leading coefficient is 1.
  std::vector<std::size_t> pivot_of(cols_, kNoPivot);
  std::vector<Row> pivot_rows;
  pivot_rows.reserve(std::min(rows_, cols_));
  Row scratch;

  std::size_t rank = 0;
  for (Row& row : work) {
    // Cancel the leading entry against the recorded pivot for its column
    // until none matches; the leading column strictly increases each pass,
    // so the loop terminates. Deterministic: rows are processed in storage
    // order with a fixed pivot set, independent of any threading above.
    while (!row.empty()) {
      const std::size_t pivot = pivot_of[row.front().first];
      if (pivot == kNoPivot) break;
      const Row& pivot_row = pivot_rows[pivot];
      const std::int64_t factor = row.front().second;
      // row -= factor * pivot_row, merged into scratch (leading cancels).
      scratch.clear();
      std::size_t i = 0;
      std::size_t j = 0;
      while (i < row.size() && j < pivot_row.size()) {
        if (row[i].first < pivot_row[j].first) {
          scratch.push_back(row[i]);
          ++i;
        } else if (row[i].first > pivot_row[j].first) {
          const std::int64_t v =
              mod_sub(0, mod_mul(factor, pivot_row[j].second, p), p);
          if (v != 0) scratch.emplace_back(pivot_row[j].first, v);
          ++j;
        } else {
          const std::int64_t v = mod_sub(
              row[i].second, mod_mul(factor, pivot_row[j].second, p), p);
          if (v != 0) scratch.emplace_back(row[i].first, v);
          ++i;
          ++j;
        }
      }
      for (; i < row.size(); ++i) scratch.push_back(row[i]);
      for (; j < pivot_row.size(); ++j) {
        const std::int64_t v =
            mod_sub(0, mod_mul(factor, pivot_row[j].second, p), p);
        if (v != 0) scratch.emplace_back(pivot_row[j].first, v);
      }
      row.swap(scratch);
    }
    if (row.empty()) continue;
    const std::int64_t inverse = mod_inverse(row.front().second, p);
    for (auto& [c, v] : row) v = mod_mul(v, inverse, p);
    pivot_of[row.front().first] = pivot_rows.size();
    pivot_rows.push_back(std::move(row));
    ++rank;
  }
  return rank;
}

}  // namespace psph::math
