#include "math/smith.h"

#include <algorithm>
#include <utility>

#include "obs/obs.h"

namespace psph::math {

std::vector<BigInt> SmithResult::torsion() const {
  std::vector<BigInt> result;
  const BigInt one(1);
  for (const BigInt& d : invariants) {
    if (d > one) result.push_back(d);
  }
  return result;
}

namespace {

// True if the matrix entry is zero — small helper for readability.
bool is_zero(const BigInt& v) { return v.is_zero(); }

// Finds a nonzero entry in the submatrix with top-left corner (t, t),
// preferring the smallest absolute value (keeps coefficient growth down).
bool find_pivot(const std::vector<std::vector<BigInt>>& a, std::size_t t,
                std::size_t* pivot_row, std::size_t* pivot_col) {
  bool found = false;
  BigInt best;
  for (std::size_t i = t; i < a.size(); ++i) {
    for (std::size_t j = t; j < a[i].size(); ++j) {
      if (is_zero(a[i][j])) continue;
      const BigInt magnitude = a[i][j].abs();
      if (!found || magnitude < best) {
        found = true;
        best = magnitude;
        *pivot_row = i;
        *pivot_col = j;
      }
    }
  }
  return found;
}

void swap_rows(std::vector<std::vector<BigInt>>& a, std::size_t r1,
               std::size_t r2) {
  if (r1 != r2) std::swap(a[r1], a[r2]);
}

void swap_cols(std::vector<std::vector<BigInt>>& a, std::size_t c1,
               std::size_t c2) {
  if (c1 == c2) return;
  for (auto& row : a) std::swap(row[c1], row[c2]);
}

// row[target] -= q * row[source]
void row_axpy(std::vector<std::vector<BigInt>>& a, std::size_t target,
              std::size_t source, const BigInt& q) {
  if (q.is_zero()) return;
  for (std::size_t j = 0; j < a[target].size(); ++j) {
    a[target][j] -= q * a[source][j];
  }
}

// col[target] -= q * col[source]
void col_axpy(std::vector<std::vector<BigInt>>& a, std::size_t target,
              std::size_t source, const BigInt& q) {
  if (q.is_zero()) return;
  for (auto& row : a) {
    row[target] -= q * row[source];
  }
}

}  // namespace

SmithResult smith_normal_form_dense(std::vector<std::vector<BigInt>> a) {
  SmithResult result;
  if (a.empty() || a[0].empty()) return result;
  const std::size_t rows = a.size();
  const std::size_t cols = a[0].size();
  // The trace arg carries the reduced matrix's larger side; per-dimension
  // attribution comes from the enclosing homology.snf span.
  obs::SpanTimer span("smith.snf",
                      static_cast<std::int64_t>(std::max(rows, cols)));
  const std::size_t limit = std::min(rows, cols);

  for (std::size_t t = 0; t < limit; ++t) {
    std::size_t pr = t, pc = t;
    if (!find_pivot(a, t, &pr, &pc)) break;
    swap_rows(a, t, pr);
    swap_cols(a, t, pc);

    // Phase A (sequential): gcd fix-up. Reduce only the entries the pivot
    // does NOT divide — each such reduction leaves a smaller remainder,
    // which swaps into the pivot slot, so |a[t][t]| strictly shrinks and
    // the loop terminates with the pivot dividing all of row t and
    // column t. This serializes exactly the data-dependent part of the
    // classical clearing loop.
    for (;;) {
      bool dirty = false;
      for (std::size_t i = t + 1; i < rows; ++i) {
        if (is_zero(a[i][t]) || (a[i][t] % a[t][t]).is_zero()) continue;
        const BigInt q = a[i][t] / a[t][t];
        row_axpy(a, i, t, q);
        // Remainder is smaller than the pivot; swap it up and restart.
        swap_rows(a, t, i);
        dirty = true;
      }
      for (std::size_t j = t + 1; j < cols; ++j) {
        if (is_zero(a[t][j]) || (a[t][j] % a[t][t]).is_zero()) continue;
        const BigInt q = a[t][j] / a[t][t];
        col_axpy(a, j, t, q);
        swap_cols(a, t, j);
        dirty = true;
      }
      if (!dirty) break;
    }

    // Phase B: the pivot now divides everything in its row and column, so
    // each remaining row update is an exact elimination that reads only
    // row t.
    for (std::size_t i = t + 1; i < rows; ++i) {
      if (is_zero(a[i][t])) continue;
      const BigInt q = a[i][t] / a[t][t];
      row_axpy(a, i, t, q);
    }
    // With column t cleared below the pivot, zeroing row t is a pure
    // column operation that touches only row t: a[t][j] -= q * pivot
    // with q exact, i.e. the entries just vanish.
    for (std::size_t j = t + 1; j < cols; ++j) a[t][j] = BigInt(0);

    // Enforce the divisibility chain: if some entry in the remaining
    // submatrix is not divisible by the pivot, fold its row into row t and
    // re-run the clearing loop (the pivot strictly shrinks).
    bool divides_all = true;
    for (std::size_t i = t + 1; i < rows && divides_all; ++i) {
      for (std::size_t j = t + 1; j < cols; ++j) {
        if (!(a[i][j] % a[t][t]).is_zero()) {
          // Add row i to row t; the offending entry lands in row t and the
          // next clearing pass reduces the pivot.
          for (std::size_t jj = 0; jj < cols; ++jj) a[t][jj] += a[i][jj];
          divides_all = false;
          break;
        }
      }
    }
    if (!divides_all) {
      --t;  // redo this step with the updated row t
      continue;
    }

    if (a[t][t].is_negative()) a[t][t] = -a[t][t];
    result.invariants.push_back(a[t][t]);
  }
  return result;
}

SmithResult smith_normal_form(const SparseMatrix& matrix) {
  std::vector<std::vector<BigInt>> dense(
      matrix.rows(), std::vector<BigInt>(matrix.cols(), BigInt(0)));
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    for (const auto& [c, v] : matrix.row(r)) dense[r][c] = BigInt(v);
  }
  return smith_normal_form_dense(std::move(dense));
}

}  // namespace psph::math
