#include "topology/collapse.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "obs/obs.h"
#include "util/cancel.h"

namespace psph::topology {

namespace {

// Morse observability: one span per reduction, aggregate counters for the
// shrink the preprocessor achieves, and a per-call shrink-ratio gauge.
obs::Counter g_morse_pairs("morse.pairs");
obs::Counter g_morse_rows_before("morse.rows_before");
obs::Counter g_morse_rows_after("morse.rows_after");
obs::Counter g_morse_cols_before("morse.cols_before");
obs::Counter g_morse_cols_after("morse.cols_after");
obs::Gauge g_morse_shrink("morse.shrink_ratio");

// One boundary operator ∂_d of the augmented complex in the cell index
// space: columns are the d-cells (their rows come from the complex's
// boundary-link table; for d == 0 every column hits the single augmentation
// row), rows are the (d-1)-cells stored CSR-style with the ±1 incidence
// signs. Entries are never rewritten — the cascade only deletes cells — so
// liveness is tracked per cell and per-row/per-column live-entry counts.
struct MorseLevel {
  const std::size_t* links = nullptr;  // d >= 1: (d+1) row ids per column
  std::vector<std::uint32_t> row_ptr;
  std::vector<std::uint32_t> row_col;
  std::vector<std::int8_t> row_val;
  std::vector<std::uint32_t> row_live;
  std::vector<std::uint32_t> col_live;
};

}  // namespace

MorseComplex morse_reduce(const SimplicialComplex& k, int top_dim) {
  obs::SpanTimer span("morse.reduce", static_cast<std::int64_t>(top_dim));
  MorseComplex out;
  if (top_dim < 0) top_dim = 0;
  out.critical.assign(static_cast<std::size_t>(top_dim) + 1, 0);
  out.boundary.assign(static_cast<std::size_t>(top_dim) + 1,
                      math::SparseMatrix(0, 0));
  if (k.empty()) return out;

  // Cells of dimension -1..D, D the truncation depth; alive[t] holds the
  // (t-1)-cells, t == 0 being the single augmentation cell.
  const int D = std::min(top_dim, k.dimension());
  k.warm_face_cache(D);
  std::vector<std::size_t> counts(static_cast<std::size_t>(D) + 1);
  for (int d = 0; d <= D; ++d) {
    counts[static_cast<std::size_t>(d)] = k.count_of_dim(d);
  }
  std::vector<std::vector<char>> alive(static_cast<std::size_t>(D) + 2);
  alive[0].assign(1, 1);
  for (int d = 0; d <= D; ++d) {
    alive[static_cast<std::size_t>(d) + 1].assign(
        counts[static_cast<std::size_t>(d)], 1);
  }

  // Cooperative cancellation (util/cancel.h) in the two loops that scale
  // with the complex: the transpose, every 4096 columns, and the cascade,
  // every 4096 pops.
  const auto poll_every_4096 = [](std::size_t item) {
    if ((item & 4095) == 0) util::poll_deadline();
  };

  // Build ∂_0..∂_D: the column side reads the complex's boundary-link
  // table in place; the row side (needed to find a cell's cofaces) is a
  // counting-sort transpose. Iterating columns in ascending order leaves
  // every row's entries sorted by column, which the critical-matrix
  // emission below relies on.
  std::vector<MorseLevel> levels(static_cast<std::size_t>(D) + 1);
  {
    MorseLevel& aug = levels[0];
    const std::uint32_t n0 = static_cast<std::uint32_t>(counts[0]);
    aug.row_ptr = {0, n0};
    aug.row_col.resize(n0);
    aug.row_val.assign(n0, 1);
    for (std::uint32_t j = 0; j < n0; ++j) aug.row_col[j] = j;
    aug.row_live.assign(1, n0);
    aug.col_live.assign(n0, 1);
  }
  for (int d = 1; d <= D; ++d) {
    MorseLevel& level = levels[static_cast<std::size_t>(d)];
    const std::size_t rows = counts[static_cast<std::size_t>(d) - 1];
    const std::size_t cols = counts[static_cast<std::size_t>(d)];
    const std::size_t fanout = static_cast<std::size_t>(d) + 1;
    level.links = k.boundary_links_of_dim(d).data();
    level.row_ptr.assign(rows + 1, 0);
    for (std::size_t e = 0; e < cols * fanout; ++e) {
      ++level.row_ptr[level.links[e] + 1];
    }
    for (std::size_t r = 0; r < rows; ++r) {
      level.row_ptr[r + 1] += level.row_ptr[r];
    }
    level.row_col.resize(cols * fanout);
    level.row_val.resize(cols * fanout);
    std::vector<std::uint32_t> fill(level.row_ptr.begin(),
                                    level.row_ptr.end() - 1);
    for (std::size_t c = 0; c < cols; ++c) {
      poll_every_4096(c);
      std::int8_t sign = 1;
      for (std::size_t omit = 0; omit < fanout; ++omit) {
        const std::size_t r = level.links[c * fanout + omit];
        level.row_col[fill[r]] = static_cast<std::uint32_t>(c);
        level.row_val[fill[r]] = sign;
        ++fill[r];
        sign = -sign;
      }
    }
    level.row_live.assign(rows, 0);
    for (std::size_t r = 0; r < rows; ++r) {
      level.row_live[r] = level.row_ptr[r + 1] - level.row_ptr[r];
    }
    level.col_live.assign(cols, static_cast<std::uint32_t>(fanout));
  }

  std::size_t cells = 1;
  for (int d = 0; d <= D; ++d) cells += counts[static_cast<std::size_t>(d)];
  out.cells_before = cells;

  // The cascade worklist. kind 0: row singleton in ∂_d (a free (d-1)-face
  // with one live coface); kind 1: column singleton in ∂_d (a d-cell whose
  // boundary has one live face — a coreduction pair). Both remove the same
  // kind of pair; candidates are re-validated when popped.
  struct Candidate {
    std::int32_t d;
    std::int32_t kind;
    std::uint32_t idx;
  };
  std::vector<Candidate> work;
  for (int d = 0; d <= D; ++d) {
    const MorseLevel& level = levels[static_cast<std::size_t>(d)];
    for (std::uint32_t i = 0; i < level.row_live.size(); ++i) {
      if (level.row_live[i] == 1) work.push_back({d, 0, i});
    }
    for (std::uint32_t j = 0; j < level.col_live.size(); ++j) {
      if (level.col_live[j] == 1) work.push_back({d, 1, j});
    }
  }

  // Propagates the death of cell (dim, x): its own boundary loses a
  // coface (column side of ∂_dim), its cofaces lose a face (row side of
  // ∂_{dim+1}). New singletons join the worklist.
  const auto propagate = [&](int dim, std::uint32_t x) {
    if (dim >= 0) {
      MorseLevel& level = levels[static_cast<std::size_t>(dim)];
      if (dim == 0) {
        if (alive[0][0] != 0 && --level.row_live[0] == 1) {
          work.push_back({0, 0, 0});
        }
      } else {
        const std::size_t fanout = static_cast<std::size_t>(dim) + 1;
        for (std::size_t omit = 0; omit < fanout; ++omit) {
          const std::size_t r = level.links[x * fanout + omit];
          if (alive[static_cast<std::size_t>(dim)][r] == 0) continue;
          if (--level.row_live[r] == 1) {
            work.push_back({dim, 0, static_cast<std::uint32_t>(r)});
          }
        }
      }
    }
    if (dim + 1 <= D) {
      MorseLevel& level = levels[static_cast<std::size_t>(dim) + 1];
      for (std::uint32_t e = level.row_ptr[x]; e < level.row_ptr[x + 1];
           ++e) {
        const std::uint32_t c = level.row_col[e];
        if (alive[static_cast<std::size_t>(dim) + 2][c] == 0) continue;
        if (--level.col_live[c] == 1) {
          work.push_back({dim + 1, 1, c});
        }
      }
    }
  };

  for (std::size_t pops = 0; !work.empty(); ++pops) {
    poll_every_4096(pops);
    const Candidate cand = work.back();
    work.pop_back();
    const MorseLevel& level = levels[static_cast<std::size_t>(cand.d)];
    std::uint32_t i = 0;  // (d-1)-cell row
    std::uint32_t j = 0;  // d-cell column
    if (cand.kind == 0) {
      i = cand.idx;
      if (alive[static_cast<std::size_t>(cand.d)][i] == 0 ||
          level.row_live[i] != 1) {
        continue;
      }
      bool found = false;
      for (std::uint32_t e = level.row_ptr[i]; e < level.row_ptr[i + 1];
           ++e) {
        const std::uint32_t c = level.row_col[e];
        if (alive[static_cast<std::size_t>(cand.d) + 1][c] != 0) {
          j = c;
          found = true;
          break;
        }
      }
      assert(found);
      if (!found) continue;
    } else {
      j = cand.idx;
      if (alive[static_cast<std::size_t>(cand.d) + 1][j] == 0 ||
          level.col_live[j] != 1) {
        continue;
      }
      bool found = false;
      if (cand.d == 0) {
        if (alive[0][0] != 0) {
          i = 0;
          found = true;
        }
      } else {
        const std::size_t fanout = static_cast<std::size_t>(cand.d) + 1;
        for (std::size_t omit = 0; omit < fanout; ++omit) {
          const std::size_t r = level.links[j * fanout + omit];
          if (alive[static_cast<std::size_t>(cand.d)][r] != 0) {
            i = static_cast<std::uint32_t>(r);
            found = true;
            break;
          }
        }
      }
      assert(found);
      if (!found) continue;
    }
    // Remove the pair ((d-1)-cell i, d-cell j). The incidence coefficient
    // is ±1 by construction and no surviving entry changes value, so this
    // is an elementary reduction of the chain complex.
    alive[static_cast<std::size_t>(cand.d)][i] = 0;
    alive[static_cast<std::size_t>(cand.d) + 1][j] = 0;
    ++out.pairs;
    propagate(cand.d - 1, i);
    propagate(cand.d, j);
  }

  out.cells_after = out.cells_before - 2 * out.pairs;

  // Critical-cell ranks per dimension, in the original (sorted) order, and
  // the reduced boundary matrices over them. Row entry lists are sorted by
  // column, so SparseMatrix::set always appends.
  std::vector<std::vector<std::uint32_t>> rank(
      static_cast<std::size_t>(D) + 2);
  for (std::size_t t = 0; t < alive.size(); ++t) {
    rank[t].assign(alive[t].size(), 0);
    std::uint32_t next = 0;
    for (std::size_t x = 0; x < alive[t].size(); ++x) {
      rank[t][x] = next;
      if (alive[t][x] != 0) ++next;
    }
    if (t >= 1) out.critical[t - 1] = next;
  }
  for (int d = 0; d <= top_dim; ++d) {
    const std::size_t crit_rows =
        d == 0 ? (alive[0][0] != 0 ? 1u : 0u)
               : (d - 1 <= D ? out.critical[static_cast<std::size_t>(d) - 1]
                             : 0);
    const std::size_t crit_cols =
        d <= D ? out.critical[static_cast<std::size_t>(d)] : 0;
    math::SparseMatrix reduced(crit_rows, crit_cols);
    if (d <= D && crit_rows > 0 && crit_cols > 0) {
      const MorseLevel& level = levels[static_cast<std::size_t>(d)];
      for (std::size_t r = 0; r < level.row_live.size(); ++r) {
        if (alive[static_cast<std::size_t>(d)][r] == 0) continue;
        for (std::uint32_t e = level.row_ptr[r]; e < level.row_ptr[r + 1];
             ++e) {
          const std::uint32_t c = level.row_col[e];
          if (alive[static_cast<std::size_t>(d) + 1][c] == 0) continue;
          reduced.set(rank[static_cast<std::size_t>(d)][r],
                      rank[static_cast<std::size_t>(d) + 1][c],
                      level.row_val[e]);
        }
      }
    }
    out.boundary[static_cast<std::size_t>(d)] = std::move(reduced);
  }

  // Aggregate shrink accounting: rows/cols summed over ∂_0..∂_D.
  std::size_t rows_before = 1;
  std::size_t cols_before = 0;
  std::size_t rows_after = alive[0][0] != 0 ? 1 : 0;
  std::size_t cols_after = 0;
  for (int d = 0; d <= D; ++d) {
    cols_before += counts[static_cast<std::size_t>(d)];
    cols_after += out.critical[static_cast<std::size_t>(d)];
    if (d < D) {
      rows_before += counts[static_cast<std::size_t>(d)];
      rows_after += out.critical[static_cast<std::size_t>(d)];
    }
  }
  g_morse_pairs.add(out.pairs);
  g_morse_rows_before.add(rows_before);
  g_morse_rows_after.add(rows_after);
  g_morse_cols_before.add(cols_before);
  g_morse_cols_after.add(cols_after);
  if (out.cells_before > 0) {
    g_morse_shrink.set(static_cast<double>(out.cells_after) /
                       static_cast<double>(out.cells_before));
  }
  return out;
}

}  // namespace psph::topology
