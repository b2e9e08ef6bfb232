#pragma once

// Discrete-Morse reduction, the homology engine's matrix-shrinking
// preprocessor.
//
// The augmented chain complex ... → C_1 → C_0 → Z → 0 is reduced by
// repeatedly removing *reduction pairs*: a (d-1)-cell with exactly one live
// coface (a free face) or a d-cell with exactly one live face in its
// boundary (a coreduction pair, Mrozek–Batko style). Either way the
// incidence coefficient is ±1 and the pair removal is a pure deletion — no
// other matrix entry changes value — so the surviving ("critical") cells
// carry boundary matrices whose entries are still ±1 and whose homology
// (Betti numbers AND torsion) is identical to the input complex's: each
// step is an elementary chain-complex reduction, a chain homotopy
// equivalence over Z.
//
// The augmentation cell participates: the first coreduction pairs away the
// augmentation against a vertex, which starts the cascade on a connected
// complex. On the connectivity-sweep and orbit-wall protocol complexes
// about half the cells survive it (kept ratios 0.50 and 0.58).
//
// The greedy elementary collapse the tests use as a contractibility oracle
// is test-only code (tests/oracle/greedy_collapse.h).

#include <cstddef>
#include <vector>

#include "math/matrix.h"
#include "topology/complex.h"

namespace psph::topology {

struct MorseComplex {
  /// critical[d] = number of critical d-cells, d = 0..top_dim.
  std::vector<std::size_t> critical;
  /// boundary[d] = reduced ∂_d over the critical cells (rows = critical
  /// (d-1)-cells, cols = critical d-cells), d = 0..top_dim. boundary[0] is
  /// the surviving augmentation map (0 or 1 rows).
  std::vector<math::SparseMatrix> boundary;
  /// Reduction pairs removed (each deletes two cells).
  std::size_t pairs = 0;
  /// Cells in play before/after, counting the augmentation cell.
  std::size_t cells_before = 0;
  std::size_t cells_after = 0;
};

/// Reduces the augmented chain complex of `k` truncated at dimension
/// `top_dim` (cells of higher dimension are ignored, which leaves homology
/// in dimensions < top_dim untouched — exactly the slice reduced_homology
/// reads when called with max_dim = top_dim - 1). Deterministic: a serial
/// cascade in a fixed seed order, independent of thread count.
MorseComplex morse_reduce(const SimplicialComplex& k, int top_dim);

}  // namespace psph::topology
