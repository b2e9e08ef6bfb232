#pragma once

// Elementary-collapse engine.
//
// A free face σ is a simplex with exactly one proper coface τ (necessarily
// of dimension dim σ + 1); removing the pair (σ, τ) is an elementary
// collapse and preserves homotopy type. A complex that collapses to a single
// vertex is contractible, hence k-connected for every k — a certificate
// strictly stronger than the homological proxy in homology.h. Greedy
// collapsing is not complete (some contractible complexes are not
// collapsible, and greedy order matters), so a `false` result is
// inconclusive. No production path reports a collapse certificate: the
// connectivity checks go through reduced_homology, and the greedy engine
// serves tests (collapsible ⇒ acyclic) and perf_topology.

#include <cstddef>
#include <vector>

#include "math/matrix.h"
#include "topology/complex.h"

namespace psph::topology {

struct CollapseResult {
  /// True if greedy collapsing reached a single vertex.
  bool collapsed_to_point = false;
  /// Number of elementary collapse steps performed.
  std::size_t steps = 0;
  /// Simplexes remaining when no free face was left.
  std::size_t remaining_faces = 0;
};

/// Greedily collapses the complex (highest-dimensional free faces first).
/// Runs on the full face poset; exponential in facet dimension, intended
/// for the instance sizes of the experiments.
CollapseResult collapse_greedily(const SimplicialComplex& k);

/// Convenience wrapper: true iff greedy collapsing certifies contractibility.
bool collapses_to_point(const SimplicialComplex& k);

// ------------------------------------------------------- Morse reduction --
//
// Matrix-shrinking preprocessor for the homology engine. The augmented
// chain complex ... → C_1 → C_0 → Z → 0 is reduced by repeatedly removing
// *reduction pairs*: a (d-1)-cell with exactly one live coface (a free
// face) or a d-cell with exactly one live face in its boundary (a
// coreduction pair, Mrozek–Batko style). Either way the incidence
// coefficient is ±1 and the pair removal is a pure deletion — no other
// matrix entry changes value — so the surviving ("critical") cells carry
// boundary matrices whose entries are still ±1 and whose homology (Betti
// numbers AND torsion) is identical to the input complex's: each step is an
// elementary chain-complex reduction, a chain homotopy equivalence over Z.
//
// The augmentation cell participates: the first coreduction pairs away the
// augmentation against a vertex, which starts the cascade on a connected
// complex. On the connectivity-sweep and orbit-wall protocol complexes
// about half the cells survive it (kept ratios 0.50 and 0.58).

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
