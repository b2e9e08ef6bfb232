#pragma once

// Simplicial homology and the homological-connectivity proxy for the paper's
// k-connectivity (Definition 1).
//
// We compute *reduced* homology of the augmented chain complex
//   ... → C_1 → C_0 → Z → 0.
// A complex K is reported "homologically q-connected" when it is nonempty
// and H̃_i(K) = 0 for all i ≤ q. Topological q-connectivity implies this;
// the converse needs simple-connectivity (Hurewicz), which holds for the
// pseudosphere unions the paper studies in the range its bounds need.
//
// Each dimension is computed one way:
//   * d = 0 — union-find over the facets (components.h). Over Z, H̃_0 is
//     free of rank (components − 1) with no torsion, so the count is exact
//     and no boundary matrix of ∂_1 is built, ranked or reduced. A
//     max_dim = 0 query builds no face lattice at all.
//   * d ≥ 1 — the face lattice through dimension max_dim + 1 (complex.h),
//     the discrete-Morse reduction (collapse.h), GF(p) ranks of the reduced
//     boundary maps, and in exact mode the Smith normal form over BigInt
//     for the integral rank and the torsion.

#include <cstdint>
#include <string>
#include <vector>

#include "math/bigint.h"
#include "math/matrix.h"
#include "math/modular.h"
#include "topology/complex.h"

namespace psph::topology {

/// Builds the boundary operator ∂_d : C_d → C_{d-1} with entries ±1 using
/// the sorted-vertex orientation. For d == 0 this returns the augmentation
/// map C_0 → Z (a single row of ones). Row indices are the ranks of the
/// (d-1)-simplexes and column indices those of the d-simplexes, the row
/// order of `face_rows_of_dim(d-1)` and `face_rows_of_dim(d)`.
math::SparseMatrix boundary_matrix(const SimplicialComplex& k, int d);

struct HomologyOptions {
  /// Compute H̃_d for d = 0..max_dim.
  int max_dim = 2;
  /// Field characteristic for the fast Betti path.
  std::int64_t prime = math::kDefaultPrime;
  /// Additionally run exact SNF and report torsion (slow on big complexes).
  bool exact = false;
  /// Run the discrete-Morse/coreduction preprocessor (collapse.h) and
  /// eliminate only the critical-cell matrices (dimensions >= 1; dimension
  /// 0 is union-find either way). Betti numbers and torsion are identical
  /// either way (enforced by tests/property_test.cpp); off exists for
  /// differential testing and for benchmarking the raw elimination path.
  bool morse = true;
};

struct HomologyReport {
  bool nonempty = false;
  /// reduced_betti[d] = rank of H̃_d over GF(p) (== rational rank barring
  /// torsion at p), for d = 0..max_dim.
  std::vector<long long> reduced_betti;
  /// Torsion coefficients per dimension (exact mode only), as decimal
  /// strings, e.g. {"2"} for a Z/2 summand.
  std::vector<std::vector<std::string>> torsion;
  bool exact = false;

  std::string to_string() const;
};

HomologyReport reduced_homology(const SimplicialComplex& k,
                                const HomologyOptions& options = {});

/// Largest q in [-1, up_to_dim] such that K is nonempty and H̃_i(K) = 0 for
/// all 0 ≤ i ≤ q. Returns -2 for the empty complex (which, per the paper's
/// convention, is k-connected only for k < -1). This is the machine proxy
/// for Definition 1 used throughout the experiments.
int homological_connectivity(const SimplicialComplex& k, int up_to_dim,
                             const HomologyOptions& options = {});

}  // namespace psph::topology
