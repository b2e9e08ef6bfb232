#pragma once

// Compilation of a decision-map question into a dense CSP (DESIGN §5.17).
//
// "Does a k-set-agreement decision map exist on this protocol complex?" is
// a finite constraint problem: one variable per protocol vertex, the
// variable's domain the inputs visible in its view (validity), and one
// at-most-k-distinct-values constraint per facet (agreement). The seed
// backtracker (the test oracle under tests/oracle) re-derives this
// structure at every search node; the solvability engine compiles it once
// into flat arrays the propagator can update incrementally:
//
//   * values are dense-indexed (0..num_values-1) so a domain is one 64-bit
//     mask — the engine supports up to 64 distinct decision values, far
//     above what any k-set-agreement instance reaches (k+1 inputs);
//   * facets and vertex->facet adjacency are index vectors.
//
// The same module owns the engine-independent witness checker the
// differential tests and the decide layer's final defence both use: a
// claimed decision map is verified vertex-by-vertex (validity) and
// facet-by-facet (agreement) against the original complex, never against
// engine state.

#include <cstdint>
#include <string>
#include <vector>

#include "core/view.h"
#include "topology/arena.h"
#include "topology/complex.h"

namespace psph::solve {

/// Hard cap on distinct decision values: a domain is one std::uint64_t.
inline constexpr int kMaxValues = 64;

struct CspProblem {
  int k = 1;
  int num_values = 0;
  /// Dense value index -> original decision value, sorted ascending (so
  /// "ascending dense index" is "ascending value" — lex-min witnesses are
  /// lex-min in the original values too).
  std::vector<std::int64_t> value_of;
  /// Dense vertex index -> protocol-complex vertex id.
  std::vector<topology::VertexId> vertex_ids;
  /// Root validity domain per dense vertex (bit i = value_of[i] allowed).
  std::vector<std::uint64_t> domains;
  /// Facet -> member dense vertex indices (each facet of the complex).
  std::vector<std::vector<int>> facets;
  /// Dense vertex -> indices of facets containing it.
  std::vector<std::vector<int>> facets_of;
};

/// Compiles the decision-map CSP for `protocol` under k-set agreement;
/// validity domains are read from the views in (views, arena), the
/// registries the complex was built in.
CspProblem compile_csp(const topology::SimplicialComplex& protocol, int k,
                       const core::ViewRegistry& views,
                       const topology::VertexArena& arena);

struct WitnessCheck {
  bool ok = true;
  std::string reason;  // human-readable defect when !ok
};

/// Verifies a dense assignment (value index per vertex) against the
/// compiled problem: every vertex inside its validity domain, every facet
/// carrying at most k distinct values. Independent of any engine state.
WitnessCheck verify_witness(const CspProblem& problem,
                            const std::vector<int>& assignment);

}  // namespace psph::solve
