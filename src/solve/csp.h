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
//   * facets and vertex->facet adjacency are CSR rows (CspRows): one
//     offset array and one member array each, so a compiled problem is a
//     handful of allocations whatever its facet count, and frees in as few.
//
// Compilation reads each facet once, numbers vertices through a table over
// the arena's dense ids, fills the vertex->facet rows by a counting pass,
// and builds the validity masks bottom-up over the views, memoized in a
// table over the registry's dense ids. It polls the caller's deadline
// (util/cancel.h) every 4096 facets, so a psph_serve budget stops it on a
// large complex.
//
// The same module owns the engine-independent witness checker the
// differential tests and the decide layer's final defence both use: a
// claimed decision map is verified vertex-by-vertex (validity) and
// facet-by-facet (agreement) against the original complex, never against
// engine state.

#include <climits>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/view.h"
#include "topology/arena.h"
#include "topology/complex.h"

namespace psph::solve {

/// Hard cap on distinct decision values: a domain is one std::uint64_t.
inline constexpr int kMaxValues = 64;

/// Rows of ints stored end to end: row i is members[offsets[i] ..
/// offsets[i + 1]). Reads like a vector of index vectors.
struct CspRows {
  std::vector<int> offsets = {0};
  std::vector<int> members;

  std::size_t size() const { return offsets.size() - 1; }
  std::span<const int> operator[](std::size_t row) const {
    const auto begin = static_cast<std::size_t>(offsets[row]);
    const auto end = static_cast<std::size_t>(offsets[row + 1]);
    return {members.data() + begin, end - begin};
  }
  /// Appends `row` as the last row. Throws std::length_error when the
  /// members would outgrow an int offset.
  void push_back(std::span<const int> row) {
    if (row.size() > static_cast<std::size_t>(INT_MAX) - members.size()) {
      throw std::length_error("CspRows: more than INT_MAX members");
    }
    members.insert(members.end(), row.begin(), row.end());
    offsets.push_back(static_cast<int>(members.size()));
  }
};

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
  CspRows facets;
  /// Dense vertex -> indices of facets containing it, ascending.
  CspRows facets_of;
};

/// Compiles the decision-map CSP for `protocol` under k-set agreement;
/// validity domains are read from the views in (views, arena), the
/// registries the complex was built in. Throws util::DeadlineExceeded if
/// the calling thread's deadline passes mid-compilation.
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
