#pragma once

// Multi-round protocol-complex construction.
//
// The r-round complexes of every model are inductive unions: expand each
// facet of the one-round complex by another round, recursively. The naive
// recursion (kept as the *_protocol_complex_seq reference functions) is
// depth-first. This module replaces it with one level loop on the calling
// thread, three phases per level:
//
//   1. DEDUPE   — the frontier (all facets awaiting one round of expansion)
//                 is deduplicated by (facet, model params). Hash-consing
//                 makes repeated facets common from round 2 on.
//   2. EXPAND   — each unique item is expanded in frontier order by the
//                 shared one-round expander (round_ops.h), interning straight
//                 into the canonical registries, into a vector local to the
//                 level. Views and vertices an earlier item of the same level
//                 created are found by hash-consing, so ids are fixed by the
//                 frontier order and the model's enumeration order alone.
//   3. CONSUME  — final-round items move their facets into the result via
//                 SimplicialComplex::add_facets (bulk fast lane); earlier
//                 rounds move their children into the next level with the
//                 failure budget reduced per adversary group.
//
// Nothing outlives the build: every child view is interned at round = input
// round + 1, so a one-round expansion never recurs at another depth, and
// DEDUPE already drops the repeats within a level. The loop polls the
// caller's deadline (util/cancel.h) once per level, per item in EXPAND and
// CONSUME, and per facet wherever orbit mode canonicalizes.
//
// ConstructionMode::kOrbit rides on the same loop (DESIGN §5.16): the
// orbit-quotient pipeline. The paper's round operators commute with joint
// process-name / input-value permutations, so when the input is symmetric
// under a group G the frontier partitions into G-orbits and one canonical
// representative per orbit suffices. DEDUPE canonicalizes each incoming
// facet (orbit.h) before keying, CONSUME canonicalizes the final-round facets
// into an orbit table carrying stabilizer sizes, and the exact facet count,
// f-vector, and homology of the *full* complex are recovered from orbit data
// (orbit_full_f_vector, reconstitute_full) — equal, value for value, to what
// the unreduced pipeline reports wherever both can run.

#include <cstdint>
#include <vector>

#include "core/async_complex.h"
#include "core/orbit.h"
#include "core/semisync_complex.h"
#include "core/sync_complex.h"
#include "core/view.h"
#include "topology/arena.h"
#include "topology/complex.h"
#include "topology/simplex.h"

namespace psph::core {

/// How the level loop treats the frontier.
enum class ConstructionMode : std::uint8_t {
  kFull = 0,   // expand every deduplicated facet
  kOrbit = 1,  // expand one canonical representative per symmetry orbit
};

/// Selects the construction a connectivity check (theorems.h) runs.
struct ConstructionOptions {
  ConstructionMode mode = ConstructionMode::kFull;
};

// ---- orbit-quotient results ----

/// One final-facet orbit: the canonical representative, its stabilizer size
/// (so |orbit| = |G| / stabilizer), and whether the orbit is dominated in
/// the full complex (its members are strict faces of some maximal facet;
/// dominated orbits contribute faces but no maximal facets).
struct OrbitRecord {
  topology::Simplex rep;
  std::uint32_t stabilizer = 1;
  bool dominated = false;
};

/// The orbit pipeline's output. `reduced` is the complex spanned by the
/// non-dominated representatives — an exact fundamental domain of the full
/// complex's maximal facets. The full complex itself is never materialized:
/// its facet count is reconstituted here via orbit–stabilizer, its f-vector
/// by orbit_full_f_vector, and (when it fits in RAM, e.g. for differential
/// tests) the complex itself by reconstitute_full.
struct OrbitComplexResult {
  topology::SimplicialComplex reduced;
  std::vector<OrbitRecord> orbits;  // first-seen order, dominated included
  SymmetryGroup group;
  /// Exact maximal-facet count of the full complex:
  /// Σ over non-dominated orbits of |G| / stabilizer.
  std::uint64_t full_facet_count = 0;
};

/// Exact f-vector of the full complex from orbit data: every face orbit of
/// the full complex has a representative among the faces of the
/// non-dominated facet representatives, so canonicalizing those faces and
/// summing orbit sizes per dimension counts all faces exactly once.
std::vector<std::size_t> orbit_full_f_vector(const OrbitComplexResult& result,
                                             ViewRegistry& views,
                                             topology::VertexArena& arena);

/// Materializes the full complex by applying every group element to every
/// non-dominated representative. Memory is proportional to the full facet
/// count — intended for differential tests and overlap verification, not
/// for beyond-the-wall sizes.
topology::SimplicialComplex reconstitute_full(const OrbitComplexResult& result,
                                              ViewRegistry& views,
                                              topology::VertexArena& arena);

// Orbit-quotient entry points, G = Aut(input facet) (the full diagonal
// symmetric group for a rainbow input). Output values (counts, f-vectors,
// homology of the reconstituted complex) match the full pipeline's — the
// plain *_protocol_complex functions of the model headers — wherever both
// can run; vertex/state ids are mode-local.

OrbitComplexResult async_protocol_complex_orbit(const topology::Simplex& input,
                                                const AsyncParams& params,
                                                ViewRegistry& views,
                                                topology::VertexArena& arena);

OrbitComplexResult sync_protocol_complex_orbit(const topology::Simplex& input,
                                               const SyncParams& params,
                                               ViewRegistry& views,
                                               topology::VertexArena& arena);

OrbitComplexResult semisync_protocol_complex_orbit(
    const topology::Simplex& input, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena);

OrbitComplexResult iis_protocol_complex_orbit(const topology::Simplex& input,
                                              int rounds, ViewRegistry& views,
                                              topology::VertexArena& arena);

// ---- retired: the construction memo cache ----
//
// These empty types and the four one-line forwards below exist only so the
// benchmark ledger (ledger/workloads.cpp) compiles unmodified; its next
// change drops them. stats() always reads zero.

struct ConstructionStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
};

class ConstructionCache {
 public:
  ConstructionStats stats() const { return {}; }
};

// Retired: forwards to async_protocol_complex(input, params, views, arena).
inline topology::SimplicialComplex async_protocol_complex(
    const topology::Simplex& input, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache&) {
  return async_protocol_complex(input, params, views, arena);
}

// Retired: forwards to sync_protocol_complex(input, params, views, arena).
inline topology::SimplicialComplex sync_protocol_complex(
    const topology::Simplex& input, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache&) {
  return sync_protocol_complex(input, params, views, arena);
}

// Retired: forwards to semisync_protocol_complex(input, params, views, arena).
inline topology::SimplicialComplex semisync_protocol_complex(
    const topology::Simplex& input, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache&) {
  return semisync_protocol_complex(input, params, views, arena);
}

// Retired: forwards to async_protocol_complex_orbit(input, params, views,
// arena); the options carry nothing the orbit pipeline reads.
inline OrbitComplexResult async_protocol_complex_orbit(
    const topology::Simplex& input, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache&,
    const ConstructionOptions&) {
  return async_protocol_complex_orbit(input, params, views, arena);
}

}  // namespace psph::core
