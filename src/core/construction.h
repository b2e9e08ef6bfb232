#pragma once

// Multi-round protocol-complex construction.
//
// The r-round complexes of every model are inductive unions: expand each
// facet of the one-round complex by another round, recursively. The naive
// recursion is depth-first; the tests keep it as their reference
// (tests/oracle/protocol_complex_seq.h). This module replaces it with one
// level loop on the calling thread, three phases per level:
//
//   1. DEDUPE   — the frontier (all facets awaiting one round of expansion)
//                 is deduplicated by (facet, model params). Hash-consing
//                 makes repeated facets common from round 2 on.
//   2. EXPAND   — each unique item is expanded in frontier order by the
//                 shared one-round expander (round_ops.h), interning straight
//                 into the canonical registries, into one row array local to
//                 the level. Views and vertices an earlier item of the same
//                 level created are found by hash-consing, so ids are fixed by
//                 the frontier order and the model's enumeration order alone.
//   3. CONSUME  — final-round items append each adversary group's rows to
//                 the result via SimplicialComplex::add_facets (bulk fast
//                 lane); earlier rounds hand the level's rows to the next
//                 level, each with the failure budget its group left.
//
// Facets travel as sorted vertex rows (topology/rows.h) from EXPAND to the
// complex: the frontier, the deduplicated items and a level's children are
// each one vertex array with offsets plus a params array, so no facet costs
// a heap vector of its own.
//
// Nothing outlives the build: every child view is interned at round = input
// round + 1, so a one-round expansion never recurs at another depth, and
// DEDUPE already drops the repeats within a level. The loop polls the
// caller's deadline (util/cancel.h) once per level, per item in EXPAND, per
// adversary group in CONSUME, and per facet wherever orbit mode
// canonicalizes.
//
// ConstructionMode::kOrbit rides on the same loop (DESIGN §5.16): the
// orbit-quotient pipeline. The paper's round operators commute with joint
// process-name / input-value permutations, so when the input is symmetric
// under a group G the frontier partitions into G-orbits and one canonical
// representative per orbit suffices. DEDUPE canonicalizes each incoming
// facet (orbit.h) before keying, CONSUME canonicalizes the final-round facets
// into an orbit table carrying stabilizer sizes, and the exact facet count,
// f-vector, components and homology of the *full* complex are recovered
// from orbit data (orbit_full_f_vector, orbit_full_components,
// reconstitute_full) — equal, value for value, to what the unreduced
// pipeline reports wherever both can run. Canonicalizing a
// final facet computes its image under every group element; the result
// keeps those image tables and, per orbit, the facet that produced them, so
// nothing after the build relabels or interns anything.

#include <cstdint>
#include <span>
#include <vector>

#include "core/async_complex.h"
#include "core/orbit.h"
#include "core/semisync_complex.h"
#include "core/sync_complex.h"
#include "core/view.h"
#include "topology/arena.h"
#include "topology/complex.h"
#include "topology/components.h"
#include "topology/rows.h"
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

/// One final-facet orbit as OrbitRecords hands it out: the canonical
/// representative, its stabilizer size (so |orbit| = |G| / stabilizer),
/// whether the orbit is dominated in the full complex (its members are
/// strict faces of some maximal facet; dominated orbits contribute faces but
/// no maximal facets), and its seed: the final facet the build first
/// canonicalized into this record. The seed's image under every group
/// element is in the result's `images`, so the whole orbit (= the seed's
/// images) is reachable by table reads. rep and seed are sorted rows in the
/// records' array, valid while the records live unchanged.
struct OrbitRecord {
  std::span<const topology::VertexId> rep;
  std::uint32_t stabilizer = 1;
  bool dominated = false;
  std::span<const topology::VertexId> seed;
};

/// A build's orbit records in first-seen order. Each record's rep and seed
/// (one width) sit side by side in one vertex array, so adding a record
/// copies two rows and reading one is an array read.
class OrbitRecords {
 public:
  /// Reads the records in order, each as an OrbitRecord value.
  class iterator {
   public:
    iterator(const OrbitRecords* records, std::size_t i)
        : records_(records), i_(i) {}
    OrbitRecord operator*() const { return (*records_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const iterator& other) const { return i_ == other.i_; }

   private:
    const OrbitRecords* records_;
    std::size_t i_;
  };

  std::size_t size() const { return records_.size(); }
  OrbitRecord operator[](std::size_t i) const {
    const Record& r = records_[i];
    return {rep(i), r.stabilizer, r.dominated,
            {rows_.data() + r.begin + r.width, r.width}};
  }
  std::span<const topology::VertexId> rep(std::size_t i) const {
    return {rows_.data() + records_[i].begin, records_[i].width};
  }
  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, size()}; }

  /// Appends a record, not dominated; rep and seed have one width and must
  /// not point into these records.
  void push_back(std::span<const topology::VertexId> rep,
                 std::uint32_t stabilizer,
                 std::span<const topology::VertexId> seed) {
    records_.push_back({rows_.size(), rep.size(), stabilizer, false});
    rows_.insert(rows_.end(), rep.begin(), rep.end());
    rows_.insert(rows_.end(), seed.begin(), seed.end());
  }
  void set_dominated(std::size_t i) { records_[i].dominated = true; }

 private:
  struct Record {
    std::size_t begin = 0;  // rep at rows_[begin], seed right after it
    std::size_t width = 0;
    std::uint32_t stabilizer = 1;
    bool dominated = false;
  };
  std::vector<topology::VertexId> rows_;
  std::vector<Record> records_;
};

/// The orbit pipeline's output. `reduced` is the complex spanned by the
/// non-dominated representatives — an exact fundamental domain of the full
/// complex's maximal facets. The full complex itself is never materialized:
/// its facet count is reconstituted here via orbit–stabilizer, its f-vector
/// by orbit_full_f_vector, and (when it fits in RAM, e.g. for differential
/// tests) the complex itself by reconstitute_full.
struct OrbitComplexResult {
  topology::SimplicialComplex reduced;
  OrbitRecords orbits;  // first-seen order, dominated included
  SymmetryGroup group;
  /// Exact maximal-facet count of the full complex:
  /// Σ over non-dominated orbits of |G| / stabilizer.
  std::uint64_t full_facet_count = 0;
  /// The build's vertex-image tables, bound to the registry pair it ran in:
  /// every seed vertex's image under every group element.
  OrbitImages images;
};

/// Exact f-vector of the full complex from orbit data. A non-dominated
/// facet orbit is maximal, so it counts |G| / stabilizer straight from its
/// record. Every other face orbit has a member among the proper faces of
/// the non-dominated seeds; those are canonicalized by reads from the
/// build's image tables, and each canonical face counts its orbit size
/// once. `views` and `arena` must be the pair the result was built in
/// (std::invalid_argument otherwise); neither is touched.
std::vector<std::size_t> orbit_full_f_vector(const OrbitComplexResult& result,
                                             ViewRegistry& views,
                                             topology::VertexArena& arena);

/// Materializes the full complex: the distinct images of every
/// non-dominated seed, read from the build's image tables. The facet set
/// equals the unreduced pipeline's; the insertion order is per orbit.
/// Memory is proportional to the full facet count — intended for homology,
/// differential tests and overlap verification, not for beyond-the-wall
/// sizes. Same registry-pair contract as orbit_full_f_vector.
topology::SimplicialComplex reconstitute_full(const OrbitComplexResult& result,
                                              ViewRegistry& views,
                                              topology::VertexArena& arena);

/// The full complex's components and f_0 without materializing it: the
/// component counter (topology/components.h) fed the image of every
/// non-dominated seed under every group element, read from the build's
/// image tables. Those images are the full complex's maximal facets, so
/// they span its 1-skeleton and carry all of its vertices. Polls the
/// caller's deadline every 4096 images. Same registry-pair contract as
/// orbit_full_f_vector.
topology::ComponentCounter orbit_full_components(
    const OrbitComplexResult& result, ViewRegistry& views,
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
