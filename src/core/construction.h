#pragma once

// Memoized multi-round protocol-complex construction.
//
// The r-round complexes of every model are inductive unions: expand each
// facet of the one-round complex by another round, recursively. The naive
// recursion (kept as the *_protocol_complex_seq reference functions) is
// depth-first. This module replaces it with a level-synchronous pipeline
// that is memoized across repeated facets and runs on the calling thread:
//
//   1. DEDUPE   — the frontier (all facets awaiting one round of expansion)
//                 is deduplicated by (facet, model params). Hash-consing
//                 makes repeated facets common from round 2 on.
//   2. LOOKUP   — each unique item is looked up in the ConstructionCache;
//                 hits skip expansion entirely.
//   3. EXPAND   — cache misses are expanded in frontier order by the shared
//                 one-round expander (round_ops.h), interning straight into
//                 the canonical registries, and stored in the cache. Views
//                 and vertices an earlier item of the same level created
//                 are found by hash-consing, so ids are fixed by the
//                 frontier order and the model's enumeration order alone.
//   4. CONSUME  — final-round items merge their facets into the result via
//                 SimplicialComplex::add_facets (bulk fast lane); earlier
//                 rounds enqueue children with the failure budget reduced
//                 per adversary group.
//
// The cache entry for (facet, params-minus-rounds) is the canonical
// one-round expansion, valid for the lifetime of the bound registry/arena
// pair — re-expansion is idempotent under hash-consing, which is what makes
// memoization sound. Shared across calls, the cache also accelerates
// sweeps that revisit the same parameter region.

// Two additions ride on the same level loop (DESIGN §5.16):
//
//   * ConstructionMode::kOrbit — the orbit-quotient pipeline. The paper's
//     round operators commute with joint process-name / input-value
//     permutations, so when the input is symmetric under a group G the
//     frontier partitions into G-orbits and one canonical representative
//     per orbit suffices. DEDUPE canonicalizes each incoming facet (orbit.h)
//     before keying, CONSUME canonicalizes the final-round facets into an
//     orbit table carrying stabilizer sizes, and the exact facet count,
//     f-vector, and homology of the *full* complex are recovered from orbit
//     data (orbit_full_f_vector, reconstitute_full) — equal, value for
//     value, to what the unreduced pipeline reports wherever both can run.
//
//   * Frontier spill — with ConstructionOptions::frontier_budget_bytes > 0
//     the raw child stream between levels is encoded into fixed-size chunks
//     and handed to a FrontierStorage (store::FrontierSpool seals them into
//     checksummed envelopes on disk), so peak memory holds the deduped level
//     plus one chunk instead of the whole raw frontier. Chunks are drained
//     in write order, which is the exact push order of the in-RAM path, so
//     results are bit-identical at any budget.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/orbit.h"
#include "core/round_ops.h"
#include "core/view.h"
#include "topology/arena.h"
#include "topology/complex.h"
#include "topology/simplex.h"
#include "util/hash.h"

namespace psph::core {

/// How the level-synchronous pipeline treats the frontier.
enum class ConstructionMode : std::uint8_t {
  kFull = 0,   // expand every deduplicated facet (the PR-4 pipeline)
  kOrbit = 1,  // expand one canonical representative per symmetry orbit
};

/// Sink/source for spilled frontier chunks. The pipeline writes encoded
/// chunks in push order during CONSUME and reads them back in the same
/// order at the next level's DEDUPE, then clears. Implementations:
/// InMemoryFrontierStorage below (tests, budget-only runs) and
/// store::FrontierSpool (sealed envelopes on disk).
class FrontierStorage {
 public:
  virtual ~FrontierStorage() = default;
  /// Appends one encoded chunk.
  virtual void append_chunk(const std::vector<std::uint8_t>& bytes) = 0;
  virtual std::size_t chunk_count() const = 0;
  /// Chunk `index` in append order; throws on out-of-range or (for durable
  /// implementations) corrupt bytes.
  virtual std::vector<std::uint8_t> read_chunk(std::size_t index) const = 0;
  /// Drops every chunk (one level has been fully consumed).
  virtual void clear() = 0;
};

/// Chunks held in RAM — exercises the exact encode/chunk/drain path without
/// touching disk. Also the pipeline's fallback when a budget is set but no
/// storage is supplied.
class InMemoryFrontierStorage final : public FrontierStorage {
 public:
  void append_chunk(const std::vector<std::uint8_t>& bytes) override {
    chunks_.push_back(bytes);
  }
  std::size_t chunk_count() const override { return chunks_.size(); }
  std::vector<std::uint8_t> read_chunk(std::size_t index) const override {
    if (index >= chunks_.size()) {
      throw std::out_of_range("InMemoryFrontierStorage: chunk index");
    }
    return chunks_[index];
  }
  void clear() override { chunks_.clear(); }

 private:
  std::vector<std::vector<std::uint8_t>> chunks_;
};

struct ConstructionOptions {
  ConstructionMode mode = ConstructionMode::kFull;
  /// 0 keeps the whole next-level frontier in RAM (the historical path).
  /// Positive: children are encoded as they are produced and flushed to
  /// `storage` in chunks of ~budget/2 bytes, bounding frontier RAM.
  std::uint64_t frontier_budget_bytes = 0;
  /// Where spilled chunks go. Ignored when the budget is 0; when the budget
  /// is positive and this is null the pipeline uses a private
  /// InMemoryFrontierStorage (chunked, but not out-of-core).
  FrontierStorage* storage = nullptr;
};

struct ConstructionStats {
  std::uint64_t lookups = 0;  // cache probes, one per unique frontier item
  std::uint64_t hits = 0;     // probes answered from the cache
  std::uint64_t misses = 0;   // probes that required an expansion
  std::uint64_t deduped = 0;  // frontier duplicates dropped before probing
};

/// Memo cache for canonical one-round expansions, keyed by
/// (construction mode, model, params-minus-rounds, facet vertex ids).
/// Entries hold canonical StateId / VertexId references, so a cache is
/// bound to the first (ViewRegistry, VertexArena) pair it is used with and
/// rejects any other. The mode byte keeps orbit-mode and full-mode entries
/// (and their stats) apart: the two pipelines probe with different facet
/// populations, and letting them cross-hit would make hit/miss accounting
/// meaningless — stats are kept per mode, with stats() aggregating.
class ConstructionCache {
 public:
  /// Key and Entry are an implementation detail of the pipeline; they are
  /// public only so construction.cpp can drive the cache.
  struct Key {
    std::uint8_t model = 0;
    std::uint8_t mode = 0;  // ConstructionMode, as its underlying byte
    std::uint64_t params = 0;  // packed model params, excluding rounds
    std::vector<topology::VertexId> facet;

    bool operator==(const Key& other) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      std::size_t h =
          util::hash_combine(std::hash<std::uint8_t>{}(key.model),
                             std::hash<std::uint64_t>{}(key.params));
      h = util::hash_combine(h, std::hash<std::uint8_t>{}(key.mode));
      for (const topology::VertexId v : key.facet) {
        h = util::hash_combine(h, std::hash<topology::VertexId>{}(v));
      }
      return h;
    }
  };
  struct Entry {
    std::vector<detail::RoundGroup> groups;
  };

  ConstructionCache() = default;

  /// Aggregate across both modes (the historical accessor).
  ConstructionStats stats() const {
    ConstructionStats total;
    for (const ConstructionStats& s : stats_) {
      total.lookups += s.lookups;
      total.hits += s.hits;
      total.misses += s.misses;
      total.deduped += s.deduped;
    }
    return total;
  }
  /// Stats for one construction mode only.
  const ConstructionStats& stats(ConstructionMode mode) const {
    return stats_[static_cast<std::size_t>(mode)];
  }
  std::size_t size() const { return entries_.size(); }

  /// Binds the cache to a registry/arena pair on first use; throws
  /// std::logic_error if later used with a different pair (the cached ids
  /// would be meaningless there).
  void bind(const ViewRegistry& views, const topology::VertexArena& arena) {
    if (views_ == nullptr) {
      views_ = &views;
      arena_ = &arena;
      return;
    }
    if (views_ != &views || arena_ != &arena) {
      throw std::logic_error(
          "ConstructionCache: already bound to a different registry/arena");
    }
  }

  /// Counted probe: records a lookup plus a hit or miss against the mode
  /// the key carries.
  const Entry* lookup(const Key& key) {
    ConstructionStats& stats = stats_[key.mode];
    ++stats.lookups;
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats.misses;
      return nullptr;
    }
    ++stats.hits;
    return &it->second;
  }

  /// Uncounted probe (pipeline-internal re-reads).
  const Entry* peek(const Key& key) const {
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }

  void store(Key key, Entry entry) {
    entries_.emplace(std::move(key), std::move(entry));
  }

  void note_dedup(ConstructionMode mode) {
    ++stats_[static_cast<std::size_t>(mode)].deduped;
  }

 private:
  const ViewRegistry* views_ = nullptr;
  const topology::VertexArena* arena_ = nullptr;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  ConstructionStats stats_[2];  // indexed by ConstructionMode
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

// Cache-sharing entry points. The plain *_protocol_complex functions in the
// model headers are thin wrappers that run these with a throwaway cache;
// pass your own cache to amortize expansions across calls (sweeps, theorem
// batteries, repeated rounds over one input complex). `options` controls
// frontier spill; its mode must be kFull here (the orbit pipeline returns
// orbit data through the *_orbit entry points below).

topology::SimplicialComplex async_protocol_complex(
    const topology::Simplex& input, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options = {});

topology::SimplicialComplex async_protocol_complex_over(
    const topology::SimplicialComplex& inputs, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options = {});

topology::SimplicialComplex sync_protocol_complex(
    const topology::Simplex& input, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options = {});

topology::SimplicialComplex sync_protocol_complex_over(
    const topology::SimplicialComplex& inputs, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options = {});

topology::SimplicialComplex semisync_protocol_complex(
    const topology::Simplex& input, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options = {});

topology::SimplicialComplex semisync_protocol_complex_over(
    const topology::SimplicialComplex& inputs, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options = {});

topology::SimplicialComplex iis_protocol_complex(
    const topology::Simplex& input, int rounds, ViewRegistry& views,
    topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options = {});

topology::SimplicialComplex iis_protocol_complex_over(
    const topology::SimplicialComplex& inputs, int rounds, ViewRegistry& views,
    topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options = {});

// Orbit-quotient entry points. Single-facet forms take G = Aut(input facet)
// (the full diagonal symmetric group for a rainbow input); _over forms take
// G = Aut(input complex). options.mode is forced to kOrbit. Output values
// (counts, f-vectors, homology of the reconstituted complex) match the full
// pipeline's wherever both can run; vertex/state ids are mode-local.

OrbitComplexResult async_protocol_complex_orbit(
    const topology::Simplex& input, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options = {});

OrbitComplexResult async_protocol_complex_orbit_over(
    const topology::SimplicialComplex& inputs, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options = {});

OrbitComplexResult sync_protocol_complex_orbit(
    const topology::Simplex& input, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options = {});

OrbitComplexResult sync_protocol_complex_orbit_over(
    const topology::SimplicialComplex& inputs, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options = {});

OrbitComplexResult semisync_protocol_complex_orbit(
    const topology::Simplex& input, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options = {});

OrbitComplexResult semisync_protocol_complex_orbit_over(
    const topology::SimplicialComplex& inputs, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options = {});

OrbitComplexResult iis_protocol_complex_orbit(
    const topology::Simplex& input, int rounds, ViewRegistry& views,
    topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options = {});

OrbitComplexResult iis_protocol_complex_orbit_over(
    const topology::SimplicialComplex& inputs, int rounds, ViewRegistry& views,
    topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options = {});

}  // namespace psph::core
