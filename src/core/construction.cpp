#include "core/construction.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "util/cancel.h"

namespace psph::core {

namespace {

// Pipeline observability (obs.h): one span per level phase, counters
// mirroring the ConstructionStats the memo cache keeps per-instance, so a
// --stats/--trace-out run shows cache behaviour aggregated across every
// cache the process touched.
obs::Counter g_obs_frontier("construction.frontier_items");
obs::Counter g_obs_hits("construction.cache_hits");
obs::Counter g_obs_misses("construction.cache_misses");
obs::Counter g_obs_deduped("construction.deduped");
obs::Gauge g_obs_level_width("construction.level_width");
// Orbit-quotient and spill observability.
obs::Counter g_obs_orbit_canonicalized("construction.orbit_canonicalized");
obs::Counter g_obs_orbit_reps("construction.orbit_reps");
obs::Counter g_obs_spill_chunks_written("construction.spill_chunks_written");
obs::Counter g_obs_spill_chunks_read("construction.spill_chunks_read");
obs::Counter g_obs_spill_bytes_written("construction.spill_bytes_written");

// Packs up to four small model parameters into one cache-key word. All the
// packed quantities (process counts, failure budgets, microrounds) are tiny
// non-negative ints, so 16 bits each is ample.
std::uint64_t pack16(int a, int b, int c, int d) {
  const auto u = [](int x) {
    return static_cast<std::uint64_t>(static_cast<std::uint16_t>(x));
  };
  return u(a) | (u(b) << 16) | (u(c) << 32) | (u(d) << 48);
}

int unpack16(std::uint64_t key, int slot) {
  return static_cast<int>((key >> (16 * slot)) & 0xffff);
}

// Model adapters: everything the generic driver needs to know about one
// model. params_key must cover every parameter the one-round expansion
// depends on *except* the remaining round count (entries are one-round
// expansions, reusable at any depth); child() advances the params across
// one round given the failures the adversary group consumed; unpack()
// inverts params_key + rounds, which is how spilled frontier items get
// their Params back after a chunk round-trip.

struct AsyncModel {
  using Params = AsyncParams;
  static constexpr std::uint8_t kTag = 1;
  static std::uint64_t params_key(const Params& p) {
    return pack16(p.num_processes, p.max_failures, 0, 0);
  }
  static Params unpack(std::uint64_t key, int rounds) {
    Params p;
    p.num_processes = unpack16(key, 0);
    p.max_failures = unpack16(key, 1);
    p.rounds = rounds;
    return p;
  }
  static int rounds(const Params& p) { return p.rounds; }
  static Params child(Params p, int /*failures_used*/) {
    --p.rounds;
    return p;
  }
  static void expand(const topology::Simplex& facet, const Params& p,
                     ViewRegistry& views, topology::VertexArena& arena,
                     std::vector<detail::RoundGroup>* out) {
    detail::expand_async_round(facet, p, views, arena, out);
  }
};

struct SyncModel {
  using Params = SyncParams;
  static constexpr std::uint8_t kTag = 2;
  static std::uint64_t params_key(const Params& p) {
    return pack16(p.num_processes, p.total_failures, p.failures_per_round, 0);
  }
  static Params unpack(std::uint64_t key, int rounds) {
    Params p;
    p.num_processes = unpack16(key, 0);
    p.total_failures = unpack16(key, 1);
    p.failures_per_round = unpack16(key, 2);
    p.rounds = rounds;
    return p;
  }
  static int rounds(const Params& p) { return p.rounds; }
  static Params child(Params p, int failures_used) {
    --p.rounds;
    p.total_failures -= failures_used;
    return p;
  }
  static void expand(const topology::Simplex& facet, const Params& p,
                     ViewRegistry& views, topology::VertexArena& arena,
                     std::vector<detail::RoundGroup>* out) {
    detail::expand_sync_round(facet, p, views, arena, out);
  }
};

struct SemiSyncModel {
  using Params = SemiSyncParams;
  static constexpr std::uint8_t kTag = 3;
  static std::uint64_t params_key(const Params& p) {
    return pack16(p.num_processes, p.total_failures, p.failures_per_round,
                  p.micro_rounds);
  }
  static Params unpack(std::uint64_t key, int rounds) {
    Params p;
    p.num_processes = unpack16(key, 0);
    p.total_failures = unpack16(key, 1);
    p.failures_per_round = unpack16(key, 2);
    p.micro_rounds = unpack16(key, 3);
    p.rounds = rounds;
    return p;
  }
  static int rounds(const Params& p) { return p.rounds; }
  static Params child(Params p, int failures_used) {
    --p.rounds;
    p.total_failures -= failures_used;
    return p;
  }
  static void expand(const topology::Simplex& facet, const Params& p,
                     ViewRegistry& views, topology::VertexArena& arena,
                     std::vector<detail::RoundGroup>* out) {
    detail::expand_semisync_round(facet, p, views, arena, out);
  }
};

struct IisParams {
  int rounds = 1;
};

struct IisModel {
  using Params = IisParams;
  static constexpr std::uint8_t kTag = 4;
  static std::uint64_t params_key(const Params&) { return 0; }
  static Params unpack(std::uint64_t /*key*/, int rounds) {
    return Params{rounds};
  }
  static int rounds(const Params& p) { return p.rounds; }
  static Params child(Params p, int /*failures_used*/) {
    --p.rounds;
    return p;
  }
  static void expand(const topology::Simplex& facet, const Params&,
                     ViewRegistry& views, topology::VertexArena& arena,
                     std::vector<detail::RoundGroup>* out) {
    detail::expand_iis_round(facet, views, arena, out);
  }
};

// ---- frontier chunk codec ----
//
// A spilled frontier item is (params, facet): u64 packed params key,
// u32 remaining rounds, u32 vertex count, then the sorted vertex ids as
// u32s. Little-endian fixed width, matching the store's conventions, but
// encoded here so psph_core stays free of a psph_store dependency — the
// storage backend only ever sees opaque chunk bytes (and seals/checksums
// them itself).

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
}

class ChunkReader {
 public:
  ChunkReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  bool done() const { return pos_ == size_; }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) {
      throw std::runtime_error("construction: truncated frontier chunk");
    }
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

template <typename Model>
void encode_item(std::vector<std::uint8_t>& out, const topology::Simplex& facet,
                 const typename Model::Params& params) {
  put_u64(out, Model::params_key(params));
  put_u32(out, static_cast<std::uint32_t>(Model::rounds(params)));
  put_u32(out, static_cast<std::uint32_t>(facet.size()));
  for (const topology::VertexId v : facet.vertices()) put_u32(out, v);
}

// The next-level frontier. budget == 0 buffers plain (facet, params) pairs
// in RAM, exactly the historical path. budget > 0 encodes every pushed item
// and flushes ~budget/2-byte chunks to storage; drain() then replays chunks
// in write order followed by the unflushed tail — the same item order the
// in-RAM path produces, which is what keeps results bit-identical at any
// budget.
template <typename Model>
class LevelQueue {
 public:
  using Params = typename Model::Params;

  LevelQueue(std::uint64_t budget, FrontierStorage* storage)
      : budget_(budget),
        storage_(storage),
        chunk_bytes_(std::max<std::uint64_t>(budget / 2, 256)) {}

  void push(topology::Simplex facet, const Params& params) {
    ++count_;
    if (budget_ == 0) {
      ram_.emplace_back(std::move(facet), params);
      return;
    }
    encode_item<Model>(buffer_, facet, params);
    if (buffer_.size() >= chunk_bytes_) flush();
  }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// Feeds every item to `fn(Simplex, const Params&)` in push order and
  /// resets the queue (chunks are cleared from storage before `fn` can push
  /// the next level's items back into it).
  template <typename Fn>
  void drain(Fn&& fn) {
    count_ = 0;
    if (budget_ == 0) {
      std::vector<std::pair<topology::Simplex, Params>> items =
          std::move(ram_);
      ram_.clear();
      for (auto& [facet, params] : items) fn(std::move(facet), params);
      return;
    }
    const std::size_t chunks = storage_->chunk_count();
    std::vector<std::uint8_t> tail = std::move(buffer_);
    buffer_.clear();
    for (std::size_t i = 0; i < chunks; ++i) {
      const std::vector<std::uint8_t> bytes = storage_->read_chunk(i);
      g_obs_spill_chunks_read.add(1);
      decode_into(bytes, fn);
    }
    storage_->clear();
    decode_into(tail, fn);
  }

 private:
  void flush() {
    if (buffer_.empty()) return;
    obs::SpanTimer span("construction.spill_flush",
                        static_cast<std::int64_t>(buffer_.size()));
    storage_->append_chunk(buffer_);
    g_obs_spill_chunks_written.add(1);
    g_obs_spill_bytes_written.add(buffer_.size());
    buffer_.clear();
  }

  template <typename Fn>
  void decode_into(const std::vector<std::uint8_t>& bytes, Fn&& fn) {
    ChunkReader in(bytes.data(), bytes.size());
    while (!in.done()) {
      const std::uint64_t key = in.u64();
      const int rounds = static_cast<int>(in.u32());
      const std::uint32_t nverts = in.u32();
      std::vector<topology::VertexId> verts;
      verts.reserve(nverts);
      for (std::uint32_t i = 0; i < nverts; ++i) verts.push_back(in.u32());
      fn(topology::Simplex(std::move(verts)), Model::unpack(key, rounds));
    }
  }

  std::uint64_t budget_;
  FrontierStorage* storage_;
  std::uint64_t chunk_bytes_;
  std::vector<std::pair<topology::Simplex, Params>> ram_;
  std::vector<std::uint8_t> buffer_;
  std::size_t count_ = 0;
};

template <typename Model>
ConstructionCache::Key make_key(const topology::Simplex& facet,
                                const typename Model::Params& params,
                                ConstructionMode mode) {
  return ConstructionCache::Key{Model::kTag,
                                static_cast<std::uint8_t>(mode),
                                Model::params_key(params), facet.vertices()};
}

// Orbit-mode accumulation: canonical representatives of the final-round
// facets, first-seen order, deduplicated by representative.
struct OrbitAccum {
  OrbitContext* ctx = nullptr;
  std::vector<OrbitRecord> records;
  std::unordered_set<topology::Simplex, topology::SimplexHash> seen;

  void add_final(const topology::Simplex& facet) {
    CanonicalFacet canon = ctx->canonicalize(facet);
    g_obs_orbit_canonicalized.add(1);
    if (seen.insert(canon.rep).second) {
      g_obs_orbit_reps.add(1);
      records.push_back(OrbitRecord{std::move(canon.rep), canon.stabilizer,
                                    /*dominated=*/false});
    }
  }
};

// The level-synchronous driver (see construction.h for the phase diagram).
// In full mode the result accretes into *full_out; in orbit mode (orbit !=
// nullptr) incoming facets are canonicalized before DEDUPE and final facets
// flow into the orbit accumulator instead.
template <typename Model>
void run_pipeline(
    std::vector<std::pair<topology::Simplex, typename Model::Params>> seeds,
    ViewRegistry& views, topology::VertexArena& arena,
    ConstructionCache& cache, const ConstructionOptions& options,
    topology::SimplicialComplex* full_out, OrbitAccum* orbit) {
  using Params = typename Model::Params;
  cache.bind(views, arena);
  const ConstructionMode mode =
      orbit != nullptr ? ConstructionMode::kOrbit : ConstructionMode::kFull;

  InMemoryFrontierStorage fallback_storage;
  FrontierStorage* storage = options.storage != nullptr
                                 ? options.storage
                                 : &fallback_storage;
  LevelQueue<Model> queue(options.frontier_budget_bytes, storage);
  for (auto& [facet, params] : seeds) queue.push(std::move(facet), params);
  seeds.clear();

  struct Item {
    topology::Simplex facet;
    Params params;
    ConstructionCache::Key key;
  };

  while (!queue.empty()) {
    // Cooperative cancellation boundary: a deadlined caller (the serving
    // layer) aborts between levels, never mid-expand, so partial state
    // stays confined to locals that unwind cleanly.
    util::poll_deadline();
    obs::SpanTimer level_span("construction.level",
                              static_cast<std::int64_t>(queue.size()));
    g_obs_frontier.add(queue.size());
    g_obs_level_width.set(static_cast<double>(queue.size()));

    // DEDUPE. Identical (facet, params) items expand identically and facet
    // unions are idempotent, so one representative suffices. In orbit mode
    // the whole orbit collapses first: each facet is replaced by its
    // canonical representative, so G-equivalent items dedupe too. Within
    // one level every item has the same remaining round count, so keys
    // (which omit rounds) cannot conflate items that should stay distinct.
    std::vector<Item> items;
    items.reserve(queue.size());
    {
      obs::SpanTimer span("construction.dedupe");
      std::unordered_set<ConstructionCache::Key, ConstructionCache::KeyHash>
          seen;
      seen.reserve(queue.size());
      queue.drain([&](topology::Simplex facet, const Params& params) {
        if (orbit != nullptr) {
          facet = orbit->ctx->canonicalize(facet).rep;
          g_obs_orbit_canonicalized.add(1);
        }
        ConstructionCache::Key key = make_key<Model>(facet, params, mode);
        if (!seen.insert(key).second) {
          cache.note_dedup(mode);
          g_obs_deduped.add(1);
          return;
        }
        items.push_back(Item{std::move(facet), params, std::move(key)});
      });
    }

    // LOOKUP.
    std::vector<std::size_t> miss;
    {
      obs::SpanTimer span("construction.lookup");
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (cache.lookup(items[i].key) == nullptr) {
          miss.push_back(i);
          g_obs_misses.add(1);
        } else {
          g_obs_hits.add(1);
        }
      }
    }

    // EXPAND, in frontier order, straight into the canonical registries.
    {
      obs::SpanTimer span("construction.expand",
                          static_cast<std::int64_t>(miss.size()));
      for (const std::size_t i : miss) {
        ConstructionCache::Entry entry;
        Model::expand(items[i].facet, items[i].params, views, arena,
                      &entry.groups);
        cache.store(items[i].key, std::move(entry));
      }
    }

    // CONSUME.
    obs::SpanTimer consume_span("construction.consume");
    for (const Item& item : items) {
      const ConstructionCache::Entry* entry = cache.peek(item.key);
      if (Model::rounds(item.params) == 1) {
        if (orbit != nullptr) {
          for (const detail::RoundGroup& group : entry->groups) {
            for (const topology::Simplex& facet : group.facets) {
              orbit->add_final(facet);
            }
          }
        } else {
          for (const detail::RoundGroup& group : entry->groups) {
            full_out->add_facets(group.facets);
          }
        }
      } else {
        for (const detail::RoundGroup& group : entry->groups) {
          const Params child = Model::child(item.params, group.failures_used);
          for (const topology::Simplex& facet : group.facets) {
            queue.push(facet, child);
          }
        }
      }
    }
  }
}

template <typename Model>
std::vector<std::pair<topology::Simplex, typename Model::Params>> seed_all(
    const topology::SimplicialComplex& inputs,
    const typename Model::Params& params) {
  std::vector<std::pair<topology::Simplex, typename Model::Params>> frontier;
  for (const topology::Simplex& facet : inputs.facets()) {
    frontier.emplace_back(facet, params);
  }
  return frontier;
}

void require_full_mode(const ConstructionOptions& options, const char* who) {
  if (options.mode != ConstructionMode::kFull) {
    throw std::invalid_argument(std::string(who) +
                                ": options.mode must be kFull here; use the "
                                "*_orbit entry points for orbit mode");
  }
}

template <typename Model>
topology::SimplicialComplex run_full(
    std::vector<std::pair<topology::Simplex, typename Model::Params>> seeds,
    ViewRegistry& views, topology::VertexArena& arena,
    ConstructionCache& cache, const ConstructionOptions& options) {
  topology::SimplicialComplex result;
  run_pipeline<Model>(std::move(seeds), views, arena, cache, options, &result,
                      nullptr);
  return result;
}

// Orbit post-processing: mark dominated orbits and total the maximal-facet
// count. An orbit of F is dominated in the full complex iff some member
// g·F is a strict face of some representative H — g·F ⊊ H' for a full
// facet H' = h·H reduces to (h⁻¹g)·F ⊊ H. Only possible across different
// facet sizes, so pure rep sets (async, IIS) skip the scan entirely.
template <typename ModelResult>
void finish_orbit_result(OrbitAccum& accum, OrbitContext& ctx,
                         std::size_t group_size, ModelResult& result) {
  obs::SpanTimer span("construction.orbit_finish",
                      static_cast<std::int64_t>(accum.records.size()));
  bool pure = true;
  for (const OrbitRecord& rec : accum.records) {
    if (rec.rep.size() != accum.records.front().rep.size()) {
      pure = false;
      break;
    }
  }
  if (!pure) {
    // Every strict face of every representative, one hash set; an orbit is
    // dominated iff some group image of its representative lands in it.
    std::unordered_set<topology::Simplex, topology::SimplexHash> strict_faces;
    for (const OrbitRecord& rec : accum.records) {
      for (topology::Simplex& face : rec.rep.all_faces()) {
        if (face != rec.rep) strict_faces.insert(std::move(face));
      }
    }
    for (OrbitRecord& rec : accum.records) {
      for (std::size_t gi = 0; gi < group_size && !rec.dominated; ++gi) {
        if (strict_faces.count(ctx.relabel_facet(gi, rec.rep)) != 0) {
          rec.dominated = true;
        }
      }
    }
  }

  std::vector<topology::Simplex> maximal;
  maximal.reserve(accum.records.size());
  for (const OrbitRecord& rec : accum.records) {
    if (rec.dominated) continue;
    result.full_facet_count +=
        static_cast<std::uint64_t>(group_size) / rec.stabilizer;
    maximal.push_back(rec.rep);
  }
  result.reduced.add_facets(std::move(maximal));
  result.orbits = std::move(accum.records);
}

template <typename Model>
OrbitComplexResult run_orbit(
    SymmetryGroup group,
    std::vector<std::pair<topology::Simplex, typename Model::Params>> seeds,
    ViewRegistry& views, topology::VertexArena& arena,
    ConstructionCache& cache, const ConstructionOptions& options) {
  OrbitComplexResult result;
  result.group = group;
  OrbitContext ctx(std::move(group), views, arena);
  OrbitAccum accum;
  accum.ctx = &ctx;
  ConstructionOptions orbit_options = options;
  orbit_options.mode = ConstructionMode::kOrbit;
  run_pipeline<Model>(std::move(seeds), views, arena, cache, orbit_options,
                      nullptr, &accum);
  finish_orbit_result(accum, ctx, result.group.size(), result);
  return result;
}

}  // namespace

std::vector<std::size_t> orbit_full_f_vector(const OrbitComplexResult& result,
                                             ViewRegistry& views,
                                             topology::VertexArena& arena) {
  obs::SpanTimer span("construction.orbit_fvector",
                      static_cast<std::int64_t>(result.orbits.size()));
  OrbitContext ctx(result.group, views, arena);
  const std::size_t group_size = result.group.size();
  // Every face of the full complex is a face of some maximal facet g·H with
  // H a non-dominated representative, so its orbit shows up among the faces
  // of H; counting each distinct face orbit once with its orbit size gives
  // the exact f-vector.
  std::unordered_map<topology::Simplex, std::uint64_t, topology::SimplexHash>
      face_orbits;
  int max_dim = -1;
  for (const OrbitRecord& rec : result.orbits) {
    if (rec.dominated) continue;
    max_dim = std::max(max_dim, rec.rep.dimension());
    for (const topology::Simplex& face : rec.rep.all_faces()) {
      CanonicalFacet canon = ctx.canonicalize(face);
      face_orbits.emplace(std::move(canon.rep), canon.orbit_size(group_size));
    }
  }
  std::vector<std::size_t> f(static_cast<std::size_t>(max_dim + 1), 0);
  for (const auto& [face, orbit_size] : face_orbits) {
    f[static_cast<std::size_t>(face.dimension())] +=
        static_cast<std::size_t>(orbit_size);
  }
  return f;
}

topology::SimplicialComplex reconstitute_full(const OrbitComplexResult& result,
                                              ViewRegistry& views,
                                              topology::VertexArena& arena) {
  obs::SpanTimer span("construction.orbit_reconstitute",
                      static_cast<std::int64_t>(result.full_facet_count));
  OrbitContext ctx(result.group, views, arena);
  std::vector<topology::Simplex> facets;
  for (const OrbitRecord& rec : result.orbits) {
    if (rec.dominated) continue;
    for (std::size_t gi = 0; gi < result.group.size(); ++gi) {
      facets.push_back(ctx.relabel_facet(gi, rec.rep));
    }
  }
  topology::SimplicialComplex full;
  full.add_facets(std::move(facets));
  return full;
}

topology::SimplicialComplex async_protocol_complex(
    const topology::Simplex& input, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options) {
  if (params.rounds < 1) {
    throw std::invalid_argument("async_protocol_complex: rounds < 1");
  }
  require_full_mode(options, "async_protocol_complex");
  return run_full<AsyncModel>({{input, params}}, views, arena, cache, options);
}

topology::SimplicialComplex async_protocol_complex_over(
    const topology::SimplicialComplex& inputs, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options) {
  if (params.rounds < 1) {
    throw std::invalid_argument("async_protocol_complex: rounds < 1");
  }
  require_full_mode(options, "async_protocol_complex_over");
  return run_full<AsyncModel>(seed_all<AsyncModel>(inputs, params), views,
                              arena, cache, options);
}

topology::SimplicialComplex sync_protocol_complex(
    const topology::Simplex& input, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options) {
  if (params.rounds < 1) {
    throw std::invalid_argument("sync_protocol_complex: rounds < 1");
  }
  require_full_mode(options, "sync_protocol_complex");
  return run_full<SyncModel>({{input, params}}, views, arena, cache, options);
}

topology::SimplicialComplex sync_protocol_complex_over(
    const topology::SimplicialComplex& inputs, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options) {
  if (params.rounds < 1) {
    throw std::invalid_argument("sync_protocol_complex: rounds < 1");
  }
  require_full_mode(options, "sync_protocol_complex_over");
  return run_full<SyncModel>(seed_all<SyncModel>(inputs, params), views, arena,
                             cache, options);
}

topology::SimplicialComplex semisync_protocol_complex(
    const topology::Simplex& input, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options) {
  if (params.rounds < 1) {
    throw std::invalid_argument("semisync_protocol_complex: rounds < 1");
  }
  require_full_mode(options, "semisync_protocol_complex");
  return run_full<SemiSyncModel>({{input, params}}, views, arena, cache,
                                 options);
}

topology::SimplicialComplex semisync_protocol_complex_over(
    const topology::SimplicialComplex& inputs, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options) {
  if (params.rounds < 1) {
    throw std::invalid_argument("semisync_protocol_complex: rounds < 1");
  }
  require_full_mode(options, "semisync_protocol_complex_over");
  return run_full<SemiSyncModel>(seed_all<SemiSyncModel>(inputs, params),
                                 views, arena, cache, options);
}

topology::SimplicialComplex iis_protocol_complex(
    const topology::Simplex& input, int rounds, ViewRegistry& views,
    topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options) {
  if (rounds < 1) {
    throw std::invalid_argument("iis_protocol_complex: rounds < 1");
  }
  require_full_mode(options, "iis_protocol_complex");
  return run_full<IisModel>({{input, IisParams{rounds}}}, views, arena, cache,
                            options);
}

topology::SimplicialComplex iis_protocol_complex_over(
    const topology::SimplicialComplex& inputs, int rounds, ViewRegistry& views,
    topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options) {
  if (rounds < 1) {
    throw std::invalid_argument("iis_protocol_complex: rounds < 1");
  }
  require_full_mode(options, "iis_protocol_complex_over");
  std::vector<std::pair<topology::Simplex, IisParams>> frontier;
  for (const topology::Simplex& facet : inputs.facets()) {
    frontier.emplace_back(facet, IisParams{rounds});
  }
  return run_full<IisModel>(std::move(frontier), views, arena, cache, options);
}

OrbitComplexResult async_protocol_complex_orbit(
    const topology::Simplex& input, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options) {
  if (params.rounds < 1) {
    throw std::invalid_argument("async_protocol_complex_orbit: rounds < 1");
  }
  return run_orbit<AsyncModel>(
      SymmetryGroup::for_input_facet(input, views, arena), {{input, params}},
      views, arena, cache, options);
}

OrbitComplexResult async_protocol_complex_orbit_over(
    const topology::SimplicialComplex& inputs, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options) {
  if (params.rounds < 1) {
    throw std::invalid_argument("async_protocol_complex_orbit: rounds < 1");
  }
  return run_orbit<AsyncModel>(
      SymmetryGroup::for_input_complex(inputs, views, arena),
      seed_all<AsyncModel>(inputs, params), views, arena, cache, options);
}

OrbitComplexResult sync_protocol_complex_orbit(
    const topology::Simplex& input, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options) {
  if (params.rounds < 1) {
    throw std::invalid_argument("sync_protocol_complex_orbit: rounds < 1");
  }
  return run_orbit<SyncModel>(
      SymmetryGroup::for_input_facet(input, views, arena), {{input, params}},
      views, arena, cache, options);
}

OrbitComplexResult sync_protocol_complex_orbit_over(
    const topology::SimplicialComplex& inputs, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options) {
  if (params.rounds < 1) {
    throw std::invalid_argument("sync_protocol_complex_orbit: rounds < 1");
  }
  return run_orbit<SyncModel>(
      SymmetryGroup::for_input_complex(inputs, views, arena),
      seed_all<SyncModel>(inputs, params), views, arena, cache, options);
}

OrbitComplexResult semisync_protocol_complex_orbit(
    const topology::Simplex& input, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options) {
  if (params.rounds < 1) {
    throw std::invalid_argument("semisync_protocol_complex_orbit: rounds < 1");
  }
  return run_orbit<SemiSyncModel>(
      SymmetryGroup::for_input_facet(input, views, arena), {{input, params}},
      views, arena, cache, options);
}

OrbitComplexResult semisync_protocol_complex_orbit_over(
    const topology::SimplicialComplex& inputs, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options) {
  if (params.rounds < 1) {
    throw std::invalid_argument("semisync_protocol_complex_orbit: rounds < 1");
  }
  return run_orbit<SemiSyncModel>(
      SymmetryGroup::for_input_complex(inputs, views, arena),
      seed_all<SemiSyncModel>(inputs, params), views, arena, cache, options);
}

OrbitComplexResult iis_protocol_complex_orbit(
    const topology::Simplex& input, int rounds, ViewRegistry& views,
    topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options) {
  if (rounds < 1) {
    throw std::invalid_argument("iis_protocol_complex_orbit: rounds < 1");
  }
  return run_orbit<IisModel>(
      SymmetryGroup::for_input_facet(input, views, arena),
      {{input, IisParams{rounds}}}, views, arena, cache, options);
}

OrbitComplexResult iis_protocol_complex_orbit_over(
    const topology::SimplicialComplex& inputs, int rounds, ViewRegistry& views,
    topology::VertexArena& arena, ConstructionCache& cache,
    const ConstructionOptions& options) {
  if (rounds < 1) {
    throw std::invalid_argument("iis_protocol_complex_orbit: rounds < 1");
  }
  std::vector<std::pair<topology::Simplex, IisParams>> frontier;
  for (const topology::Simplex& facet : inputs.facets()) {
    frontier.emplace_back(facet, IisParams{rounds});
  }
  return run_orbit<IisModel>(
      SymmetryGroup::for_input_complex(inputs, views, arena),
      std::move(frontier), views, arena, cache, options);
}

}  // namespace psph::core
