#include "core/construction.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/iis_complex.h"
#include "core/round_ops.h"
#include "obs/obs.h"
#include "util/cancel.h"
#include "util/hash.h"

namespace psph::core {

namespace {

// Pipeline observability (obs.h): one span per level phase plus counters for
// the frontier, the duplicates DEDUPE drops and the orbit work.
obs::Counter g_obs_frontier("construction.frontier_items");
obs::Counter g_obs_deduped("construction.deduped");
obs::Gauge g_obs_level_width("construction.level_width");
obs::Counter g_obs_orbit_canonicalized("construction.orbit_canonicalized");
obs::Counter g_obs_orbit_reps("construction.orbit_reps");

// Packs up to four small model parameters into one DEDUPE-key word. All the
// packed quantities (process counts, failure budgets, microrounds) are tiny
// non-negative ints, so 16 bits each is ample.
std::uint64_t pack16(int a, int b, int c, int d) {
  const auto u = [](int x) {
    return static_cast<std::uint64_t>(static_cast<std::uint16_t>(x));
  };
  return u(a) | (u(b) << 16) | (u(c) << 32) | (u(d) << 48);
}

// Model adapters: everything the generic driver needs to know about one
// model. params_key must cover every parameter the one-round expansion
// depends on *except* the remaining round count, which every item of one
// level shares; child() advances the params across one round given the
// failures the adversary group consumed.

struct AsyncModel {
  using Params = AsyncParams;
  static std::uint64_t params_key(const Params& p) {
    return pack16(p.num_processes, p.max_failures, 0, 0);
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
  static std::uint64_t params_key(const Params& p) {
    return pack16(p.num_processes, p.total_failures, p.failures_per_round, 0);
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
  static std::uint64_t params_key(const Params& p) {
    return pack16(p.num_processes, p.total_failures, p.failures_per_round,
                  p.micro_rounds);
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
  static std::uint64_t params_key(const Params&) { return 0; }
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

/// One level's items: facets awaiting a round, with their model params.
template <typename Model>
using Frontier =
    std::vector<std::pair<topology::Simplex, typename Model::Params>>;

/// DEDUPE key: the packed params plus the facet's vertex ids.
struct ItemKey {
  std::uint64_t params = 0;
  std::vector<topology::VertexId> facet;

  bool operator==(const ItemKey& other) const = default;
};

struct ItemKeyHash {
  std::size_t operator()(const ItemKey& key) const {
    std::size_t h = std::hash<std::uint64_t>{}(key.params);
    for (const topology::VertexId v : key.facet) {
      h = util::hash_combine(h, std::hash<topology::VertexId>{}(v));
    }
    return h;
  }
};

// Orbit-mode accumulation: canonical representatives of the final-round
// facets, first-seen order, deduplicated by representative.
struct OrbitAccum {
  OrbitContext* ctx = nullptr;
  std::vector<OrbitRecord> records;
  std::unordered_set<topology::Simplex, topology::SimplexHash> seen;

  void add_final(const topology::Simplex& facet) {
    util::poll_deadline();
    CanonicalFacet canon = ctx->canonicalize(facet);
    g_obs_orbit_canonicalized.add(1);
    if (seen.insert(canon.rep).second) {
      g_obs_orbit_reps.add(1);
      records.push_back(OrbitRecord{std::move(canon.rep), canon.stabilizer,
                                    /*dominated=*/false});
    }
  }
};

// The level loop (see construction.h for the phase diagram). In full mode
// the result accretes into *full_out; in orbit mode (orbit != nullptr)
// incoming facets are canonicalized before DEDUPE and final facets flow
// into the orbit accumulator instead.
template <typename Model>
void run_pipeline(Frontier<Model> frontier, ViewRegistry& views,
                  topology::VertexArena& arena,
                  topology::SimplicialComplex* full_out, OrbitAccum* orbit) {
  while (!frontier.empty()) {
    // Cooperative cancellation (util/cancel.h): a deadlined caller (the
    // serving layer) unwinds from here or from the per-item polls below;
    // partial state stays confined to locals.
    util::poll_deadline();
    obs::SpanTimer level_span("construction.level",
                              static_cast<std::int64_t>(frontier.size()));
    g_obs_frontier.add(frontier.size());
    g_obs_level_width.set(static_cast<double>(frontier.size()));

    // DEDUPE. Identical (facet, params) items expand identically and facet
    // unions are idempotent, so one representative suffices. In orbit mode
    // the whole orbit collapses first: each facet is replaced by its
    // canonical representative, so G-equivalent items dedupe too. Within
    // one level every item has the same remaining round count, so keys
    // (which omit rounds) cannot conflate items that should stay distinct.
    Frontier<Model> items;
    items.reserve(frontier.size());
    {
      obs::SpanTimer span("construction.dedupe");
      std::unordered_set<ItemKey, ItemKeyHash> seen;
      seen.reserve(frontier.size());
      for (auto& [facet, params] : frontier) {
        if (orbit != nullptr) {
          util::poll_deadline();
          facet = orbit->ctx->canonicalize(facet).rep;
          g_obs_orbit_canonicalized.add(1);
        }
        if (!seen.insert(ItemKey{Model::params_key(params), facet.vertices()})
                 .second) {
          g_obs_deduped.add(1);
          continue;
        }
        items.emplace_back(std::move(facet), params);
      }
      frontier.clear();
    }

    // EXPAND, in frontier order, straight into the canonical registries.
    // The whole level expands before CONSUME runs: orbit-mode CONSUME
    // interns relabelled views, and interleaving the two would renumber ids.
    std::vector<std::vector<detail::RoundGroup>> expansions(items.size());
    {
      obs::SpanTimer span("construction.expand",
                          static_cast<std::int64_t>(items.size()));
      for (std::size_t i = 0; i < items.size(); ++i) {
        util::poll_deadline();
        Model::expand(items[i].first, items[i].second, views, arena,
                      &expansions[i]);
      }
    }

    // CONSUME: move each expansion into the result, the orbit accumulator
    // or the next level.
    obs::SpanTimer consume_span("construction.consume");
    for (std::size_t i = 0; i < items.size(); ++i) {
      util::poll_deadline();
      const typename Model::Params& params = items[i].second;
      for (detail::RoundGroup& group : expansions[i]) {
        if (Model::rounds(params) > 1) {
          const typename Model::Params child =
              Model::child(params, group.failures_used);
          for (topology::Simplex& facet : group.facets) {
            frontier.emplace_back(std::move(facet), child);
          }
        } else if (orbit != nullptr) {
          for (const topology::Simplex& facet : group.facets) {
            orbit->add_final(facet);
          }
        } else {
          full_out->add_facets(std::move(group.facets));
        }
      }
      expansions[i] = {};
    }
  }
}

template <typename Model>
Frontier<Model> seed_all(const topology::SimplicialComplex& inputs,
                         const typename Model::Params& params) {
  Frontier<Model> frontier;
  for (const topology::Simplex& facet : inputs.facets()) {
    frontier.emplace_back(facet, params);
  }
  return frontier;
}

void require_rounds(int rounds, const char* who) {
  if (rounds < 1) {
    throw std::invalid_argument(std::string(who) + ": rounds < 1");
  }
}

template <typename Model>
topology::SimplicialComplex run_full(Frontier<Model> seeds, ViewRegistry& views,
                                     topology::VertexArena& arena) {
  topology::SimplicialComplex result;
  run_pipeline<Model>(std::move(seeds), views, arena, &result, nullptr);
  return result;
}

// Orbit post-processing: mark dominated orbits and total the maximal-facet
// count. An orbit of F is dominated in the full complex iff some member
// g·F is a strict face of some representative H — g·F ⊊ H' for a full
// facet H' = h·H reduces to (h⁻¹g)·F ⊊ H. Only possible across different
// facet sizes, so pure rep sets (async, IIS) skip the scan entirely.
void finish_orbit_result(OrbitAccum& accum, OrbitContext& ctx,
                         OrbitComplexResult& result) {
  obs::SpanTimer span("construction.orbit_finish",
                      static_cast<std::int64_t>(accum.records.size()));
  const std::size_t group_size = result.group.size();
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
      util::poll_deadline();
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
OrbitComplexResult run_orbit(const topology::Simplex& input,
                             const typename Model::Params& params,
                             ViewRegistry& views,
                             topology::VertexArena& arena) {
  OrbitComplexResult result;
  result.group = SymmetryGroup::for_input_facet(input, views, arena);
  OrbitContext ctx(result.group, views, arena);
  OrbitAccum accum;
  accum.ctx = &ctx;
  run_pipeline<Model>({{input, params}}, views, arena, nullptr, &accum);
  finish_orbit_result(accum, ctx, result);
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
    util::poll_deadline();
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
    util::poll_deadline();
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
    ViewRegistry& views, topology::VertexArena& arena) {
  require_rounds(params.rounds, "async_protocol_complex");
  return run_full<AsyncModel>({{input, params}}, views, arena);
}

topology::SimplicialComplex async_protocol_complex_over(
    const topology::SimplicialComplex& inputs, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena) {
  require_rounds(params.rounds, "async_protocol_complex");
  return run_full<AsyncModel>(seed_all<AsyncModel>(inputs, params), views,
                              arena);
}

topology::SimplicialComplex sync_protocol_complex(
    const topology::Simplex& input, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena) {
  require_rounds(params.rounds, "sync_protocol_complex");
  return run_full<SyncModel>({{input, params}}, views, arena);
}

topology::SimplicialComplex sync_protocol_complex_over(
    const topology::SimplicialComplex& inputs, const SyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena) {
  require_rounds(params.rounds, "sync_protocol_complex");
  return run_full<SyncModel>(seed_all<SyncModel>(inputs, params), views,
                             arena);
}

topology::SimplicialComplex semisync_protocol_complex(
    const topology::Simplex& input, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena) {
  require_rounds(params.rounds, "semisync_protocol_complex");
  return run_full<SemiSyncModel>({{input, params}}, views, arena);
}

topology::SimplicialComplex semisync_protocol_complex_over(
    const topology::SimplicialComplex& inputs, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena) {
  require_rounds(params.rounds, "semisync_protocol_complex");
  return run_full<SemiSyncModel>(seed_all<SemiSyncModel>(inputs, params),
                                 views, arena);
}

topology::SimplicialComplex iis_protocol_complex(
    const topology::Simplex& input, int rounds, ViewRegistry& views,
    topology::VertexArena& arena) {
  require_rounds(rounds, "iis_protocol_complex");
  return run_full<IisModel>({{input, IisParams{rounds}}}, views, arena);
}

topology::SimplicialComplex iis_protocol_complex_over(
    const topology::SimplicialComplex& inputs, int rounds, ViewRegistry& views,
    topology::VertexArena& arena) {
  require_rounds(rounds, "iis_protocol_complex");
  return run_full<IisModel>(seed_all<IisModel>(inputs, IisParams{rounds}),
                            views, arena);
}

OrbitComplexResult async_protocol_complex_orbit(const topology::Simplex& input,
                                                const AsyncParams& params,
                                                ViewRegistry& views,
                                                topology::VertexArena& arena) {
  require_rounds(params.rounds, "async_protocol_complex_orbit");
  return run_orbit<AsyncModel>(input, params, views, arena);
}

OrbitComplexResult sync_protocol_complex_orbit(const topology::Simplex& input,
                                               const SyncParams& params,
                                               ViewRegistry& views,
                                               topology::VertexArena& arena) {
  require_rounds(params.rounds, "sync_protocol_complex_orbit");
  return run_orbit<SyncModel>(input, params, views, arena);
}

OrbitComplexResult semisync_protocol_complex_orbit(
    const topology::Simplex& input, const SemiSyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena) {
  require_rounds(params.rounds, "semisync_protocol_complex_orbit");
  return run_orbit<SemiSyncModel>(input, params, views, arena);
}

OrbitComplexResult iis_protocol_complex_orbit(const topology::Simplex& input,
                                              int rounds, ViewRegistry& views,
                                              topology::VertexArena& arena) {
  require_rounds(rounds, "iis_protocol_complex_orbit");
  return run_orbit<IisModel>(input, IisParams{rounds}, views, arena);
}

}  // namespace psph::core
