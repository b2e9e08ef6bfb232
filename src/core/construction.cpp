#include "core/construction.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/iis_complex.h"
#include "core/round_ops.h"
#include "obs/obs.h"
#include "util/cancel.h"
#include "util/flat_index.h"
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

using Row = std::span<const topology::VertexId>;

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
  static void expand(Row facet, const Params& p, ViewRegistry& views,
                     topology::VertexArena& arena,
                     detail::ExpandScratch& scratch, detail::RoundOutput* out) {
    detail::expand_async_round(facet, p, views, arena, scratch, out);
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
  static void expand(Row facet, const Params& p, ViewRegistry& views,
                     topology::VertexArena& arena,
                     detail::ExpandScratch& scratch, detail::RoundOutput* out) {
    detail::expand_sync_round(facet, p, views, arena, scratch, out);
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
  static void expand(Row facet, const Params& p, ViewRegistry& views,
                     topology::VertexArena& arena,
                     detail::ExpandScratch& scratch, detail::RoundOutput* out) {
    detail::expand_semisync_round(facet, p, views, arena, scratch, out);
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
  static void expand(Row facet, const Params&, ViewRegistry& views,
                     topology::VertexArena& arena,
                     detail::ExpandScratch& scratch, detail::RoundOutput* out) {
    detail::expand_iis_round(facet, views, arena, scratch, out);
  }
};

/// One level's items: facets awaiting a round as rows, with their model
/// params (row i runs under params[i]).
template <typename Model>
struct Frontier {
  topology::FacetRows facets;
  std::vector<typename Model::Params> params;

  std::size_t size() const { return params.size(); }
  bool empty() const { return params.empty(); }
  void push_back(Row facet, const typename Model::Params& p) {
    facets.push_back(facet);
    params.push_back(p);
  }
  void clear() {
    facets.clear();
    params.clear();
  }
};

// Orbit-mode accumulation: canonical representatives of the final-round
// facets, first-seen order, deduplicated by representative.
struct OrbitAccum {
  OrbitContext* ctx = nullptr;
  OrbitRecords records;
  util::FlatIndex seen;               // over records, keyed by rep
  std::vector<topology::VertexId> rep;  // canonicalize's output row

  void add_final(Row facet) {
    util::poll_deadline();
    const std::uint32_t stabilizer = ctx->canonicalize(facet, rep);
    g_obs_orbit_canonicalized.add(1);
    const std::size_t next = records.size();
    if (seen.find_or_insert(topology::row_hash(rep), next,
                            [&](std::size_t i) {
                              return topology::row_equal(records.rep(i), rep);
                            }) != next) {
      return;
    }
    g_obs_orbit_reps.add(1);
    records.push_back(rep, stabilizer, facet);
  }
};

// The level loop (see construction.h for the phase diagram). In full mode
// the result accretes into *full_out; in orbit mode (orbit != nullptr)
// incoming facets are canonicalized before DEDUPE and final facets flow
// into the orbit accumulator instead. Every array here lives for the whole
// build and is cleared, not freed, between levels.
template <typename Model>
void run_pipeline(Frontier<Model> frontier, ViewRegistry& views,
                  topology::VertexArena& arena,
                  topology::SimplicialComplex* full_out, OrbitAccum* orbit) {
  Frontier<Model> items;
  detail::RoundOutput children;
  std::vector<std::size_t> owner;  // children.groups[g] came from item owner[g]
  detail::ExpandScratch scratch;
  std::vector<topology::VertexId> rep;
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
    items.clear();
    {
      obs::SpanTimer span("construction.dedupe");
      // Keyed by (packed params, vertex row) over the kept items.
      util::FlatIndex seen;
      seen.reserve(frontier.size());
      for (std::size_t f = 0; f < frontier.size(); ++f) {
        Row facet = frontier.facets[f];
        if (orbit != nullptr) {
          util::poll_deadline();
          orbit->ctx->canonicalize(facet, rep);
          facet = rep;
          g_obs_orbit_canonicalized.add(1);
        }
        const typename Model::Params& params = frontier.params[f];
        const std::uint64_t key = Model::params_key(params);
        const std::size_t next = items.size();
        if (seen.find_or_insert(
                topology::row_hash(facet, key), next, [&](std::size_t i) {
                  return Model::params_key(items.params[i]) == key &&
                         topology::row_equal(items.facets[i], facet);
                }) != next) {
          g_obs_deduped.add(1);
          continue;
        }
        items.push_back(facet, params);
      }
      frontier.clear();
    }

    // EXPAND, in frontier order, straight into the canonical registries.
    // The whole level expands before CONSUME runs: orbit-mode CONSUME
    // interns relabelled views, and interleaving the two would renumber ids.
    children.clear();
    owner.clear();
    {
      obs::SpanTimer span("construction.expand",
                          static_cast<std::int64_t>(items.size()));
      for (std::size_t i = 0; i < items.size(); ++i) {
        util::poll_deadline();
        Model::expand(items.facets[i], items.params[i], views, arena, scratch,
                      &children);
        owner.resize(children.groups.size(), i);
      }
    }

    // CONSUME: the children go to the next level, the orbit accumulator or
    // the result. Every item of a level has the same remaining rounds.
    obs::SpanTimer consume_span("construction.consume");
    const bool final_round =
        items.empty() || Model::rounds(items.params[0]) <= 1;
    if (!final_round) {
      // The children's rows become the next frontier as they are; each row
      // takes the params its group left.
      std::swap(frontier.facets, children.facets);
      frontier.params.reserve(frontier.facets.size());
      for (std::size_t g = 0; g < children.groups.size(); ++g) {
        util::poll_deadline();
        const detail::RoundGroup& group = children.groups[g];
        frontier.params.resize(
            group.last,
            Model::child(items.params[owner[g]], group.failures_used));
      }
    } else if (orbit != nullptr) {
      for (std::size_t r = 0; r < children.facets.size(); ++r) {
        orbit->add_final(children.facets[r]);
      }
    } else {
      for (const detail::RoundGroup& group : children.groups) {
        util::poll_deadline();
        full_out->add_facets(children.facets.rows(group.first, group.last));
      }
    }
  }
}

template <typename Model>
Frontier<Model> seed_one(const topology::Simplex& input,
                         const typename Model::Params& params) {
  Frontier<Model> frontier;
  frontier.push_back(input.vertices(), params);
  return frontier;
}

template <typename Model>
Frontier<Model> seed_all(const topology::SimplicialComplex& inputs,
                         const typename Model::Params& params) {
  Frontier<Model> frontier;
  for (const topology::Simplex& facet : inputs.facets()) {
    frontier.push_back(facet.vertices(), params);
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
void finish_orbit_result(OrbitRecords records, OrbitComplexResult& result) {
  obs::SpanTimer span("construction.orbit_finish",
                      static_cast<std::int64_t>(records.size()));
  const std::size_t group_size = result.group.size();
  bool pure = true;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records.rep(i).size() != records.rep(0).size()) {
      pure = false;
      break;
    }
  }
  if (!pure) {
    // Every strict face of every representative, one row set; an orbit is
    // dominated iff some image of its seed lands in it. Faces are the
    // representative's masked subsequences, so every row comes out sorted.
    topology::RowSet strict_faces;
    std::vector<topology::VertexId> row;
    for (const OrbitRecord rec : records) {
      const std::uint64_t whole = (std::uint64_t{1} << rec.rep.size()) - 1;
      for (std::uint64_t mask = 1; mask < whole; ++mask) {
        row.clear();
        for (std::size_t i = 0; i < rec.rep.size(); ++i) {
          if ((mask >> i) & 1U) row.push_back(rec.rep[i]);
        }
        strict_faces.insert(row);
      }
    }
    for (std::size_t r = 0; r < records.size(); ++r) {
      util::poll_deadline();
      const Row seed = records[r].seed;
      for (std::size_t gi = 0; gi < group_size; ++gi) {
        row.clear();
        for (const topology::VertexId v : seed) {
          row.push_back(result.images.image(gi, v));
        }
        std::sort(row.begin(), row.end());
        if (strict_faces.contains(row)) {
          records.set_dominated(r);
          break;
        }
      }
    }
  }

  topology::FacetRows maximal;
  for (const OrbitRecord rec : records) {
    if (rec.dominated) continue;
    result.full_facet_count +=
        static_cast<std::uint64_t>(group_size) / rec.stabilizer;
    maximal.push_back(rec.rep);
  }
  result.reduced.add_facets(maximal);
  result.orbits = std::move(records);
}

template <typename Model>
OrbitComplexResult run_orbit(const topology::Simplex& input,
                             const typename Model::Params& params,
                             ViewRegistry& views,
                             topology::VertexArena& arena) {
  OrbitComplexResult result;
  result.group = SymmetryGroup::for_input_facet(input, views, arena);
  OrbitRecords records;
  {
    OrbitContext ctx(result.group, views, arena);
    OrbitAccum accum;
    accum.ctx = &ctx;
    run_pipeline<Model>(seed_one<Model>(input, params), views, arena, nullptr,
                        &accum);
    // Only the records and the vertex images outlive the pipeline; the
    // state memo and the accumulator's rep index are freed before the
    // post-processing allocates.
    records = std::move(accum.records);
    result.images = std::move(ctx).take_images();
  }
  finish_orbit_result(std::move(records), result);
  return result;
}

// One entry of a seed's image row in orbit_full_f_vector.
struct ImageEntry {
  topology::VertexId vertex;
  std::uint32_t position;  // index of the seed vertex it is the image of

  bool operator<(const ImageEntry& other) const {
    return vertex < other.vertex;
  }
};

// Lexicographic order of the subsequences of two k-entry rows (each sorted
// by vertex) whose seed positions are in `mask`: negative, zero or
// positive. Both rows select the same number of entries.
int compare_masked(const ImageEntry* a, const ImageEntry* b, std::size_t k,
                   std::uint64_t mask) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (true) {
    while (i < k && ((mask >> a[i].position) & 1U) == 0) ++i;
    while (j < k && ((mask >> b[j].position) & 1U) == 0) ++j;
    if (i == k) return 0;
    if (a[i].vertex != b[j].vertex) return a[i].vertex < b[j].vertex ? -1 : 1;
    ++i;
    ++j;
  }
}

void require_build_registries(const OrbitComplexResult& result,
                              const ViewRegistry& views,
                              const topology::VertexArena& arena,
                              const char* who) {
  if (!result.images.bound_to(views, arena)) {
    throw std::invalid_argument(
        std::string(who) +
        ": views/arena are not the registry pair the orbit result was built "
        "in");
  }
}

}  // namespace

std::vector<std::size_t> orbit_full_f_vector(const OrbitComplexResult& result,
                                             ViewRegistry& views,
                                             topology::VertexArena& arena) {
  obs::SpanTimer span("construction.orbit_fvector",
                      static_cast<std::int64_t>(result.orbits.size()));
  require_build_registries(result, views, arena, "orbit_full_f_vector");
  const std::size_t group_size = result.group.size();
  // Every face of the full complex is a face of some maximal facet g·S with
  // S a non-dominated seed, so its orbit shows up among the faces of S.
  // Facet orbits count from their records (see construction.h); each proper
  // face orbit counts the first time its canonical form shows up.
  topology::RowSet counted;
  std::vector<std::size_t> f;
  // rows: the seed's image under each element as one row of (image vertex,
  // seed position) pairs, sorted, so the image of the face a bit mask over
  // seed positions selects is the row's masked subsequence, in vertex order.
  std::vector<ImageEntry> rows;
  std::vector<topology::VertexId> rep;
  for (const OrbitRecord rec : result.orbits) {
    if (rec.dominated) continue;
    util::poll_deadline();
    const Row seed = rec.seed;
    const std::size_t k = seed.size();
    if (f.size() < k) f.resize(k, 0);
    f[k - 1] += group_size / rec.stabilizer;
    rows.clear();
    for (std::size_t gi = 0; gi < group_size; ++gi) {
      for (std::uint32_t i = 0; i < k; ++i) {
        rows.push_back({result.images.image(gi, seed[i]), i});
      }
      std::sort(rows.end() - static_cast<std::ptrdiff_t>(k), rows.end());
    }
    // Each proper face: the lexicographically least masked row is its
    // canonical form, and the rows that tie with it count its stabilizer.
    const std::uint64_t whole = (std::uint64_t{1} << k) - 1;
    for (std::uint64_t mask = 1; mask < whole; ++mask) {
      const ImageEntry* best = rows.data();
      std::uint32_t stabilizer = 1;
      for (std::size_t gi = 1; gi < group_size; ++gi) {
        const ImageEntry* row = rows.data() + gi * k;
        const int order = compare_masked(row, best, k, mask);
        if (order < 0) {
          best = row;
          stabilizer = 1;
        } else if (order == 0) {
          ++stabilizer;
        }
      }
      rep.clear();
      for (std::size_t i = 0; i < k; ++i) {
        if ((mask >> best[i].position) & 1U) rep.push_back(best[i].vertex);
      }
      if (!counted.insert(rep)) continue;
      f[rep.size() - 1] += group_size / stabilizer;
    }
  }
  return f;
}

topology::SimplicialComplex reconstitute_full(const OrbitComplexResult& result,
                                              ViewRegistry& views,
                                              topology::VertexArena& arena) {
  obs::SpanTimer span("construction.orbit_reconstitute",
                      static_cast<std::int64_t>(result.full_facet_count));
  require_build_registries(result, views, arena, "reconstitute_full");
  // Room for every distinct image.
  const std::size_t full = static_cast<std::size_t>(result.full_facet_count);
  topology::FacetRows facets;
  facets.reserve(full, full * static_cast<std::size_t>(
                                  std::max(result.reduced.dimension() + 1, 0)));
  std::vector<topology::VertexId> images;  // one orbit's image rows
  std::vector<std::uint32_t> order;
  for (const OrbitRecord rec : result.orbits) {
    if (rec.dominated) continue;
    util::poll_deadline();
    const std::size_t k = rec.seed.size();
    const std::size_t group_size = result.group.size();
    images.clear();
    for (std::size_t gi = 0; gi < group_size; ++gi) {
      for (const topology::VertexId v : rec.seed) {
        images.push_back(result.images.image(gi, v));
      }
      std::sort(images.end() - static_cast<std::ptrdiff_t>(k), images.end());
    }
    const auto image_row = [&](std::uint32_t gi) {
      return Row(images.data() + gi * k, k);
    };
    order.resize(group_size);
    std::iota(order.begin(), order.end(), 0u);
    // A nontrivial stabilizer repeats each image |Stab| times; keep one, in
    // sorted order.
    if (rec.stabilizer > 1) {
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  return topology::row_less(image_row(a), image_row(b));
                });
      order.erase(std::unique(order.begin(), order.end(),
                              [&](std::uint32_t a, std::uint32_t b) {
                                return topology::row_equal(image_row(a),
                                                           image_row(b));
                              }),
                  order.end());
    }
    for (const std::uint32_t gi : order) facets.push_back(image_row(gi));
  }
  topology::SimplicialComplex full_complex;
  full_complex.add_facets(facets);
  return full_complex;
}

topology::ComponentCounter orbit_full_components(
    const OrbitComplexResult& result, ViewRegistry& views,
    topology::VertexArena& arena) {
  obs::SpanTimer span("construction.orbit_components",
                      static_cast<std::int64_t>(result.orbits.size()));
  require_build_registries(result, views, arena, "orbit_full_components");
  topology::ComponentCounter counter;
  std::vector<topology::VertexId> row;
  std::size_t rows = 0;
  for (const OrbitRecord rec : result.orbits) {
    if (rec.dominated) continue;
    // A nontrivial stabilizer repeats images; a repeated row unites
    // nothing new.
    for (std::size_t gi = 0; gi < result.group.size(); ++gi) {
      if ((rows++ & 4095) == 0) util::poll_deadline();
      row.clear();
      for (const topology::VertexId v : rec.seed) {
        row.push_back(result.images.image(gi, v));
      }
      counter.add_row(row);
    }
  }
  return counter;
}

topology::SimplicialComplex async_protocol_complex(
    const topology::Simplex& input, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena) {
  require_rounds(params.rounds, "async_protocol_complex");
  return run_full<AsyncModel>(seed_one<AsyncModel>(input, params), views,
                              arena);
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
  return run_full<SyncModel>(seed_one<SyncModel>(input, params), views,
                             arena);
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
  return run_full<SemiSyncModel>(seed_one<SemiSyncModel>(input, params),
                                 views, arena);
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
  return run_full<IisModel>(seed_one<IisModel>(input, IisParams{rounds}),
                            views, arena);
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
