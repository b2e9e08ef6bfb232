#include "core/construction.h"

#include <algorithm>
#include <cstdint>
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

// Distinct sorted vertex rows of any width, end to end in one array under a
// flat index: one allocation per table, not per row. The domination scan's
// strict faces and the f-vector's counted face orbits live here.
class RowSet {
 public:
  /// Adds the row; false if it was already present.
  bool insert(const topology::VertexId* row, std::size_t width) {
    const std::size_t next = starts_.size() - 1;
    if (index_.find_or_insert(util::row_hash(row, width), next,
                              [&](std::size_t i) {
                                return equal(i, row, width);
                              }) != next) {
      return false;
    }
    rows_.insert(rows_.end(), row, row + width);
    starts_.push_back(rows_.size());
    return true;
  }

  bool contains(const topology::VertexId* row, std::size_t width) const {
    return index_.find(util::row_hash(row, width), [&](std::size_t i) {
             return equal(i, row, width);
           }) != util::FlatIndex::kAbsent;
  }

 private:
  bool equal(std::size_t i, const topology::VertexId* row,
             std::size_t width) const {
    return starts_[i + 1] - starts_[i] == width &&
           std::equal(row, row + width, rows_.data() + starts_[i]);
  }

  // Row i is rows_[starts_[i], starts_[i + 1]).
  std::vector<topology::VertexId> rows_;
  std::vector<std::size_t> starts_{0};
  util::FlatIndex index_;
};

// Orbit-mode accumulation: canonical representatives of the final-round
// facets, first-seen order, deduplicated by representative.
struct OrbitAccum {
  OrbitContext* ctx = nullptr;
  std::vector<OrbitRecord> records;
  util::FlatIndex seen;  // over records, keyed by rep

  void add_final(const topology::Simplex& facet) {
    util::poll_deadline();
    CanonicalFacet canon = ctx->canonicalize(facet);
    g_obs_orbit_canonicalized.add(1);
    const std::vector<topology::VertexId>& rep = canon.rep.vertices();
    const std::size_t next = records.size();
    if (seen.find_or_insert(util::row_hash(rep.data(), rep.size()), next,
                            [&](std::size_t i) {
                              return records[i].rep == canon.rep;
                            }) != next) {
      return;
    }
    g_obs_orbit_reps.add(1);
    records.push_back(OrbitRecord{std::move(canon.rep), canon.stabilizer,
                                  /*dominated=*/false, /*seed=*/facet});
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
      // Keyed by (packed params, vertex row) over the kept items.
      util::FlatIndex seen;
      seen.reserve(frontier.size());
      for (auto& [facet, params] : frontier) {
        if (orbit != nullptr) {
          util::poll_deadline();
          facet = orbit->ctx->canonicalize(facet).rep;
          g_obs_orbit_canonicalized.add(1);
        }
        const std::uint64_t key = Model::params_key(params);
        const std::vector<topology::VertexId>& row = facet.vertices();
        const std::size_t next = items.size();
        if (seen.find_or_insert(
                util::row_hash(row.data(), row.size(), key), next,
                [&](std::size_t i) {
                  return Model::params_key(items[i].second) == key &&
                         items[i].first.vertices() == row;
                }) != next) {
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
void finish_orbit_result(std::vector<OrbitRecord> records,
                         OrbitComplexResult& result) {
  obs::SpanTimer span("construction.orbit_finish",
                      static_cast<std::int64_t>(records.size()));
  const std::size_t group_size = result.group.size();
  bool pure = true;
  for (const OrbitRecord& rec : records) {
    if (rec.rep.size() != records.front().rep.size()) {
      pure = false;
      break;
    }
  }
  if (!pure) {
    // Every strict face of every representative, one row set; an orbit is
    // dominated iff some image of its seed lands in it. Faces are the
    // representative's masked subsequences, so every row comes out sorted.
    RowSet strict_faces;
    std::vector<topology::VertexId> row;
    for (const OrbitRecord& rec : records) {
      const std::vector<topology::VertexId>& rep = rec.rep.vertices();
      const std::uint64_t whole = (std::uint64_t{1} << rep.size()) - 1;
      for (std::uint64_t mask = 1; mask < whole; ++mask) {
        row.clear();
        for (std::size_t i = 0; i < rep.size(); ++i) {
          if ((mask >> i) & 1U) row.push_back(rep[i]);
        }
        strict_faces.insert(row.data(), row.size());
      }
    }
    for (OrbitRecord& rec : records) {
      util::poll_deadline();
      for (std::size_t gi = 0; gi < group_size && !rec.dominated; ++gi) {
        row.clear();
        for (const topology::VertexId v : rec.seed.vertices()) {
          row.push_back(result.images.image(gi, v));
        }
        std::sort(row.begin(), row.end());
        rec.dominated = strict_faces.contains(row.data(), row.size());
      }
    }
  }

  std::vector<topology::Simplex> maximal;
  maximal.reserve(records.size());
  for (const OrbitRecord& rec : records) {
    if (rec.dominated) continue;
    result.full_facet_count +=
        static_cast<std::uint64_t>(group_size) / rec.stabilizer;
    maximal.push_back(rec.rep);
  }
  result.reduced.add_facets(std::move(maximal));
  result.orbits = std::move(records);
}

template <typename Model>
OrbitComplexResult run_orbit(const topology::Simplex& input,
                             const typename Model::Params& params,
                             ViewRegistry& views,
                             topology::VertexArena& arena) {
  OrbitComplexResult result;
  result.group = SymmetryGroup::for_input_facet(input, views, arena);
  std::vector<OrbitRecord> records;
  {
    OrbitContext ctx(result.group, views, arena);
    OrbitAccum accum;
    accum.ctx = &ctx;
    run_pipeline<Model>({{input, params}}, views, arena, nullptr, &accum);
    // Only the records and the vertex images outlive the pipeline; the
    // state memo and the accumulator's rep set are freed before the
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
  RowSet counted;
  std::vector<std::size_t> f;
  // rows: the seed's image under each element as one row of (image vertex,
  // seed position) pairs, sorted, so the image of the face a bit mask over
  // seed positions selects is the row's masked subsequence, in vertex order.
  std::vector<ImageEntry> rows;
  std::vector<topology::VertexId> rep;
  for (const OrbitRecord& rec : result.orbits) {
    if (rec.dominated) continue;
    util::poll_deadline();
    const std::vector<topology::VertexId>& seed = rec.seed.vertices();
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
      if (!counted.insert(rep.data(), rep.size())) continue;
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
  // Room for every distinct image plus one orbit's repeats before dedupe.
  std::vector<topology::Simplex> facets;
  facets.reserve(static_cast<std::size_t>(result.full_facet_count) +
                 result.group.size());
  for (const OrbitRecord& rec : result.orbits) {
    if (rec.dominated) continue;
    util::poll_deadline();
    const std::size_t first = facets.size();
    for (std::size_t gi = 0; gi < result.group.size(); ++gi) {
      facets.push_back(result.images.relabel_facet(gi, rec.seed));
    }
    // A nontrivial stabilizer repeats each image |Stab| times; keep one.
    if (rec.stabilizer > 1) {
      const auto begin = facets.begin() + static_cast<std::ptrdiff_t>(first);
      std::sort(begin, facets.end());
      facets.erase(std::unique(begin, facets.end()), facets.end());
    }
  }
  topology::SimplicialComplex full;
  full.add_facets(std::move(facets));
  return full;
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
  for (const OrbitRecord& rec : result.orbits) {
    if (rec.dominated) continue;
    // A nontrivial stabilizer repeats images; a repeated row unites
    // nothing new.
    for (std::size_t gi = 0; gi < result.group.size(); ++gi) {
      if ((rows++ & 4095) == 0) util::poll_deadline();
      row.clear();
      for (const topology::VertexId v : rec.seed.vertices()) {
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
