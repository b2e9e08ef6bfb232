// The compute workloads: sweep (connectivity checks), wall (the largest
// orbit-pipeline instances that fit a run), and decide (solvability
// verdicts). Untraced passes call the same public entry points the lemma
// drivers and psph_serve call; the traced pass splits each item into its
// layer calls so every layer gets its own span.

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>

#include "core/construction.h"
#include "core/pseudosphere.h"
#include "core/theorems.h"
#include "ledger.h"
#include "obs/obs.h"
#include "solve/decide.h"
#include "topology/homology.h"
#include "util/parallel.h"

namespace ledger {

namespace {

using namespace psph;

std::string fvector_string(const std::vector<std::size_t>& fvec) {
  std::string out = "[";
  for (std::size_t d = 0; d < fvec.size(); ++d) {
    if (d > 0) out += ",";
    out += std::to_string(fvec[d]);
  }
  return out + "]";
}

std::string check_answer(std::size_t facets, int measured, bool satisfied) {
  return "facets=" + std::to_string(facets) +
         " measured=" + std::to_string(measured) +
         " ok=" + (satisfied ? "1" : "0");
}

double span_ms(const obs::Snapshot& snap, const std::string& name) {
  for (const obs::SpanStat& span : snap.spans) {
    if (span.name == name) return static_cast<double>(span.total_ns) / 1e6;
  }
  return 0.0;
}

double counter(const obs::Snapshot& snap, const std::string& name) {
  for (const obs::CounterStat& c : snap.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  return 0.0;
}

/// The verdict rule of core::theorems' measure(), for the traced split.
bool satisfied(const topology::SimplicialComplex& complex, int expected,
               int measured) {
  if (expected <= -2) return true;
  if (expected == -1) return !complex.empty();
  return measured >= expected;
}

// ------------------------------------------------------------------ sweep --

enum class Kind { kAsync, kSync, kSemiSync, kPseudosphere };

struct SweepPoint {
  Kind kind;
  int n1 = 0, m1 = 0, fk = 0, mu = 0, r = 0;  // fk: f (async) or k
  std::vector<int> sizes;                     // pseudosphere only

  std::string id() const {
    std::ostringstream out;
    switch (kind) {
      case Kind::kAsync:
        out << "async n=" << n1 << " m=" << m1 << " f=" << fk << " r=" << r;
        break;
      case Kind::kSync:
        out << "sync n=" << n1 << " m=" << m1 << " k=" << fk << " r=" << r;
        break;
      case Kind::kSemiSync:
        out << "semisync n=" << n1 << " m=" << m1 << " k=" << fk
            << " mu=" << mu << " r=" << r;
        break;
      case Kind::kPseudosphere:
        out << "pseudosphere sizes=";
        for (std::size_t i = 0; i < sizes.size(); ++i) {
          out << (i ? "," : "") << sizes[i];
        }
        break;
    }
    return out.str();
  }
};

std::vector<SweepPoint> sweep_grid() {
  std::vector<SweepPoint> grid;
  // Lemma 12 grid (lemma12_async_connectivity) plus medium points.
  for (const auto& [n1, m1, f, r] : std::vector<std::array<int, 4>>{
           {3, 3, 1, 1}, {3, 3, 1, 2}, {3, 3, 1, 3}, {3, 3, 2, 1},
           {3, 3, 2, 2}, {3, 2, 1, 1}, {4, 4, 1, 1}, {4, 4, 2, 1},
           {4, 3, 1, 1}, {4, 3, 2, 1}, {4, 4, 3, 1}, {5, 5, 1, 1},
           {4, 4, 1, 2}, {5, 5, 2, 1}, {2, 2, 1, 7}}) {
    grid.push_back({Kind::kAsync, n1, m1, f, 0, r, {}});
  }
  // Lemma 16 grid plus medium points.
  for (const auto& [n1, m1, k, r] : std::vector<std::array<int, 4>>{
           {3, 3, 1, 1}, {4, 4, 1, 1}, {4, 4, 1, 2}, {4, 3, 1, 1},
           {5, 5, 1, 1}, {5, 5, 2, 1}, {5, 5, 1, 2}, {3, 3, 1, 2},
           {5, 5, 2, 2}, {6, 6, 1, 2}}) {
    grid.push_back({Kind::kSync, n1, m1, k, 0, r, {}});
  }
  // Lemma 21 grid plus medium points.
  for (const auto& [n1, m1, k, mu, r] : std::vector<std::array<int, 5>>{
           {3, 3, 1, 2, 1}, {3, 3, 1, 3, 1}, {3, 3, 1, 4, 1},
           {4, 4, 1, 2, 1}, {4, 4, 1, 2, 2}, {4, 3, 1, 2, 1},
           {4, 4, 1, 3, 1}, {3, 3, 1, 2, 2}, {5, 5, 1, 2, 2},
           {6, 6, 1, 2, 2}}) {
    grid.push_back({Kind::kSemiSync, n1, m1, k, mu, r, {}});
  }
  // Corollary 6 shapes: all-2, all-3 and one mixed shape per dimension.
  const std::vector<std::vector<int>> mixed{{1}, {3, 1}, {2, 4, 1}, {4, 1, 3, 2}};
  for (int m1 = 1; m1 <= 4; ++m1) {
    grid.push_back({Kind::kPseudosphere, 0, 0, 0, 0, 0,
                    std::vector<int>(static_cast<std::size_t>(m1), 2)});
    grid.push_back({Kind::kPseudosphere, 0, 0, 0, 0, 0,
                    std::vector<int>(static_cast<std::size_t>(m1), 3)});
    grid.push_back({Kind::kPseudosphere, 0, 0, 0, 0, 0,
                    mixed[static_cast<std::size_t>(m1 - 1)]});
  }
  return grid;
}

class SweepWorkload final : public Workload {
 public:
  explicit SweepWorkload(std::uint64_t seed)
      : grid_(sweep_grid()), order_(seeded_order(grid_.size(), seed)) {}

  PassResult run_pass(Tracer* tracer) override {
    PassResult result;
    Tracer::Scope pass(tracer, "pass");
    for (const std::size_t index : order_) {
      const SweepPoint& point = grid_[index];
      Tracer::Scope item(tracer, "item", static_cast<int>(index));
      try {
        result.answers.emplace_back(
            point.id(), tracer ? traced(point, tracer, static_cast<int>(index))
                               : untraced(point));
      } catch (const std::exception&) {
        ++result.errors;
      }
    }
    return result;
  }

  void layer_metrics(const Tracer& tracer, double traced_pass_s,
                     LayerMetrics& out) override {
    out["core.build_ms"] = tracer.self_ms("core.build");
    out["topology.face_cache_ms"] = tracer.self_ms("topology.face_cache");
    out["topology.homology_ms"] = tracer.self_ms("topology.homology");
    out["core.facets"] = static_cast<double>(facets_);
    out["core.cache_hit_ratio"] =
        lookups_ > 0 ? static_cast<double>(hits_) / lookups_ : 0.0;
    obs_layer_metrics(traced_pass_s, out);
  }

 private:
  static std::string untraced(const SweepPoint& p) {
    core::ConnectivityCheck check;
    switch (p.kind) {
      case Kind::kAsync:
        check = core::check_async_connectivity(p.n1, p.m1, p.fk, p.r);
        break;
      case Kind::kSync:
        check = core::check_sync_connectivity(p.n1, p.m1, p.fk, p.r);
        break;
      case Kind::kSemiSync:
        check =
            core::check_semisync_connectivity(p.n1, p.m1, p.fk, p.mu, p.r);
        break;
      case Kind::kPseudosphere:
        check = core::check_pseudosphere_connectivity(p.sizes);
        break;
    }
    return check_answer(check.facet_count, check.measured, check.satisfied);
  }

  /// The same chain check_*_connectivity runs, one span per layer call.
  std::string traced(const SweepPoint& p, Tracer* tracer, int item) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    core::ConstructionCache cache;
    topology::SimplicialComplex complex;
    int expected = 0;
    if (p.kind == Kind::kPseudosphere) {
      std::vector<core::ProcessId> pids;
      std::vector<std::vector<core::StateId>> value_sets;
      core::StateId next = 0;
      for (std::size_t i = 0; i < p.sizes.size(); ++i) {
        pids.push_back(static_cast<core::ProcessId>(i));
        std::vector<core::StateId> values;
        for (int v = 0; v < p.sizes[i]; ++v) values.push_back(next++);
        value_sets.push_back(std::move(values));
      }
      Tracer::Scope span(tracer, "core.pseudosphere", item);
      complex = core::pseudosphere(pids, value_sets, arena);
      expected = static_cast<int>(p.sizes.size()) - 2;
    } else {
      const topology::Simplex input =
          core::rainbow_input(p.m1, views, arena);
      const int m = p.m1 - 1;
      const int n = p.n1 - 1;
      expected = m - (n - p.fk) - 1;
      Tracer::Scope span(tracer, "core.build", item);
      if (p.kind == Kind::kAsync) {
        complex = core::async_protocol_complex(
            input, core::AsyncParams{p.n1, p.fk, p.r}, views, arena, cache);
      } else if (p.kind == Kind::kSync) {
        complex = core::sync_protocol_complex(
            input, core::SyncParams{p.n1, p.r * p.fk, p.fk, p.r}, views, arena,
            cache);
      } else {
        complex = core::semisync_protocol_complex(
            input, core::SemiSyncParams{p.n1, p.r * p.fk, p.fk, p.mu, p.r},
            views, arena, cache);
      }
    }
    const core::ConstructionStats stats = cache.stats();
    hits_ += stats.hits;
    lookups_ += stats.lookups;
    facets_ += complex.facet_count();
    {
      Tracer::Scope span(tracer, "topology.face_cache", item);
      complex.warm_face_cache();
    }
    int measured = 0;
    {
      Tracer::Scope span(tracer, "topology.homology", item);
      measured =
          topology::homological_connectivity(complex, std::max(expected, 0));
    }
    return check_answer(complex.facet_count(), measured,
                        satisfied(complex, expected, measured));
  }

  std::vector<SweepPoint> grid_;
  std::vector<std::size_t> order_;
  std::uint64_t hits_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t facets_ = 0;
};

// ------------------------------------------------------------------- wall --

/// Orbit-pipeline f-vector of the full async complex (n+1, f, r).
struct FVectorInstance {
  int n1, f, r;
  std::string id() const {
    return "fvector async n=" + std::to_string(n1) + " f=" +
           std::to_string(f) + " r=" + std::to_string(r);
  }
};

/// Orbit-mode async connectivity check (n+1, m+1, f, r).
struct OrbitCheckInstance {
  int n1, m1, f, r;
  std::string id() const {
    return "orbit-check async n=" + std::to_string(n1) +
           " m=" + std::to_string(m1) + " f=" + std::to_string(f) +
           " r=" + std::to_string(r);
  }
};

class WallWorkload final : public Workload {
 public:
  WallWorkload(std::uint64_t seed, std::vector<FVectorInstance> fvectors,
               std::vector<OrbitCheckInstance> checks)
      : fvectors_(std::move(fvectors)),
        checks_(std::move(checks)),
        order_(seeded_order(fvectors_.size() + checks_.size(), seed)) {}

  PassResult run_pass(Tracer* tracer) override {
    PassResult result;
    Tracer::Scope pass(tracer, "pass");
    for (const std::size_t index : order_) {
      Tracer::Scope item(tracer, "item", static_cast<int>(index));
      try {
        if (index < fvectors_.size()) {
          const FVectorInstance& w = fvectors_[index];
          result.answers.emplace_back(
              w.id(), fvector(w, tracer, static_cast<int>(index)));
        } else {
          const OrbitCheckInstance& w = checks_[index - fvectors_.size()];
          result.answers.emplace_back(
              w.id(), tracer ? traced_check(w, tracer, static_cast<int>(index))
                             : untraced_check(w));
        }
      } catch (const std::exception&) {
        ++result.errors;
      }
    }
    return result;
  }

  void layer_metrics(const Tracer& tracer, double traced_pass_s,
                     LayerMetrics& out) override {
    out["orbit.build_ms"] = tracer.self_ms("orbit.build");
    out["orbit.fvector_ms"] = tracer.self_ms("orbit.fvector");
    out["orbit.reconstitute_ms"] = tracer.self_ms("orbit.reconstitute");
    out["topology.face_cache_ms"] = tracer.self_ms("topology.face_cache");
    out["topology.homology_ms"] = tracer.self_ms("topology.homology");
    out["orbit.reps"] = static_cast<double>(reps_);
    out["core.facets"] = static_cast<double>(facets_);
    obs_layer_metrics(traced_pass_s, out);
  }

 private:
  /// Orbit build plus f-vector; the same calls traced or not.
  std::string fvector(const FVectorInstance& w, Tracer* tracer, int item) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    core::ConstructionCache cache;
    const topology::Simplex input = core::rainbow_input(w.n1, views, arena);
    core::ConstructionOptions options;
    options.mode = core::ConstructionMode::kOrbit;
    core::OrbitComplexResult orbit = [&] {
      Tracer::Scope span(tracer, "orbit.build", item);
      return core::async_protocol_complex_orbit(
          input, core::AsyncParams{w.n1, w.f, w.r}, views, arena, cache,
          options);
    }();
    std::vector<std::size_t> fvec;
    {
      Tracer::Scope span(tracer, "orbit.fvector", item);
      fvec = core::orbit_full_f_vector(orbit, views, arena);
    }
    if (tracer != nullptr) {
      reps_ += orbit.orbits.size();
      facets_ += orbit.full_facet_count;
    }
    return "facets=" + std::to_string(orbit.full_facet_count) +
           " fvector=" + fvector_string(fvec);
  }

  static std::string untraced_check(const OrbitCheckInstance& w) {
    core::ConstructionOptions options;
    options.mode = core::ConstructionMode::kOrbit;
    const core::ConnectivityCheck check =
        core::check_async_connectivity(w.n1, w.m1, w.f, w.r, options);
    return check_answer(check.facet_count, check.measured, check.satisfied);
  }

  /// check_async_connectivity(kOrbit) split into its layer calls.
  std::string traced_check(const OrbitCheckInstance& w, Tracer* tracer,
                           int item) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    core::ConstructionCache cache;
    const topology::Simplex input = core::rainbow_input(w.m1, views, arena);
    core::ConstructionOptions options;
    options.mode = core::ConstructionMode::kOrbit;
    core::OrbitComplexResult orbit = [&] {
      Tracer::Scope span(tracer, "orbit.build", item);
      return core::async_protocol_complex_orbit(
          input, core::AsyncParams{w.n1, w.f, w.r}, views, arena, cache,
          options);
    }();
    topology::SimplicialComplex complex = [&] {
      Tracer::Scope span(tracer, "orbit.reconstitute", item);
      return core::reconstitute_full(orbit, views, arena);
    }();
    reps_ += orbit.orbits.size();
    facets_ += complex.facet_count();
    const int expected = (w.m1 - 1) - (w.n1 - 1 - w.f) - 1;
    {
      Tracer::Scope span(tracer, "topology.face_cache", item);
      complex.warm_face_cache();
    }
    int measured = 0;
    {
      Tracer::Scope span(tracer, "topology.homology", item);
      measured =
          topology::homological_connectivity(complex, std::max(expected, 0));
    }
    return check_answer(complex.facet_count(), measured,
                        satisfied(complex, expected, measured));
  }

  std::vector<FVectorInstance> fvectors_;
  std::vector<OrbitCheckInstance> checks_;
  std::vector<std::size_t> order_;
  std::uint64_t reps_ = 0;
  std::uint64_t facets_ = 0;
};

// ----------------------------------------------------------------- decide --

std::vector<solve::DecideRequest> decide_grid() {
  using solve::Model;
  std::vector<solve::DecideRequest> grid;
  // Corollary 13 frontier: k <= f impossible, k = f + 1 solvable.
  for (const auto& [n1, f, k] : std::vector<std::array<int, 3>>{
           {3, 1, 1}, {3, 1, 2}, {3, 2, 2}, {3, 2, 3},
           {4, 1, 1}, {4, 1, 2}, {4, 2, 2}}) {
    grid.push_back({Model::kAsync, n1, f, k, 0, 1});
  }
  // Theorem 18: sync (4, f2, k1, r1..3) and (4, f1, k1, r2).
  for (const int r : {1, 2, 3}) grid.push_back({Model::kSync, 4, 2, 1, 0, r});
  grid.push_back({Model::kSync, 4, 1, 1, 0, 2});
  // Corollary 22: semisync (4, f2, k1, mu2, r1..2).
  for (const int r : {1, 2}) grid.push_back({Model::kSemiSync, 4, 2, 1, 2, r});
  // IIS.
  grid.push_back({Model::kIis, 3, 0, 2, 0, 1});
  grid.push_back({Model::kIis, 3, 0, 1, 0, 2});
  grid.push_back({Model::kIis, 4, 0, 2, 0, 1});
  return grid;
}

std::string decide_id(const solve::DecideRequest& r) {
  return std::string(solve::model_name(r.model)) +
         " n=" + std::to_string(r.processes) + " f=" + std::to_string(r.f) +
         " k=" + std::to_string(r.k) + " mu=" + std::to_string(r.mu) +
         " r=" + std::to_string(r.rounds);
}

std::string verdict(bool exhausted, bool solvable, std::uint64_t facets) {
  return std::string(!exhausted ? "aborted"
                     : solvable ? "solvable"
                                : "unsolvable") +
         " facets=" + std::to_string(facets);
}

class DecideWorkload final : public Workload {
 public:
  explicit DecideWorkload(std::uint64_t seed)
      : grid_(decide_grid()), order_(seeded_order(grid_.size(), seed)) {}

  PassResult run_pass(Tracer* tracer) override {
    PassResult result;
    Tracer::Scope pass(tracer, "pass");
    for (const std::size_t index : order_) {
      const solve::DecideRequest& request = grid_[index];
      Tracer::Scope item(tracer, "item", static_cast<int>(index));
      try {
        if (tracer == nullptr) {
          const solve::DecideResult decided = solve::decide(request);
          result.answers.emplace_back(
              decide_id(request),
              verdict(decided.record.exhausted, decided.record.solvable,
                      decided.record.protocol_facets));
        } else {
          result.answers.emplace_back(
              decide_id(request),
              traced(request, tracer, static_cast<int>(index)));
        }
      } catch (const std::exception&) {
        ++result.errors;
      }
    }
    return result;
  }

  void layer_metrics(const Tracer& tracer, double traced_pass_s,
                     LayerMetrics& out) override {
    out["solve.instance_ms"] = tracer.self_ms("solve.instance");
    out["solve.search_ms"] = tracer.self_ms("solve.search");
    out["solve.verify_ms"] = tracer.self_ms("solve.verify");
    out["solve.nodes"] = static_cast<double>(stats_.nodes);
    out["solve.propagations"] = static_cast<double>(stats_.propagations);
    out["solve.learned_nogoods"] = static_cast<double>(stats_.learned_nogoods);
    obs_layer_metrics(traced_pass_s, out);
  }

 private:
  /// solve::decide's compute path (storeless) split into its layer calls;
  /// the witness re-verification stays on.
  std::string traced(const solve::DecideRequest& raw, Tracer* tracer,
                     int item) {
    const solve::DecideRequest request = solve::normalize(raw);
    std::unique_ptr<solve::Instance> instance;
    {
      Tracer::Scope span(tracer, "solve.instance", item);
      instance = solve::build_instance(request, /*with_symmetry=*/true);
    }
    solve::SolveOutcome outcome;
    {
      Tracer::Scope span(tracer, "solve.search", item);
      outcome = solve::solve(instance->problem, solve::EngineOptions{});
    }
    stats_.nodes += outcome.stats.nodes;
    stats_.propagations += outcome.stats.propagations;
    stats_.learned_nogoods += outcome.stats.learned_nogoods;
    const bool solvable = outcome.exhausted && outcome.solvable;
    if (solvable) {
      Tracer::Scope span(tracer, "solve.verify", item);
      const solve::WitnessCheck check =
          solve::verify_witness(instance->problem, outcome.witness);
      if (!check.ok) throw std::logic_error("witness failed verification");
    }
    return verdict(outcome.exhausted, solvable,
                   instance->problem.facets.size());
  }

  std::vector<solve::DecideRequest> grid_;
  std::vector<std::size_t> order_;
  solve::EngineStats stats_;
};

}  // namespace

void obs_layer_metrics(double traced_pass_s, LayerMetrics& out) {
  const obs::Snapshot snap = obs::snapshot();
  out["core.consume_ms"] = span_ms(snap, "construction.consume");
  out["core.expand_ms"] = span_ms(snap, "construction.expand");
  out["core.remap_ms"] = span_ms(snap, "construction.remap");
  out["core.dedupe_ms"] = span_ms(snap, "construction.dedupe");
  out["topology.morse_ms"] = span_ms(snap, "morse.reduce");
  out["math.rank_ms"] = span_ms(snap, "homology.rank");
  const double before =
      counter(snap, "morse.rows_before") + counter(snap, "morse.cols_before");
  const double after =
      counter(snap, "morse.rows_after") + counter(snap, "morse.cols_after");
  out["topology.morse_kept_ratio"] = before > 0 ? after / before : 0.0;
  out["pool.busy_share"] =
      counter(snap, "pool.worker_busy_ns") /
      (1e9 * traced_pass_s * util::thread_count());
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir) {
  if (name == "sweep") return std::make_unique<SweepWorkload>(seed);
  if (name == "wall") {
    // The full-size wall (f-vector of async (5, 1, 2), orbit-mode check
    // (3, 3, 2, 3)) takes 19-27 s a pass; these run the same calls at the
    // largest sizes that fit several passes into one run (see README.md).
    return std::make_unique<WallWorkload>(
        seed, std::vector<FVectorInstance>{{3, 1, 4}, {4, 1, 2}},
        std::vector<OrbitCheckInstance>{{3, 3, 1, 4}, {3, 3, 2, 2}});
  }
  if (name == "decide") return std::make_unique<DecideWorkload>(seed);
  if (name == "serve") return make_serve_workload(seed, work_dir);
  return nullptr;
}

}  // namespace ledger
