// Performance of the protocol-complex constructions and the simulator
// (google-benchmark): r-round complex builds in all three models, the
// solvability engine, a storeless connectivity sweep, and executor
// throughput.

#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <vector>

#include "bench_util.h"

#include "core/async_complex.h"
#include "core/construction.h"
#include "core/pseudosphere.h"
#include "core/semisync_complex.h"
#include "core/sync_complex.h"
#include "core/theorems.h"
#include "solve/decide.h"
#include "solve/engine.h"
#include "obs/obs.h"
#include "protocols/floodset.h"
#include "protocols/semisync_kset.h"
#include "sim/semisync_executor.h"
#include "store/serialize.h"
#include "sweep/sweep.h"
#include "topology/homology.h"
#include "util/random.h"

namespace {

using namespace psph;

void BM_AsyncRoundComplex(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    benchmark::DoNotOptimize(
        core::async_round_complex(input, {n1, 1, 1}, views, arena));
  }
}
BENCHMARK(BM_AsyncRoundComplex)->DenseRange(3, 5);

void BM_AsyncTwoRoundComplex(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    benchmark::DoNotOptimize(
        core::async_protocol_complex(input, {n1, 1, 2}, views, arena));
  }
}
BENCHMARK(BM_AsyncTwoRoundComplex)->DenseRange(3, 4);

void BM_SyncRoundComplex(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    benchmark::DoNotOptimize(core::sync_round_complex(
        input, {n1, 1, 1, 1}, views, arena));
  }
}
BENCHMARK(BM_SyncRoundComplex)->DenseRange(3, 6);

void BM_SemiSyncRoundComplex(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    benchmark::DoNotOptimize(core::semisync_round_complex(
        input, {n1, 1, 1, 2, 1}, views, arena));
  }
}
BENCHMARK(BM_SemiSyncRoundComplex)->DenseRange(3, 5);

// ---- Multi-round construction ----
//
// *ProtocolComplex: the level loop over Args({n, rounds}), fresh registries
// per iteration (the path users hit). Construction runs on the calling
// thread, so --threads does not change these numbers.

void BM_AsyncProtocolComplex(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  const int rounds = static_cast<int>(state.range(1));
  for (auto _ : state) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    benchmark::DoNotOptimize(
        core::async_protocol_complex(input, {n1, 1, rounds}, views, arena));
  }
}
BENCHMARK(BM_AsyncProtocolComplex)
    ->ArgNames({"n", "r"})
    ->Args({3, 2})
    ->Args({3, 3})
    ->Args({4, 2});

void BM_SyncProtocolComplex(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  const int rounds = static_cast<int>(state.range(1));
  for (auto _ : state) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    benchmark::DoNotOptimize(core::sync_protocol_complex(
        input, {n1, 2, 1, rounds}, views, arena));
  }
}
BENCHMARK(BM_SyncProtocolComplex)
    ->ArgNames({"n", "r"})
    ->Args({4, 2})
    ->Args({4, 3})
    ->Args({5, 2})
    ->Args({5, 3});

void BM_SemisyncProtocolComplex(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  const int rounds = static_cast<int>(state.range(1));
  for (auto _ : state) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    benchmark::DoNotOptimize(core::semisync_protocol_complex(
        input, {n1, 1, 1, 2, rounds}, views, arena));
  }
}
BENCHMARK(BM_SemisyncProtocolComplex)
    ->ArgNames({"n", "r"})
    ->Args({3, 2})
    ->Args({4, 2})
    ->Args({5, 2});

// ---- Symmetry-reduced (orbit) construction ----
//
// The BM_*Orbit variants build the same complexes through the orbit-quotient
// pipeline (DESIGN §5.16). Rainbow inputs carry the full diagonal symmetric
// group, so the frontier shrinks by a factor approaching n!; facet counts,
// f-vectors, and homology stay bit-identical to the full pipeline
// (tests/orbit_test.cpp proves it on every shared datapoint). Arg pairs
// repeat the BM_*ProtocolComplex grids so the speedup is a same-JSON ratio,
// plus larger orbit-only points the full pipeline cannot finish in bench
// time — the "beyond the wall" rows in BENCH_complexes.json.

void BM_AsyncProtocolComplexOrbit(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  const int rounds = static_cast<int>(state.range(1));
  std::uint64_t full_facets = 0;
  std::uint64_t reps = 0;
  for (auto _ : state) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    const core::OrbitComplexResult result = core::async_protocol_complex_orbit(
        input, {n1, 1, rounds}, views, arena);
    full_facets = result.full_facet_count;
    reps = result.orbits.size();
    benchmark::DoNotOptimize(result.reduced.facet_count());
  }
  state.counters["full_facets"] = static_cast<double>(full_facets);
  state.counters["orbit_reps"] = static_cast<double>(reps);
}
BENCHMARK(BM_AsyncProtocolComplexOrbit)
    ->ArgNames({"n", "r"})
    ->Args({3, 2})
    ->Args({3, 3})
    ->Args({4, 2})
    // Beyond the wall: ~9.77M full facets from 83,061 orbit reps. The full
    // pipeline does not finish this point in bench time (see EXPERIMENTS).
    ->Args({5, 2})
    ->Unit(benchmark::kMillisecond);

void BM_SyncProtocolComplexOrbit(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  const int rounds = static_cast<int>(state.range(1));
  std::uint64_t full_facets = 0;
  std::uint64_t reps = 0;
  for (auto _ : state) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    const core::OrbitComplexResult result = core::sync_protocol_complex_orbit(
        input, {n1, 2, 1, rounds}, views, arena);
    full_facets = result.full_facet_count;
    reps = result.orbits.size();
    benchmark::DoNotOptimize(result.reduced.facet_count());
  }
  state.counters["full_facets"] = static_cast<double>(full_facets);
  state.counters["orbit_reps"] = static_cast<double>(reps);
}
BENCHMARK(BM_SyncProtocolComplexOrbit)
    ->ArgNames({"n", "r"})
    ->Args({4, 2})
    ->Args({4, 3})
    ->Args({5, 2})
    ->Args({5, 3})
    ->Unit(benchmark::kMillisecond);

void BM_SemisyncProtocolComplexOrbit(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  const int rounds = static_cast<int>(state.range(1));
  std::uint64_t full_facets = 0;
  std::uint64_t reps = 0;
  for (auto _ : state) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    const core::OrbitComplexResult result =
        core::semisync_protocol_complex_orbit(input, {n1, 1, 1, 2, rounds},
                                              views, arena);
    full_facets = result.full_facet_count;
    reps = result.orbits.size();
    benchmark::DoNotOptimize(result.reduced.facet_count());
  }
  state.counters["full_facets"] = static_cast<double>(full_facets);
  state.counters["orbit_reps"] = static_cast<double>(reps);
}
BENCHMARK(BM_SemisyncProtocolComplexOrbit)
    ->ArgNames({"n", "r"})
    ->Args({3, 2})
    ->Args({4, 2})
    ->Args({5, 2})
    ->Unit(benchmark::kMillisecond);

// ---- End-to-end: construction + homology in one measured unit ----
//
// The span coverage of a full connectivity query: construction.* spans from
// the pipeline, homology.*/smith.* spans from the engine, pool.* spans from
// the fan-outs. This is the benchmark to run with --trace-out to see the
// whole system on one timeline.

void BM_EndToEndConnectivity(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  const int rounds = static_cast<int>(state.range(1));
  for (auto _ : state) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    const topology::SimplicialComplex k =
        core::async_protocol_complex(input, {n1, 1, rounds}, views, arena);
    topology::HomologyOptions options;
    options.max_dim = n1 - 1;
    benchmark::DoNotOptimize(topology::reduced_homology(k, options));
  }
}
BENCHMARK(BM_EndToEndConnectivity)
    ->ArgNames({"n", "r"})
    ->Args({3, 1})
    ->Args({3, 2})
    ->Args({4, 1});

// ---- Observability overhead ----
//
// The cost of one instrumentation point in both gate states. The disabled
// number is the per-probe price every instrumented hot path pays under
// PSPH_OBS=0 — it must stay at a branch-and-return (sub-nanosecond) for
// the "within 2% of uninstrumented" budget to hold at our span density.
// Each benchmark restores the prior gate state so ordering cannot leak
// into other benchmarks.

void BM_ObsSpanDisabled(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(false);
  for (auto _ : state) {
    obs::SpanTimer span("bench.obs_probe");
    benchmark::DoNotOptimize(&span);
  }
  obs::set_enabled(was_enabled);
}
BENCHMARK(BM_ObsSpanDisabled);

void BM_ObsSpanEnabled(benchmark::State& state) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  // Shrink the per-thread event cap so millions of probe iterations cannot
  // flood a --trace-out of the same run; aggregates are unaffected.
  obs::set_event_capacity(1024);
  for (auto _ : state) {
    obs::SpanTimer span("bench.obs_probe");
    benchmark::DoNotOptimize(&span);
  }
  obs::set_event_capacity(std::size_t{1} << 20);
  obs::set_enabled(was_enabled);
}
BENCHMARK(BM_ObsSpanEnabled);

void BM_DecisionSearchSolvable(benchmark::State& state) {
  // k = f + 1: a witness exists; end-to-end decide (build, compile,
  // search, canonical witness, verification).
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve::decide({solve::Model::kAsync, 3, 1, 2, 0, 1}));
  }
}
BENCHMARK(BM_DecisionSearchSolvable);

void BM_DecisionSearchImpossible(benchmark::State& state) {
  // Exhaustive refutation of 2-process consensus, end to end.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve::decide({solve::Model::kAsync, 2, 1, 1, 0, 1}));
  }
}
BENCHMARK(BM_DecisionSearchImpossible);

// A storeless sweep over fixed Lemma 12 points: the jobs fan out on the
// util::parallel pool — the only use of the pool in this binary, so this is
// what the thread-scaling rig times. Wall time, since the work runs on pool
// threads.
void BM_SweepConnectivityGrid(benchmark::State& state) {
  // The larger lemma12_async_connectivity points, heaviest first.
  static const std::vector<std::array<int, 4>> kGrid{
      {3, 3, 2, 2}, {5, 5, 1, 1}, {4, 4, 3, 1}, {4, 4, 2, 1},
      {3, 3, 1, 2}, {4, 4, 1, 1}, {3, 3, 2, 1}, {3, 3, 1, 1}};
  std::vector<sweep::JobSpec> jobs;
  for (const auto& [n1, m1, f, r] : kGrid) {
    jobs.push_back({"lemma12/connectivity", {n1, m1, f, r}, {}});
  }
  for (auto _ : state) {
    sweep::SweepEngine engine({});
    benchmark::DoNotOptimize(sweep::run_sweep<core::ConnectivityCheck>(
        engine, jobs,
        [](const sweep::JobSpec& spec, std::size_t) {
          const std::vector<std::int64_t>& p = spec.params;
          return core::check_async_connectivity(
              static_cast<int>(p[0]), static_cast<int>(p[1]),
              static_cast<int>(p[2]), static_cast<int>(p[3]));
        },
        store::serialize_connectivity_check,
        store::deserialize_connectivity_check));
  }
}
BENCHMARK(BM_SweepConnectivityGrid)->UseRealTime()->Unit(
    benchmark::kMillisecond);

void BM_FloodSetExecution(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  util::Rng rng(77);
  std::vector<std::int64_t> inputs;
  for (int p = 0; p < n1; ++p) inputs.push_back(p);
  for (auto _ : state) {
    core::ViewRegistry views;
    sim::RandomSyncAdversary adversary(util::Rng(rng.next()), 2);
    benchmark::DoNotOptimize(protocols::run_floodset(
        inputs, {n1, 2, 1}, adversary, views));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FloodSetExecution)->DenseRange(3, 8);

void BM_SemiSyncExecution(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  util::Rng rng(78);
  protocols::SemiSyncKSetConfig config;
  config.timing = {.c1 = 1, .c2 = 2, .d = 5, .num_processes = n1};
  config.max_failures = 1;
  config.k = 1;
  std::vector<std::int64_t> inputs;
  for (int p = 0; p < n1; ++p) inputs.push_back(p);
  for (auto _ : state) {
    sim::RandomSemiSyncAdversary adversary(util::Rng(rng.next()),
                                           config.timing, 1, 0.3, 20);
    benchmark::DoNotOptimize(
        sim::run_semisync(inputs, config.timing,
                          protocols::make_semisync_kset(config), adversary));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SemiSyncExecution)->DenseRange(3, 8);

// --- solvability engine (src/solve, DESIGN §5.17) -------------------------
//
// BM_DecisionEngine*: decide k-set agreement on a pre-built, pre-compiled
// instance — construction is hoisted out of the loop so the numbers time
// the engine alone (search plus the lex-min witness completion). The IIS
// hard case (3 processes, k=2) is the verdict the seed backtracker cannot
// reach in bounded time.

void BM_DecisionEngine(benchmark::State& state) {
  solve::DecideRequest request;
  request.model = solve::Model::kAsync;
  request.processes = static_cast<int>(state.range(0));
  request.f = static_cast<int>(state.range(1));
  request.k = static_cast<int>(state.range(2));
  request.rounds = 1;
  const std::unique_ptr<solve::Instance> instance =
      solve::build_instance(request);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve::solve(instance->problem));
  }
}
BENCHMARK(BM_DecisionEngine)->ArgNames({"n", "f", "k"})
    ->Args({3, 1, 2})->Args({3, 2, 2})->Args({4, 1, 2});

void BM_DecisionEngineIisHard(benchmark::State& state) {
  // The separation instance: one-round IIS 2-set agreement over 3
  // processes. The seed backtracker runs past 60 s without reaching the
  // verdict (14 s buys it just 2M of its 200M-node budget); the engine
  // refutes it per-iteration here, in microseconds.
  solve::DecideRequest request;
  request.model = solve::Model::kIis;
  request.processes = 3;
  request.k = 2;
  request.rounds = static_cast<int>(state.range(0));
  const std::unique_ptr<solve::Instance> instance =
      solve::build_instance(request);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve::solve(instance->problem));
  }
}
BENCHMARK(BM_DecisionEngineIisHard)->ArgNames({"r"})->Arg(1);

}  // namespace

// Custom main instead of BENCHMARK_MAIN so --threads / --trace-out /
// --stats reach us before google-benchmark sees (and would reject) them.
int main(int argc, char** argv) {
  psph::bench::ObsOptions obs_options;
  argc = psph::bench::apply_threads_flag(argc, argv);
  argc = psph::bench::apply_obs_flags(argc, argv, &obs_options);
  psph::bench::warn_if_unoptimized_build();
  psph::bench::warn_if_single_cpu();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  for (const auto& [key, value] : psph::bench::bench_context()) {
    benchmark::AddCustomContext(key, value);
  }
  benchmark::RunSpecifiedBenchmarks();
  const int obs_exit = psph::bench::finish_obs(obs_options);
  benchmark::Shutdown();
  return obs_exit;
}
