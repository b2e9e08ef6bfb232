// Performance of the topology engine (google-benchmark): pseudosphere
// construction, face enumeration, boundary matrices, GF(p) homology, exact
// SNF, barycentric subdivision, and the Morse reduction.

#include <benchmark/benchmark.h>

#include <array>

#include "bench_util.h"
#include "core/pseudosphere.h"
#include "math/smith.h"
#include "topology/collapse.h"
#include "topology/homology.h"
#include "topology/operations.h"
#include "topology/subdivision.h"
#include "util/parallel.h"

namespace {

using namespace psph;

constexpr int kMaxProcesses = 6;

// The binary pseudospheres ψ(S^{n}; {0,1}) shared by the sweeps below,
// built once for every configuration. The constructions are independent,
// so the setup fans out across the thread pool; each complex's face cache
// is warmed so the benchmarks measure steady-state query cost.
const topology::SimplicialComplex& binary_pseudosphere(int n1) {
  static const auto cache = [] {
    std::array<topology::SimplicialComplex, kMaxProcesses + 1> built;
    util::parallel_for(built.size(), [&](std::size_t n) {
      if (n < 2) return;
      topology::VertexArena arena;
      std::vector<core::ProcessId> pids;
      for (std::size_t i = 0; i < n; ++i) {
        pids.push_back(static_cast<core::ProcessId>(i));
      }
      built[n] = core::pseudosphere_uniform(pids, {0, 1}, arena);
      built[n].warm_face_cache();
    });
    return built;
  }();
  return cache[static_cast<std::size_t>(n1)];
}

void BM_PseudosphereConstruct(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  std::vector<core::ProcessId> pids;
  for (int i = 0; i < n1; ++i) pids.push_back(i);
  for (auto _ : state) {
    topology::VertexArena arena;
    benchmark::DoNotOptimize(
        core::pseudosphere_uniform(pids, {0, 1, 2}, arena));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PseudosphereConstruct)->DenseRange(2, 6);

// A cold face-cache build: every iteration rebuilds the complex from the
// same facets with the timer paused (dropping the previous one too), then
// times warm_face_cache() alone. Items are faces enumerated.
void BM_FaceEnumeration(benchmark::State& state) {
  const topology::SimplicialComplex& source =
      binary_pseudosphere(static_cast<int>(state.range(0)));
  topology::FacetRows facets;
  for (const topology::Simplex& facet : source.facets()) {
    facets.push_back(facet.vertices());
  }
  std::size_t faces = 0;
  for (std::size_t count : source.f_vector()) faces += count;
  topology::SimplicialComplex k;
  for (auto _ : state) {
    state.PauseTiming();
    k = topology::SimplicialComplex();
    k.add_facets(facets);
    state.ResumeTiming();
    k.warm_face_cache();
    benchmark::DoNotOptimize(&k);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(faces));
}
BENCHMARK(BM_FaceEnumeration)->DenseRange(3, 6);

void BM_BoundaryMatrix(benchmark::State& state) {
  const topology::SimplicialComplex& k =
      binary_pseudosphere(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::boundary_matrix(k, 2));
  }
}
BENCHMARK(BM_BoundaryMatrix)->DenseRange(3, 6);

void BM_HomologyGFp(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  const topology::SimplicialComplex& k = binary_pseudosphere(n1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topology::reduced_homology(k, {.max_dim = n1 - 1}));
  }
}
BENCHMARK(BM_HomologyGFp)->DenseRange(3, 6);

// The raw elimination path (Morse preprocessor disabled) on the same
// complexes, so the shrink the preprocessor buys stays measured instead of
// assumed: compare against BM_HomologyGFp.
void BM_HomologyGFpUnreduced(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  const topology::SimplicialComplex& k = binary_pseudosphere(n1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topology::reduced_homology(k, {.max_dim = n1 - 1, .morse = false}));
  }
}
BENCHMARK(BM_HomologyGFpUnreduced)->DenseRange(3, 6);

// The Morse preprocessor alone: cascade + critical-matrix extraction.
void BM_MorseReduce(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  const topology::SimplicialComplex& k = binary_pseudosphere(n1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::morse_reduce(k, n1));
  }
}
BENCHMARK(BM_MorseReduce)->DenseRange(3, 6);

// Exact SNF on a raw boundary matrix, bypassing the Morse preprocessor so
// the dense elimination (and its parallel row phase) is what's timed.
void BM_SmithNormalForm(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  const topology::SimplicialComplex& k = binary_pseudosphere(n1);
  const math::SparseMatrix boundary = topology::boundary_matrix(k, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::smith_normal_form(boundary));
  }
}
BENCHMARK(BM_SmithNormalForm)->DenseRange(3, 5);

void BM_HomologyExactSNF(benchmark::State& state) {
  const int n1 = static_cast<int>(state.range(0));
  const topology::SimplicialComplex& k = binary_pseudosphere(n1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        topology::reduced_homology(k, {.max_dim = 2, .exact = true}));
  }
}
BENCHMARK(BM_HomologyExactSNF)->DenseRange(3, 5);

void BM_BarycentricSubdivision(benchmark::State& state) {
  topology::SimplicialComplex k;
  std::vector<topology::VertexId> vertices;
  for (int i = 0; i <= state.range(0); ++i) {
    vertices.push_back(static_cast<topology::VertexId>(i));
  }
  k.add_facet(topology::Simplex(vertices));
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::barycentric_subdivision(k));
  }
}
BENCHMARK(BM_BarycentricSubdivision)->DenseRange(2, 5);

void BM_IntersectionOfPseudospheres(benchmark::State& state) {
  topology::VertexArena arena;
  const int n1 = static_cast<int>(state.range(0));
  std::vector<core::ProcessId> pids;
  for (int i = 0; i < n1; ++i) pids.push_back(i);
  const topology::SimplicialComplex a =
      core::pseudosphere_uniform(pids, {0, 1, 2}, arena);
  const topology::SimplicialComplex b =
      core::pseudosphere_uniform(pids, {1, 2, 3}, arena);
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::intersection_of(a, b));
  }
}
BENCHMARK(BM_IntersectionOfPseudospheres)->DenseRange(2, 4);

}  // namespace

// Custom main instead of BENCHMARK_MAIN so --threads reaches the pool
// before google-benchmark sees (and would reject) the flag.
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
