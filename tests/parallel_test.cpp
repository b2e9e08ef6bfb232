// Thread pool unit tests plus the thread-parity guarantee: Betti numbers,
// torsion and constructed complexes must be byte-identical at every thread
// count, and one query's compute never reaches the pool. Run these under
// -DPSPH_SANITIZE=thread to validate the pool.

#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/async_complex.h"
#include "core/construction.h"
#include "core/iis_complex.h"
#include "core/pseudosphere.h"
#include "core/semisync_complex.h"
#include "core/sync_complex.h"
#include "core/theorems.h"
#include "math/smith.h"
#include "obs/obs.h"
#include "oracle/protocol_complex_seq.h"
#include "solve/decide.h"
#include "topology/homology.h"
#include "util/random.h"

namespace {

using namespace psph;

/// Seed for the randomized differential: PSPH_TEST_SEED overrides the
/// fallback so CI can re-run the draw on a second stream.
std::uint64_t test_seed(std::uint64_t fallback) {
  const char* raw = std::getenv("PSPH_TEST_SEED");
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return parsed;
}

// Every test restores the global thread count so ordering does not leak
// configuration between tests.
class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_ = util::thread_count(); }
  void TearDown() override { util::set_thread_count(previous_); }

 private:
  int previous_ = 1;
};

TEST_F(ParallelTest, PoolRunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST_F(ParallelTest, PoolWithZeroWorkersRunsInline) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(5);
  pool.run(seen.size(), [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

TEST_F(ParallelTest, PoolIsReusableAcrossBatches) {
  util::ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 20; ++batch) {
    pool.run(10, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 200);
}

TEST_F(ParallelTest, PoolRethrowsFirstExceptionAfterDraining) {
  util::ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(pool.run(64,
                        [&](std::size_t i) {
                          if (i == 7) throw std::runtime_error("boom");
                          ++completed;
                        }),
               std::runtime_error);
  // Every index other than the throwing one still ran.
  EXPECT_EQ(completed.load(), 63);
}

TEST_F(ParallelTest, ParallelForInlineWhenSingleThreaded) {
  util::set_thread_count(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  util::parallel_for(seen.size(), [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

TEST_F(ParallelTest, NestedParallelForRunsInlineWithoutDeadlock) {
  util::set_thread_count(4);
  std::atomic<int> total{0};
  util::parallel_for(4, [&](std::size_t) {
    util::parallel_for(4, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST_F(ParallelTest, SetThreadCountRoundTrip) {
  util::set_thread_count(8);
  EXPECT_EQ(util::thread_count(), 8);
  util::set_thread_count(1);
  EXPECT_EQ(util::thread_count(), 1);
  // n <= 0 selects hardware concurrency, which is always at least 1.
  util::set_thread_count(0);
  EXPECT_GE(util::thread_count(), 1);
}

// ------------------------------------------------------- thread parity --

// The Figure 1-3 complexes exercised by the experiment binaries.
topology::SimplicialComplex fig1_binary_pseudosphere(int n1) {
  topology::VertexArena arena;
  std::vector<core::ProcessId> pids;
  for (int i = 0; i < n1; ++i) pids.push_back(i);
  return core::pseudosphere_uniform(pids, {0, 1}, arena);
}

topology::SimplicialComplex fig2_ternary_pseudosphere() {
  topology::VertexArena arena;
  return core::pseudosphere_uniform({0, 1}, {0, 1, 2}, arena);
}

topology::SimplicialComplex fig3_sync_one_round() {
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::rainbow_input(3, views, arena);
  return core::sync_round_complex(input, {3, 1, 1, 1}, views, arena);
}

std::string homology_at_threads(const topology::SimplicialComplex& k,
                                int threads, int max_dim) {
  util::set_thread_count(threads);
  const topology::HomologyReport report =
      topology::reduced_homology(k, {.max_dim = max_dim, .exact = true});
  return report.to_string();
}

TEST_F(ParallelTest, HomologyIdenticalAcrossThreadCounts) {
  const std::vector<topology::SimplicialComplex> complexes = {
      fig1_binary_pseudosphere(3),
      fig1_binary_pseudosphere(4),
      fig2_ternary_pseudosphere(),
      fig3_sync_one_round(),
  };
  for (const topology::SimplicialComplex& k : complexes) {
    const int max_dim = k.dimension() + 1;
    const std::string serial = homology_at_threads(k, 1, max_dim);
    const std::string parallel = homology_at_threads(k, 8, max_dim);
    EXPECT_EQ(serial, parallel) << k.to_string();
  }
}

TEST_F(ParallelTest, ConnectivityIdenticalAcrossThreadCounts) {
  const topology::SimplicialComplex sphere = fig1_binary_pseudosphere(4);
  util::set_thread_count(1);
  const int serial = topology::homological_connectivity(sphere, 3);
  util::set_thread_count(8);
  const int parallel = topology::homological_connectivity(sphere, 3);
  EXPECT_EQ(serial, parallel);
  // ψ(S^3; {0,1}) is the 3-sphere: 2-connected with H̃_3 ≠ 0.
  EXPECT_EQ(serial, 2);
}

// Every face query's answer for dimensions -1..dimension()+1, the face rows
// copied out of the cache.
struct FaceAnswers {
  std::vector<std::size_t> counts;
  std::vector<std::vector<topology::VertexId>> rows;
  std::vector<std::vector<std::size_t>> links;
  std::vector<std::size_t> f_vector;

  bool operator==(const FaceAnswers& other) const = default;
};

// Queries the dimensions starting from `first`, so concurrent callers race
// on different tables first; answers are stored by dimension either way.
FaceAnswers query_faces(const topology::SimplicialComplex& k, int first) {
  const int lo = -1;
  const int hi = k.dimension() + 1;
  const std::size_t levels = static_cast<std::size_t>(hi - lo + 1);
  FaceAnswers out;
  out.counts.resize(levels);
  out.rows.resize(levels);
  out.links.resize(levels);
  for (std::size_t step = 0; step < levels; ++step) {
    const std::size_t at =
        (static_cast<std::size_t>(first) + step) % levels;
    const int d = lo + static_cast<int>(at);
    out.counts[at] = k.count_of_dim(d);
    const std::span<const topology::VertexId> rows = k.face_rows_of_dim(d);
    out.rows[at].assign(rows.begin(), rows.end());
    out.links[at] = k.boundary_links_of_dim(d);
  }
  out.f_vector = k.f_vector();
  return out;
}

// Eight threads query one cold complex at once: whichever thread arrives
// first builds the face cache, behind the cache mutex, and every thread
// reads the levels it needs once they are published. Every answer must
// equal a serial pass over an identical complex.
TEST_F(ParallelTest, ConcurrentFaceQueriesOnColdComplexMatchSerial) {
  using Build = topology::SimplicialComplex (*)();
  const Build builds[] = {
      [] { return fig1_binary_pseudosphere(4); },
      [] { return fig3_sync_one_round(); },
  };
  for (const Build build : builds) {
    const FaceAnswers serial = query_faces(build(), 0);
    const topology::SimplicialComplex cold = build();
    constexpr int kThreads = 8;
    std::vector<FaceAnswers> answers(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        answers[static_cast<std::size_t>(t)] = query_faces(cold, t);
      });
    }
    go.store(true, std::memory_order_release);
    for (std::thread& thread : threads) thread.join();
    ASSERT_FALSE(serial.rows.empty());
    EXPECT_EQ(serial.f_vector, cold.f_vector());
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_TRUE(answers[static_cast<std::size_t>(t)] == serial)
          << "thread " << t << " on " << cold.to_string();
    }
  }
}

TEST_F(ParallelTest, SmithNormalFormIdenticalAcrossThreadCounts) {
  // The dense SNF's parallel row-clearing phase must not change the
  // computed invariant factors (they are canonical, but this checks the
  // implementation took the same reduction path to them).
  const topology::SimplicialComplex k = fig1_binary_pseudosphere(4);
  const math::SparseMatrix boundary = topology::boundary_matrix(k, 2);
  std::vector<std::string> renderings;
  for (const int threads : {1, 2, 8}) {
    util::set_thread_count(threads);
    const math::SmithResult snf = math::smith_normal_form(boundary);
    std::string rendered;
    for (const math::BigInt& inv : snf.invariants) {
      rendered += inv.to_string();
      rendered += ',';
    }
    renderings.push_back(std::move(rendered));
  }
  EXPECT_EQ(renderings[0], renderings[1]);
  EXPECT_EQ(renderings[0], renderings[2]);
}

// ------------------------------------- construction thread parity --------

// Everything the bit-identity guarantee covers: the complex's facet list as
// raw vertex ids, the full registry and arena contents in id order, and the
// homology computed from the complex. Two Snapshots compare equal only if
// the runs were indistinguishable down to numeric id assignment.
struct ConstructionSnapshot {
  std::vector<topology::Simplex> facets;
  std::vector<std::string> views_in_id_order;
  std::vector<std::pair<core::ProcessId, topology::StateId>>
      vertex_labels_in_id_order;
  std::string homology;

  bool operator==(const ConstructionSnapshot& other) const = default;
};

template <typename BuildFn>
ConstructionSnapshot snapshot_at_threads(int threads, int participants,
                                         const BuildFn& build) {
  util::set_thread_count(threads);
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input =
      core::rainbow_input(participants, views, arena);
  const topology::SimplicialComplex k = build(input, views, arena);
  ConstructionSnapshot snapshot;
  snapshot.facets = k.facets();
  for (topology::StateId id = 0; id < views.size(); ++id) {
    snapshot.views_in_id_order.push_back(views.to_string(id));
  }
  for (topology::VertexId id = 0; id < arena.size(); ++id) {
    snapshot.vertex_labels_in_id_order.emplace_back(arena.pid(id),
                                                    arena.state(id));
  }
  // Mod-p Betti numbers (the fast path) keep this cheap; the id-order
  // comparisons above already pin the complex bit-for-bit, and the fast
  // path additionally exercises the parallel rank engine being compared.
  snapshot.homology =
      topology::reduced_homology(k, {.max_dim = k.dimension()}).to_string();
  return snapshot;
}

template <typename BuildFn>
void expect_bit_identical_construction(int participants, const BuildFn& build,
                                       const char* label) {
  const ConstructionSnapshot at1 = snapshot_at_threads(1, participants, build);
  for (const int threads : {2, 8}) {
    const ConstructionSnapshot at_n =
        snapshot_at_threads(threads, participants, build);
    EXPECT_EQ(at1.facets, at_n.facets) << label << " threads=" << threads;
    EXPECT_EQ(at1.views_in_id_order, at_n.views_in_id_order)
        << label << " threads=" << threads;
    EXPECT_EQ(at1.vertex_labels_in_id_order, at_n.vertex_labels_in_id_order)
        << label << " threads=" << threads;
    EXPECT_EQ(at1.homology, at_n.homology) << label << " threads=" << threads;
  }
}

TEST_F(ParallelTest, AsyncConstructionBitIdenticalAcrossThreadCounts) {
  expect_bit_identical_construction(
      3,
      [](const topology::Simplex& input, core::ViewRegistry& views,
         topology::VertexArena& arena) {
        return core::async_protocol_complex(input, {3, 1, 2}, views, arena);
      },
      "async n=3 f=1 r=2");
}

TEST_F(ParallelTest, SyncConstructionBitIdenticalAcrossThreadCounts) {
  expect_bit_identical_construction(
      3,
      [](const topology::Simplex& input, core::ViewRegistry& views,
         topology::VertexArena& arena) {
        return core::sync_protocol_complex(input, {3, 2, 1, 2}, views, arena);
      },
      "sync n=3 f=2 k=1 r=2");
}

TEST_F(ParallelTest, SemisyncConstructionBitIdenticalAcrossThreadCounts) {
  expect_bit_identical_construction(
      3,
      [](const topology::Simplex& input, core::ViewRegistry& views,
         topology::VertexArena& arena) {
        return core::semisync_protocol_complex(input, {3, 1, 1, 2, 2}, views,
                                               arena);
      },
      "semisync n=3 f=1 k=1 mu=2 r=2");
}

TEST_F(ParallelTest, IisConstructionBitIdenticalAcrossThreadCounts) {
  expect_bit_identical_construction(
      3,
      [](const topology::Simplex& input, core::ViewRegistry& views,
         topology::VertexArena& arena) {
        return core::iis_protocol_complex(input, 2, views, arena);
      },
      "iis n=3 r=2");
}

// The pipeline and the sequential reference recursion, run against the SAME
// registry/arena, must produce the same complex (hash-consing makes the
// comparison exact regardless of id assignment order).
TEST_F(ParallelTest, PipelineMatchesSequentialReference) {
  util::set_thread_count(8);
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::rainbow_input(3, views, arena);

  EXPECT_EQ(core::async_protocol_complex(input, {3, 1, 2}, views, arena),
            oracle::async_protocol_complex_seq(input, {3, 1, 2}, views,
                                               arena));
  EXPECT_EQ(core::sync_protocol_complex(input, {3, 2, 1, 2}, views, arena),
            oracle::sync_protocol_complex_seq(input, {3, 2, 1, 2}, views,
                                              arena));
  EXPECT_EQ(
      core::semisync_protocol_complex(input, {3, 1, 1, 2, 2}, views, arena),
      oracle::semisync_protocol_complex_seq(input, {3, 1, 1, 2, 2}, views,
                                            arena));
  EXPECT_EQ(core::iis_protocol_complex(input, 2, views, arena),
            oracle::iis_protocol_complex_seq(input, 2, views, arena));
}

// Randomized extension of the same differential: the model, process count,
// failure budget, and round count are seeded random draws rather than the
// four fixed points above, and every drawn configuration is checked at both
// 1 and 8 threads. Each (pipeline, reference) pair shares one registry and
// arena, so hash-consing makes equality exact. Override the stream with
// PSPH_TEST_SEED.
TEST_F(ParallelTest, RandomizedPipelineMatchesSequentialReference) {
  const std::uint64_t seed = test_seed(20260806);
  util::Rng rng(seed);
  for (int trial = 0; trial < 12; ++trial) {
    const int model = static_cast<int>(rng.next_below(3));
    const int n1 = 3 + static_cast<int>(rng.next_below(2));
    // n+1 = 4 grows fast; cap its depth so the sweep stays in test budget.
    const int rounds =
        n1 >= 4 ? 1 : 1 + static_cast<int>(rng.next_below(2));
    const int failures =
        1 + static_cast<int>(rng.next_below(
                static_cast<std::uint64_t>(std::max(n1 - 2, 1))));
    const int micro_rounds = 2 + static_cast<int>(rng.next_below(2));
    const std::string label = "seed=" + std::to_string(seed) + " trial=" +
                              std::to_string(trial) + " model=" +
                              std::to_string(model) + " n+1=" +
                              std::to_string(n1) + " f=" +
                              std::to_string(failures) + " r=" +
                              std::to_string(rounds) + " mu=" +
                              std::to_string(micro_rounds);

    for (const int threads : {1, 8}) {
      util::set_thread_count(threads);
      core::ViewRegistry views;
      topology::VertexArena arena;
      const topology::Simplex input = core::rainbow_input(n1, views, arena);
      switch (model) {
        case 0:
          EXPECT_EQ(core::async_protocol_complex(input, {n1, failures, rounds},
                                                 views, arena),
                    oracle::async_protocol_complex_seq(
                        input, {n1, failures, rounds}, views, arena))
              << label << " threads=" << threads;
          break;
        case 1:
          EXPECT_EQ(core::sync_protocol_complex(input, {n1, failures, 1, rounds},
                                                views, arena),
                    oracle::sync_protocol_complex_seq(
                        input, {n1, failures, 1, rounds}, views, arena))
              << label << " threads=" << threads;
          break;
        default:
          EXPECT_EQ(core::semisync_protocol_complex(
                        input, {n1, failures, 1, micro_rounds, rounds}, views,
                        arena),
                    oracle::semisync_protocol_complex_seq(
                        input, {n1, failures, 1, micro_rounds, rounds}, views,
                        arena))
              << label << " threads=" << threads;
          break;
      }
    }
  }
}

// ------------------------------------------------------------ dedupe ----

TEST_F(ParallelTest, ConstructionDedupeCollapsesSharedFrontierItems) {
  // Two input facets of ψ(3; {0,1}) that differ only in one process's input
  // produce a common child once that process fails unheard, so the round-2
  // frontier contains duplicates the dedupe phase must collapse.
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::SimplicialComplex inputs =
      core::input_complex(3, {0, 1}, views, arena);
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::reset();
  core::sync_protocol_complex_over(inputs, {3, 1, 1, 2}, views, arena);
  const obs::Snapshot snapshot = obs::snapshot();
  obs::reset();
  obs::set_enabled(obs_was_enabled);
  std::uint64_t deduped = 0;
  for (const obs::CounterStat& counter : snapshot.counters) {
    if (counter.name == "construction.deduped") deduped = counter.value;
  }
  EXPECT_GT(deduped, 0u);
}

// ------------------------------------------------ query thread affinity --

// A query computes on the thread that runs it: serve installs each batch
// group's DeadlineScope on its worker, and work handed to pool threads would
// run with no deadline. Construction, connectivity, exact homology and a
// default-options decide must therefore never reach the pool, however many
// threads it has.
TEST_F(ParallelTest, QueryComputeRunsOnCallingThread) {
  const bool obs_was_enabled = obs::enabled();
  util::set_thread_count(8);
  obs::set_enabled(true);
  obs::reset();

  EXPECT_TRUE(core::check_async_connectivity(3, 3, 1, 2).satisfied);
  EXPECT_TRUE(core::check_sync_connectivity(4, 4, 1, 2).satisfied);
  const topology::HomologyReport report = topology::reduced_homology(
      fig1_binary_pseudosphere(3), {.max_dim = 0, .exact = true});
  EXPECT_EQ(report.reduced_betti, std::vector<long long>{0});
  const solve::DecideResult decided =
      solve::decide({solve::Model::kAsync, 3, 1, 2, 0, 1});
  EXPECT_TRUE(decided.record.exhausted && decided.record.solvable);

  const obs::Snapshot snapshot = obs::snapshot();
  obs::reset();
  obs::set_enabled(obs_was_enabled);
  std::set<std::string> names;
  for (const obs::SpanStat& span : snapshot.spans) names.insert(span.name);
  // The compute really ran under instrumentation...
  EXPECT_EQ(names.count("construction.expand"), 1u);
  EXPECT_EQ(names.count("homology.reduced"), 1u);
  EXPECT_EQ(names.count("solve.search"), 1u);
  // ...and none of it was handed to pool workers.
  EXPECT_EQ(names.count("pool.run"), 0u) << "a query fanned out to the pool";
}

}  // namespace
