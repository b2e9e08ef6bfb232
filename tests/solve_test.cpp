// Differential and behavioral tests for the solvability engine (src/solve).
//
// The engine must agree with the seed backtracker — the test-only oracle in
// oracle/decision_search.h — on every oracle-tractable instance: same
// verdict, and any witness valid vertex-by-vertex (validity) and
// facet-by-facet (agreement) against the original protocol complex.
// Witnesses are NOT compared byte-for-byte against the oracle's (the engine
// canonicalizes to the lex-min decision map; the oracle reports its first
// find), but they ARE compared across thread counts and against digests
// pinned in this file, where the canonicalization makes them bit-identical.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "oracle/decision_search.h"
#include "solve/csp.h"
#include "solve/decide.h"
#include "solve/engine.h"
#include "store/store.h"
#include "util/cancel.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace psph::solve {
namespace {

std::string request_name(const DecideRequest& r) {
  return std::string(model_name(r.model)) + " n1=" +
         std::to_string(r.processes) + " f=" + std::to_string(r.f) +
         " k=" + std::to_string(r.k) + " mu=" + std::to_string(r.mu) +
         " r=" + std::to_string(r.rounds);
}

/// The oracle-tractable instance grid the differential suite sweeps: all
/// four models, both verdicts, multiple rounds: 74 instances.
std::vector<DecideRequest> differential_grid() {
  std::vector<DecideRequest> grid;
  // Asynchronous wait-free (Corollary 13 territory).
  for (int p : {2, 3}) {
    for (int f = 0; f < p; ++f) {
      for (int k : {1, 2}) {
        for (int r : {1, 2}) {
          grid.push_back({Model::kAsync, p, f, k, 0, r});
        }
      }
    }
  }
  for (int f : {1, 2, 3}) {
    for (int k : {1, 2}) {
      grid.push_back({Model::kAsync, 4, f, k, 0, 1});
    }
  }
  // Synchronous message-passing (Corollary 18 territory).
  for (int p : {2, 3}) {
    for (int f = 0; f < p; ++f) {
      for (int k : {1, 2}) {
        for (int r : {1, 2}) {
          grid.push_back({Model::kSync, p, f, k, 0, r});
        }
      }
    }
  }
  for (int f : {0, 1, 2}) {
    grid.push_back({Model::kSync, 4, f, 1, 0, 1});
    grid.push_back({Model::kSync, 4, f, 2, 0, 1});
  }
  // Semi-synchronous (Corollary 22 territory).
  for (int p : {2, 3}) {
    for (int f : {0, 1}) {
      for (int k : {1, 2}) {
        for (int mu : {1, 2}) {
          grid.push_back({Model::kSemiSync, p, f, k, mu, 1});
        }
      }
    }
  }
  // Iterated immediate snapshot. (3, k=2) is excluded: the oracle burns
  // its full node budget without exhausting — that separation is the point
  // of SolveHardInstance below, not a differential case.
  for (int p : {2, 3}) {
    for (int k : {1, 2}) {
      if (p == 3 && k == 2) continue;
      for (int r : {1, 2}) {
        grid.push_back({Model::kIis, p, 0, k, 0, r});
      }
    }
  }
  return grid;
}

TEST(SolveDifferential, EngineMatchesSeqOracleAcrossAllModels) {
  oracle::SearchOptions oracle_options;
  oracle_options.node_limit = 2'000'000;  // tractability cut, not a verdict

  int cases = 0;
  int oracle_skipped = 0;
  for (const DecideRequest& request : differential_grid()) {
    SCOPED_TRACE(request_name(request));
    const store::DecisionRecord oracle =
        oracle::decide_seq(request, oracle_options);
    if (!oracle.exhausted) {
      ++oracle_skipped;
      continue;
    }
    const std::unique_ptr<Instance> instance = build_instance(request);
    const SolveOutcome outcome = solve(instance->problem);
    ++cases;
    ASSERT_TRUE(outcome.exhausted);
    EXPECT_EQ(outcome.solvable, oracle.solvable);
    if (outcome.solvable) {
      const WitnessCheck check =
          verify_witness(instance->problem, outcome.witness);
      EXPECT_TRUE(check.ok) << check.reason;
    }
    // The oracle's own witness must satisfy the same checker (it is
    // engine-independent — a broken checker would vacuously pass both).
    if (oracle.solvable) {
      std::map<topology::VertexId, std::int64_t> by_vertex(
          oracle.witness.begin(), oracle.witness.end());
      std::vector<int> dense(instance->problem.vertex_ids.size(), -1);
      for (std::size_t i = 0; i < instance->problem.vertex_ids.size(); ++i) {
        const std::int64_t value =
            by_vertex.at(instance->problem.vertex_ids[i]);
        for (int d = 0; d < instance->problem.num_values; ++d) {
          if (instance->problem.value_of[static_cast<std::size_t>(d)] ==
              value) {
            dense[i] = d;
          }
        }
      }
      EXPECT_TRUE(verify_witness(instance->problem, dense).ok);
    }
  }
  // The grid is fixed, so any change in the count is a bug.
  EXPECT_EQ(cases, 74) << "grid changed: " << cases << " cases, "
                       << oracle_skipped << " oracle-intractable";
  EXPECT_EQ(oracle_skipped, 0)
      << "grid contains instances the oracle cannot decide — move them to "
         "SolveHardInstance";
}

TEST(SolveDecide, SealedRecordsMatchPinnedDigests) {
  // Verdict AND witness are canonical, so the sealed decide record is a
  // function of the request alone, whatever the search order. Stored
  // records are keyed by kDecisionEngineVersion: changing any digest below
  // (a different verdict, witness order or record layout) requires bumping
  // kDecisionEngineVersion, or stale cache entries would answer new queries.
  const std::vector<std::pair<DecideRequest, std::uint64_t>> pinned = {
      {{Model::kAsync, 3, 1, 2, 0, 1}, 0xcb8404ec2f6c9dd4ULL},     // solvable
      {{Model::kAsync, 3, 1, 1, 0, 1}, 0xeb7646d517454216ULL},     // impossible
      {{Model::kSync, 3, 2, 1, 0, 2}, 0x89efbaf2ca1f8ce1ULL},      // solvable
      {{Model::kIis, 3, 0, 2, 0, 1}, 0x502d8c57a5eb7f55ULL},       // impossible
      {{Model::kSemiSync, 3, 1, 2, 1, 1}, 0xc21738a022fdb460ULL},  // solvable
      {{Model::kIis, 2, 0, 2, 0, 2}, 0x650b6bbd44c6a2b4ULL},       // solvable
  };
  for (const auto& [request, digest] : pinned) {
    SCOPED_TRACE(request_name(request));
    const std::vector<std::uint8_t> sealed = decide_sealed(request);
    EXPECT_EQ(util::hash_bytes(sealed.data(), sealed.size()), digest);
  }
}

TEST(SolveThreads, VerdictAndWitnessBitIdenticalAcrossThreadCounts) {
  // serve decides on pool workers, whatever the pool size: the default
  // decide must not depend on it.
  const std::vector<DecideRequest> picks = {
      {Model::kAsync, 3, 1, 2, 0, 1},
      {Model::kAsync, 3, 2, 2, 0, 1},
      {Model::kSync, 3, 1, 1, 0, 1},
      {Model::kSemiSync, 3, 1, 2, 1, 1},
  };
  const int original = util::thread_count();
  std::vector<std::vector<std::uint8_t>> baseline;
  for (const int threads : {1, 2, 8}) {
    util::set_thread_count(threads);
    std::size_t i = 0;
    for (const DecideRequest& request : picks) {
      SCOPED_TRACE(request_name(request) + " threads=" +
                   std::to_string(threads));
      std::vector<std::uint8_t> sealed = decide_sealed(request);
      if (threads == 1) {
        baseline.push_back(std::move(sealed));
      } else {
        EXPECT_EQ(sealed, baseline[i]);
      }
      ++i;
    }
  }
  util::set_thread_count(original);
}

TEST(SolveEngine, DeadlineFiresMidPropagationNotJustPerNode) {
  // A deadline installed *after* construction (so it cannot fire during
  // complex building) and already expired when solve() starts: the engine's
  // propagation/probing machinery must notice it and unwind — the seed
  // backtracker only polled every few thousand search nodes, so an instance
  // decided below that threshold would have sailed past its budget. The
  // instance is solvable with a non-trivial search, so the root propagation
  // alone cannot finish it before the first poll.
  const std::unique_ptr<Instance> instance =
      build_instance({Model::kAsync, 3, 1, 2, 0, 1});
  util::DeadlineScope deadline(std::chrono::steady_clock::now());
  // The engine may not swallow the deadline and report a verdict.
  EXPECT_THROW(solve(instance->problem), util::DeadlineExceeded);
}

TEST(SolveEngine, NodeLimitReportsUnexhaustedNeverWrong) {
  // Solvable, with a ~100-node witness search: one node cannot finish it.
  // (Unsolvable instances of this size die at the root, limit or not.)
  const std::unique_ptr<Instance> instance =
      build_instance({Model::kAsync, 3, 1, 2, 0, 1});
  EngineOptions options;
  options.node_limit = 1;
  const SolveOutcome outcome = solve(instance->problem, options);
  ASSERT_FALSE(outcome.exhausted);
  EXPECT_FALSE(outcome.solvable);
}

TEST(SolveEngine, SearchTreeMatchesPinnedCounts) {
  // The search tree is pinned, not just the verdict: root probing may skip
  // a literal only when the probe would have succeeded and pruned nothing,
  // and branching must pick the vertex the rule names (smallest domain,
  // then most facets, then lowest index). A change to either moves these
  // counts. Recorded from the engine that probed every literal and picked
  // the branching vertex by a scan over all vertices. Probe and
  // propagation counts are deliberately not pinned: skipping implied
  // literals changes them by design.
  struct Pinned {
    DecideRequest request;
    std::uint64_t nodes;
    std::uint64_t probe_failures;
  };
  const std::vector<Pinned> pinned = {
      // The differential grid (SolveDifferential above), in its order.
      {{Model::kAsync, 2, 0, 1, 0, 1}, 3, 0},
      {{Model::kAsync, 2, 0, 1, 0, 2}, 3, 0},
      {{Model::kAsync, 2, 0, 2, 0, 1}, 13, 0},
      {{Model::kAsync, 2, 0, 2, 0, 2}, 13, 0},
      {{Model::kAsync, 2, 1, 1, 0, 1}, 0, 0},
      {{Model::kAsync, 2, 1, 1, 0, 2}, 0, 0},
      {{Model::kAsync, 2, 1, 2, 0, 1}, 13, 0},
      {{Model::kAsync, 2, 1, 2, 0, 2}, 61, 0},
      {{Model::kAsync, 3, 0, 1, 0, 1}, 7, 0},
      {{Model::kAsync, 3, 0, 1, 0, 2}, 7, 0},
      {{Model::kAsync, 3, 0, 2, 0, 1}, 73, 0},
      {{Model::kAsync, 3, 0, 2, 0, 2}, 73, 0},
      {{Model::kAsync, 3, 1, 1, 0, 1}, 0, 0},
      {{Model::kAsync, 3, 1, 1, 0, 2}, 0, 0},
      {{Model::kAsync, 3, 1, 2, 0, 1}, 103, 0},
      {{Model::kAsync, 3, 1, 2, 0, 2}, 3133, 0},
      {{Model::kAsync, 3, 2, 1, 0, 1}, 0, 0},
      {{Model::kAsync, 3, 2, 1, 0, 2}, 0, 0},
      {{Model::kAsync, 3, 2, 2, 0, 1}, 0, 0},
      {{Model::kAsync, 3, 2, 2, 0, 2}, 0, 0},
      {{Model::kAsync, 4, 1, 1, 0, 1}, 0, 0},
      {{Model::kAsync, 4, 1, 2, 0, 1}, 553, 0},
      {{Model::kAsync, 4, 2, 1, 0, 1}, 0, 0},
      {{Model::kAsync, 4, 2, 2, 0, 1}, 0, 1},
      {{Model::kAsync, 4, 3, 1, 0, 1}, 0, 0},
      {{Model::kAsync, 4, 3, 2, 0, 1}, 0, 0},
      {{Model::kSync, 2, 0, 1, 0, 1}, 3, 0},
      {{Model::kSync, 2, 0, 1, 0, 2}, 3, 0},
      {{Model::kSync, 2, 0, 2, 0, 1}, 13, 0},
      {{Model::kSync, 2, 0, 2, 0, 2}, 13, 0},
      {{Model::kSync, 2, 1, 1, 0, 1}, 3, 0},
      {{Model::kSync, 2, 1, 1, 0, 2}, 7, 0},
      {{Model::kSync, 2, 1, 2, 0, 1}, 13, 0},
      {{Model::kSync, 2, 1, 2, 0, 2}, 25, 0},
      {{Model::kSync, 3, 0, 1, 0, 1}, 7, 0},
      {{Model::kSync, 3, 0, 1, 0, 2}, 7, 0},
      {{Model::kSync, 3, 0, 2, 0, 1}, 73, 0},
      {{Model::kSync, 3, 0, 2, 0, 2}, 73, 0},
      {{Model::kSync, 3, 1, 1, 0, 1}, 0, 0},
      {{Model::kSync, 3, 1, 1, 0, 2}, 49, 0},
      {{Model::kSync, 3, 1, 2, 0, 1}, 109, 0},
      {{Model::kSync, 3, 1, 2, 0, 2}, 541, 0},
      {{Model::kSync, 3, 2, 1, 0, 1}, 0, 0},
      {{Model::kSync, 3, 2, 1, 0, 2}, 79, 0},
      {{Model::kSync, 3, 2, 2, 0, 1}, 109, 0},
      {{Model::kSync, 3, 2, 2, 0, 2}, 649, 0},
      {{Model::kSync, 4, 0, 1, 0, 1}, 15, 0},
      {{Model::kSync, 4, 0, 2, 0, 1}, 313, 0},
      {{Model::kSync, 4, 1, 1, 0, 1}, 0, 0},
      {{Model::kSync, 4, 1, 2, 0, 1}, 601, 0},
      {{Model::kSync, 4, 2, 1, 0, 1}, 0, 0},
      {{Model::kSync, 4, 2, 2, 0, 1}, 673, 0},
      {{Model::kSemiSync, 2, 0, 1, 1, 1}, 3, 0},
      {{Model::kSemiSync, 2, 0, 1, 2, 1}, 3, 0},
      {{Model::kSemiSync, 2, 0, 2, 1, 1}, 13, 0},
      {{Model::kSemiSync, 2, 0, 2, 2, 1}, 13, 0},
      {{Model::kSemiSync, 2, 1, 1, 1, 1}, 3, 0},
      {{Model::kSemiSync, 2, 1, 1, 2, 1}, 7, 0},
      {{Model::kSemiSync, 2, 1, 2, 1, 1}, 13, 0},
      {{Model::kSemiSync, 2, 1, 2, 2, 1}, 25, 0},
      {{Model::kSemiSync, 3, 0, 1, 1, 1}, 7, 0},
      {{Model::kSemiSync, 3, 0, 1, 2, 1}, 7, 0},
      {{Model::kSemiSync, 3, 0, 2, 1, 1}, 73, 0},
      {{Model::kSemiSync, 3, 0, 2, 2, 1}, 73, 0},
      {{Model::kSemiSync, 3, 1, 1, 1, 1}, 0, 0},
      {{Model::kSemiSync, 3, 1, 1, 2, 1}, 0, 0},
      {{Model::kSemiSync, 3, 1, 2, 1, 1}, 109, 0},
      {{Model::kSemiSync, 3, 1, 2, 2, 1}, 253, 0},
      {{Model::kIis, 2, 0, 1, 0, 1}, 0, 0},
      {{Model::kIis, 2, 0, 1, 0, 2}, 0, 0},
      {{Model::kIis, 2, 0, 2, 0, 1}, 13, 0},
      {{Model::kIis, 2, 0, 2, 0, 2}, 49, 0},
      {{Model::kIis, 3, 0, 1, 0, 1}, 0, 0},
      {{Model::kIis, 3, 0, 1, 0, 2}, 0, 0},
      // The layer ledger's decide workload.
      {{Model::kAsync, 3, 1, 1, 0, 1}, 0, 0},
      {{Model::kAsync, 3, 1, 2, 0, 1}, 103, 0},
      {{Model::kAsync, 3, 2, 2, 0, 1}, 0, 0},
      {{Model::kAsync, 3, 2, 3, 0, 1}, 253, 0},
      {{Model::kAsync, 4, 1, 1, 0, 1}, 0, 0},
      {{Model::kAsync, 4, 1, 2, 0, 1}, 553, 0},
      {{Model::kAsync, 4, 2, 2, 0, 1}, 0, 1},
      {{Model::kSync, 4, 2, 1, 0, 1}, 0, 0},
      {{Model::kSync, 4, 2, 1, 0, 2}, 0, 0},
      {{Model::kSync, 4, 2, 1, 0, 3}, 3363, 0},
      {{Model::kSync, 4, 1, 1, 0, 2}, 375, 0},
      {{Model::kSemiSync, 4, 2, 1, 2, 1}, 0, 0},
      {{Model::kSemiSync, 4, 2, 1, 2, 2}, 0, 0},
      {{Model::kIis, 3, 0, 2, 0, 1}, 0, 5},
      {{Model::kIis, 3, 0, 1, 0, 2}, 0, 0},
      {{Model::kIis, 4, 0, 2, 0, 1}, 0, 5},
      // Theorem 18's bench points (thm18_sync_rounds).
      {{Model::kSync, 3, 1, 1, 0, 1}, 0, 0},
      {{Model::kSync, 3, 1, 1, 0, 2}, 49, 0},
      {{Model::kSync, 4, 1, 1, 0, 1}, 0, 0},
      {{Model::kSync, 4, 1, 1, 0, 2}, 375, 0},
      {{Model::kSync, 4, 2, 2, 0, 1}, 673, 0},
      {{Model::kSync, 4, 2, 2, 0, 2}, 17377, 0},
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(request_name(p.request));
    const std::unique_ptr<Instance> instance = build_instance(p.request);
    const SolveOutcome outcome = solve(instance->problem);
    ASSERT_TRUE(outcome.exhausted);
    EXPECT_EQ(outcome.stats.nodes, p.nodes);
    EXPECT_EQ(outcome.stats.probe_failures, p.probe_failures);
  }
}

TEST(SolveEngine, ProbeMarksClearWhenAProbeFails) {
  // Root probing skips a literal that a successful probe of the same sweep
  // assigned, but only until a failed probe prunes a value: after the
  // prune, a literal implied before it can fail. On this problem (values
  // 0..3, k = 2) probing every literal finds 3 failures; keeping the marks
  // across a prune finds 4. The verdict, the root fixpoint and the search
  // are the same either way, so only the failure count shows the
  // difference.
  CspProblem problem;
  problem.k = 2;
  problem.num_values = 4;
  problem.value_of = {0, 1, 2, 3};
  problem.domains = {0b1000, 0b0011, 0b0101, 0b0101,
                     0b1010, 0b1100, 0b0101, 0b1010};
  for (int v = 0; v < 8; ++v) {
    problem.vertex_ids.push_back(static_cast<topology::VertexId>(v));
  }
  const std::vector<std::vector<int>> facets = {
      {2, 6, 7}, {0, 4, 5}, {0, 3, 6}, {1, 2, 4, 5}, {0, 6, 7}};
  std::vector<std::vector<int>> facets_of(8);
  for (std::size_t f = 0; f < facets.size(); ++f) {
    problem.facets.push_back(facets[f]);
    for (int v : facets[f]) {
      facets_of[static_cast<std::size_t>(v)].push_back(static_cast<int>(f));
    }
  }
  for (const std::vector<int>& row : facets_of) {
    problem.facets_of.push_back(row);
  }
  const SolveOutcome outcome = solve(problem);
  ASSERT_TRUE(outcome.exhausted);
  EXPECT_TRUE(outcome.solvable);
  EXPECT_EQ(outcome.stats.nodes, 1u);
  EXPECT_EQ(outcome.stats.probe_failures, 3u);
  EXPECT_TRUE(verify_witness(problem, outcome.witness).ok);
}

TEST(SolveCompile, ExpiredDeadlineStopsCompilation) {
  // compile_csp polls the deadline every 4096 facets: under an expired
  // deadline it stops on a complex past that size, and without one the
  // same complex compiles to what build_instance produced.
  const std::unique_ptr<Instance> instance =
      build_instance({Model::kAsync, 3, 1, 1, 0, 2});
  ASSERT_GT(instance->protocol.facet_count(), 4096u);
  {
    const util::DeadlineScope expired(std::chrono::steady_clock::now() -
                                      std::chrono::seconds(1));
    EXPECT_THROW(compile_csp(instance->protocol, 1, instance->views,
                             instance->arena),
                 util::DeadlineExceeded);
  }
  const CspProblem problem = compile_csp(instance->protocol, 1,
                                         instance->views, instance->arena);
  EXPECT_EQ(problem.facets.size(), instance->protocol.facet_count());
  EXPECT_EQ(problem.facets.members, instance->problem.facets.members);
  EXPECT_EQ(problem.facets_of.members, instance->problem.facets_of.members);
  EXPECT_EQ(problem.domains, instance->problem.domains);
}

TEST(SolveMemo, WarmCacheRedecideIsAPureStoreHit) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("psph_solve_memo_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  store::ResultStore store(root);

  const DecideRequest request{Model::kAsync, 3, 1, 2, 0, 1};
  const DecideResult first = decide(request, {}, &store);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(first.record.exhausted);
  EXPECT_GT(store.stats().writes, 0u);

  const std::uint64_t writes_before = store.stats().writes;
  const DecideResult second = decide(request, {}, &store);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.record, first.record);
  // A pure hit: nothing recomputed (zero engine stats), nothing rewritten.
  EXPECT_EQ(second.stats.nodes, 0u);
  EXPECT_EQ(second.stats.propagations, 0u);
  EXPECT_EQ(store.stats().writes, writes_before);

  // Normalized aliases share the entry: async ignores mu.
  DecideRequest alias = request;
  alias.mu = 7;
  EXPECT_TRUE(decide(alias, {}, &store).cache_hit);

  std::filesystem::remove_all(root);
}

TEST(SolveMemo, UnexhaustedVerdictsAreNeverCached) {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("psph_solve_nocache_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);
  store::ResultStore store(root);

  const DecideRequest request{Model::kAsync, 3, 1, 2, 0, 1};
  EngineOptions options;
  options.node_limit = 1;
  const DecideResult aborted = decide(request, options, &store);
  EXPECT_FALSE(aborted.record.exhausted);
  if (!aborted.record.exhausted) {
    EXPECT_EQ(store.stats().writes, 0u);
    // A later complete run computes (no stale abort hit) and caches.
    const DecideResult full = decide(request, {}, &store);
    EXPECT_FALSE(full.cache_hit);
    EXPECT_TRUE(full.record.exhausted);
    EXPECT_GT(store.stats().writes, 0u);
  }
  std::filesystem::remove_all(root);
}

TEST(SolveHardInstance, EngineDecidesWhereTheOracleDrowns) {
  // 2-set agreement over 3 IIS processes is unsolvable (more processes
  // than k), but the seed backtracker must enumerate an enormous branch
  // space to prove it: it returns undecided at a 200k-node budget here,
  // and at the 2M-node budget the differential suite uses it burns minutes
  // without exhausting. The engine's root failed-literal probing refutes
  // the instance before the first branch — this is the separation the
  // engine exists for. The verdict asserted is the known impossibility, so a
  // compilation bug that dropped constraints (making the instance
  // spuriously solvable) fails here even without an oracle to compare to.
  const DecideRequest request{Model::kIis, 3, 0, 2, 0, 1};
  oracle::SearchOptions oracle_options;
  oracle_options.node_limit = 200'000;
  const store::DecisionRecord oracle =
      oracle::decide_seq(request, oracle_options);
  EXPECT_FALSE(oracle.exhausted);

  const std::unique_ptr<Instance> instance = build_instance(request);
  const SolveOutcome outcome = solve(instance->problem);
  EXPECT_TRUE(outcome.exhausted);
  EXPECT_FALSE(outcome.solvable);
}

TEST(SolveDecide, RejectsNonsenseParameters) {
  EXPECT_THROW(decide({Model::kAsync, 0, 0, 1, 0, 1}), std::invalid_argument);
  EXPECT_THROW(decide({Model::kAsync, 3, 1, 0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(decide({Model::kAsync, 3, 1, 1, 0, 0}), std::invalid_argument);
  EXPECT_THROW(decide({Model::kAsync, 3, -1, 1, 0, 1}),
               std::invalid_argument);
}

TEST(SolveDecide, ModelNamesRoundTrip) {
  for (const Model model :
       {Model::kAsync, Model::kSync, Model::kSemiSync, Model::kIis}) {
    EXPECT_EQ(parse_model(model_name(model)), model);
  }
  EXPECT_FALSE(parse_model("pseudosphere").has_value());
}

}  // namespace
}  // namespace psph::solve
