// Tests for the three protocol-complex constructions and their paper
// properties: Lemma 11 (async round = one pseudosphere), Lemma 12 / Cor. 13
// (async connectivity & impossibility), Lemmas 14–16 and Figure 3 (sync),
// Theorem 18 (round bound, via search and the FloodSet rule), Lemmas 19–21
// (semi-sync), and the decision-map search itself. Solvability is decided
// by solve::decide; hand-built complexes go through compile_csp + solve.

#include <gtest/gtest.h>

#include <vector>

#include "core/agreement.h"
#include "core/async_complex.h"
#include "core/pseudosphere.h"
#include "core/semisync_complex.h"
#include "core/sync_complex.h"
#include "core/theorems.h"
#include "core/view.h"
#include "solve/csp.h"
#include "solve/decide.h"
#include "solve/engine.h"
#include "topology/homology.h"
#include "topology/operations.h"

namespace psph::core {
namespace {

using topology::SimplicialComplex;
using topology::VertexArena;

/// solve::decide's record for k-set agreement over inputs {0..k}.
store::DecisionRecord decided(solve::Model model, int n1, int f, int k, int r,
                              int mu = 0) {
  return solve::decide({model, n1, f, k, mu, r}).record;
}

bool impossible(const store::DecisionRecord& record) {
  return record.exhausted && !record.solvable;
}

struct Fixture {
  ViewRegistry views;
  VertexArena arena;
};

// ------------------------------------------------------------- async ------

TEST(AsyncLemma11, OneRoundIsOnePseudosphere) {
  // n+1 = 3, f = 1: each process hears itself plus ≥ 1 of the other two:
  // 3 choices each → 27 facets, 9 vertices, pure of dimension 2.
  Fixture fx;
  const topology::Simplex input = rainbow_input(3, fx.views, fx.arena);
  const SimplicialComplex a1 =
      async_round_complex(input, {3, 1, 1}, fx.views, fx.arena);
  EXPECT_EQ(a1.facet_count(), 27u);
  EXPECT_EQ(a1.count_of_dim(0), 9u);
  EXPECT_TRUE(a1.is_pure());
  EXPECT_EQ(a1.dimension(), 2);
  EXPECT_EQ(async_round_facet_count(3, 3, 1), 27u);
}

TEST(AsyncLemma11, WaitFreeCounts) {
  // f = 2 (wait-free): heard-set of each process is any subset containing
  // itself: 4 choices each → 64 facets, 12 vertices.
  Fixture fx;
  const topology::Simplex input = rainbow_input(3, fx.views, fx.arena);
  const SimplicialComplex a1 =
      async_round_complex(input, {3, 2, 1}, fx.views, fx.arena);
  EXPECT_EQ(a1.facet_count(), 64u);
  EXPECT_EQ(a1.count_of_dim(0), 12u);
  EXPECT_EQ(async_round_facet_count(3, 3, 2), 64u);
}

TEST(AsyncLemma11, TooFewParticipantsGivesEmpty) {
  // P(S^m) is empty for m < n - f: with n+1 = 4, f = 1, one participant
  // cannot gather n - f + 1 = 3 messages.
  Fixture fx;
  const topology::Simplex input = rainbow_input(1, fx.views, fx.arena);
  EXPECT_TRUE(
      async_round_complex(input, {4, 1, 1}, fx.views, fx.arena).empty());
}

TEST(AsyncLemma11, SelfIsAlwaysHeard) {
  Fixture fx;
  const topology::Simplex input = rainbow_input(3, fx.views, fx.arena);
  const SimplicialComplex a1 =
      async_round_complex(input, {3, 1, 1}, fx.views, fx.arena);
  for (topology::VertexId v : a1.vertex_ids()) {
    const auto senders = fx.views.direct_senders(fx.arena.state(v));
    EXPECT_TRUE(senders.count(fx.arena.pid(v)) != 0);
  }
}

TEST(AsyncLemma12, ConnectivitySweep) {
  // A^r(S^m) is (m - (n - f) - 1)-connected.
  for (const auto& [n1, m1, f, r] :
       std::vector<std::array<int, 4>>{{3, 3, 1, 1},
                                       {3, 3, 1, 2},
                                       {3, 3, 2, 1},
                                       {3, 2, 1, 1},
                                       {4, 4, 1, 1},
                                       {4, 4, 2, 1},
                                       {4, 3, 2, 1}}) {
    const ConnectivityCheck check = check_async_connectivity(n1, m1, f, r);
    EXPECT_TRUE(check.satisfied)
        << "n+1=" << n1 << " m+1=" << m1 << " f=" << f << " r=" << r << " : "
        << check.to_string();
  }
}

TEST(AsyncCorollary13, ConsensusImpossibleTwoProcesses) {
  // n+1 = 2, f = 1, k = 1: the 1-round wait-free complex admits no
  // consensus map (exhaustive proof).
  EXPECT_TRUE(impossible(decided(solve::Model::kAsync, 2, 1, 1, 1)));
}

TEST(AsyncCorollary13, ConsensusImpossibleTwoRounds) {
  EXPECT_TRUE(impossible(decided(solve::Model::kAsync, 2, 1, 1, 2)));
}

TEST(AsyncCorollary13, OneResilientConsensusImpossibleThreeProcesses) {
  EXPECT_TRUE(impossible(decided(solve::Model::kAsync, 3, 1, 1, 1)));
}

TEST(AsyncCorollary13, WaitFreeTwoSetAgreementImpossible) {
  // The celebrated instance [BG93, HS93, SZ93]: 3 processes, wait-free
  // (f = 2), k = 2, one round — exhaustively refuted.
  EXPECT_TRUE(impossible(decided(solve::Model::kAsync, 3, 2, 2, 1)));
}

TEST(AsyncCorollary13, KGreaterThanFIsSolvable) {
  // k = f + 1 = 2 with 3 processes: min-of-seen works; the search must find
  // some map.
  EXPECT_TRUE(decided(solve::Model::kAsync, 3, 1, 2, 1).solvable);
}

TEST(AsyncCorollary13, MinRuleSolvesFPlusOneSetAgreement) {
  Fixture fx;
  const SimplicialComplex inputs =
      input_complex(3, {0, 1, 2}, fx.views, fx.arena);
  const SimplicialComplex protocol = async_protocol_complex_over(
      inputs, {3, 1, 1}, fx.views, fx.arena);
  const RuleCheckResult result = check_decision_rule(
      protocol, 2, min_seen_rule(fx.views), fx.views, fx.arena);
  EXPECT_TRUE(result.ok) << (result.violation ? result.violation->description
                                              : "");
}

// -------------------------------------------------------------- sync ------

TEST(SyncLemma14, SingleFailureSetIsPseudosphere) {
  // Figure 3 middle: K = {R}; P and Q independently hear R or not: 4 facets.
  Fixture fx;
  const topology::Simplex input = rainbow_input(3, fx.views, fx.arena);
  const SimplicialComplex s_r = sync_round_complex_for_failset(
      input, {2}, fx.views, fx.arena);
  EXPECT_EQ(s_r.facet_count(), 4u);
  EXPECT_EQ(s_r.count_of_dim(0), 4u);
  EXPECT_EQ(s_r.dimension(), 1);
}

TEST(SyncLemma14, FailureFreeIsDegeneratePseudosphere) {
  Fixture fx;
  const topology::Simplex input = rainbow_input(3, fx.views, fx.arena);
  const SimplicialComplex s0 =
      sync_round_complex_for_failset(input, {}, fx.views, fx.arena);
  EXPECT_EQ(s0.facet_count(), 1u);
  EXPECT_EQ(s0.dimension(), 2);
}

TEST(SyncLemma14, AllFailGivesEmpty) {
  Fixture fx;
  const topology::Simplex input = rainbow_input(2, fx.views, fx.arena);
  EXPECT_TRUE(sync_round_complex_for_failset(input, {0, 1}, fx.views,
                                             fx.arena)
                  .empty());
}

TEST(SyncFigure3, OneRoundThreeProcessesOneFailure) {
  // Union of the failure-free pseudosphere and three single-failure
  // pseudospheres: 1 triangle + 9 maximal edges, 9 vertices.
  Fixture fx;
  const topology::Simplex input = rainbow_input(3, fx.views, fx.arena);
  const SimplicialComplex s1 = sync_round_complex(
      input, {3, 1, 1, 1}, fx.views, fx.arena);
  EXPECT_EQ(s1.count_of_dim(0), 9u);
  EXPECT_EQ(s1.facet_count(), 10u);
  std::size_t triangles = 0, edges = 0;
  s1.for_each_facet([&](std::span<const topology::VertexId> facet) {
    if (facet.size() == 3) ++triangles;
    if (facet.size() == 2) ++edges;
  });
  EXPECT_EQ(triangles, 1u);
  EXPECT_EQ(edges, 9u);
  // Lemma 16 at m = n = 2, k = 1: (m - (n-k) - 1) = 0-connected.
  EXPECT_GE(topology::homological_connectivity(s1, 0), 0);
}

TEST(SyncLemma15, IntersectionStructure) {
  // For each K_t in lexicographic order, the intersection of S¹_{K_t} with
  // the union of all earlier pseudospheres equals
  // ∪_{j∈K_t} ψ(S\K_t; 2^{K_t - {j}}).
  for (int participants : {3, 4}) {
    Fixture fx;
    const topology::Simplex input =
        rainbow_input(participants, fx.views, fx.arena);
    std::vector<ProcessId> pids;
    for (int p = 0; p < participants; ++p) pids.push_back(p);
    const auto fail_sets = lexicographic_fail_sets(pids, 2);
    SimplicialComplex earlier_union;
    for (const auto& fail_set : fail_sets) {
      const SimplicialComplex current = sync_round_complex_for_failset(
          input, fail_set, fx.views, fx.arena);
      const SimplicialComplex lhs =
          topology::intersection_of(earlier_union, current);
      const SimplicialComplex rhs =
          sync_lemma15_rhs(input, fail_set, fx.views, fx.arena);
      EXPECT_EQ(lhs, rhs) << "participants=" << participants << " |K|="
                          << fail_set.size();
      earlier_union.merge(current);
    }
  }
}

TEST(SyncLemma16And17, ConnectivitySweep) {
  // S^r(S^m) is (m - (n - k) - 1)-connected when n >= rk + k.
  // Entries respect the hypothesis n >= rk + k.
  for (const auto& [n1, m1, k, r] :
       std::vector<std::array<int, 4>>{{3, 3, 1, 1},
                                       {4, 4, 1, 1},
                                       {4, 4, 1, 2},
                                       {4, 3, 1, 1},
                                       {5, 5, 2, 1}}) {
    const ConnectivityCheck check = check_sync_connectivity(n1, m1, k, r);
    EXPECT_TRUE(check.satisfied)
        << "n+1=" << n1 << " m+1=" << m1 << " k=" << k << " r=" << r << " : "
        << check.to_string();
  }
}

TEST(SyncTheorem18, FloodMinSucceedsAtTheBound) {
  // floor(f/k) + 1 rounds suffice (min rule), for several (f, k).
  EXPECT_TRUE(floodmin_solves_sync(3, 1, 1, 2));   // f=1,k=1: 2 rounds
  EXPECT_TRUE(floodmin_solves_sync(4, 2, 2, 2));   // f=2,k=2: 2 rounds
  EXPECT_TRUE(floodmin_solves_sync(4, 1, 1, 2));
  EXPECT_TRUE(floodmin_solves_sync(3, 2, 2, 2));
}

TEST(SyncTheorem18, FloodMinFailsBelowTheBound) {
  // At floor(f/k) rounds the min rule must break k-agreement somewhere.
  EXPECT_FALSE(floodmin_solves_sync(3, 1, 1, 1));
  EXPECT_FALSE(floodmin_solves_sync(4, 2, 1, 1));
}

TEST(SyncTheorem18, ConsensusImpossibleInOneRoundWithOneFailure) {
  // n+1 = 3, f = 1, k = 1, r = 1 <= floor(f/k): exhaustive search refutes
  // every decision map, matching the r >= floor(f/k)+1 bound.
  EXPECT_TRUE(impossible(decided(solve::Model::kSync, 3, 1, 1, 1)));
}

TEST(SyncTheorem18, ConsensusPossibleAtTwoRounds) {
  EXPECT_TRUE(decided(solve::Model::kSync, 3, 1, 1, 2).solvable);
}

// ----------------------------------------------------------- semi-sync ----

TEST(SemiSyncLemma19, PatternComplexIsPseudosphere) {
  // K = {2} failing at microround 2 of μ = 3: each survivor independently
  // saw the last message at microround 1 or 2 → 2 views each, 4 facets.
  Fixture fx;
  const topology::Simplex input = rainbow_input(3, fx.views, fx.arena);
  const FailurePattern pattern{{2}, {2}};
  const SimplicialComplex m1 = semisync_round_complex_for_pattern(
      input, pattern, 3, fx.views, fx.arena);
  EXPECT_EQ(m1.facet_count(), 4u);
  EXPECT_EQ(m1.count_of_dim(0), 4u);
  EXPECT_EQ(view_count(pattern), 2u);
}

TEST(SemiSyncLemma19, FailAtMicroroundOneCanEraseSender) {
  // F(P_2) = 1: the survivor's view either contains P_2 with μ_j = 1 or has
  // no entry for P_2 at all (μ_j = 0).
  Fixture fx;
  const topology::Simplex input = rainbow_input(3, fx.views, fx.arena);
  const FailurePattern pattern{{2}, {1}};
  const SimplicialComplex m1 = semisync_round_complex_for_pattern(
      input, pattern, 3, fx.views, fx.arena);
  bool saw_with = false, saw_without = false;
  for (topology::VertexId v : m1.vertex_ids()) {
    const auto senders = fx.views.direct_senders(fx.arena.state(v));
    if (senders.count(2) != 0) saw_with = true;
    if (senders.count(2) == 0) saw_without = true;
  }
  EXPECT_TRUE(saw_with);
  EXPECT_TRUE(saw_without);
}

TEST(SemiSyncLemma19, FailureFreePatternIsOneFacet) {
  Fixture fx;
  const topology::Simplex input = rainbow_input(3, fx.views, fx.arena);
  const SimplicialComplex m1 = semisync_round_complex_for_pattern(
      input, {{}, {}}, 2, fx.views, fx.arena);
  EXPECT_EQ(m1.facet_count(), 1u);
  EXPECT_EQ(m1.dimension(), 2);
}

TEST(SemiSyncLemma19, MicroroundOutOfRangeThrows) {
  Fixture fx;
  const topology::Simplex input = rainbow_input(3, fx.views, fx.arena);
  EXPECT_THROW(semisync_round_complex_for_pattern(input, {{2}, {5}}, 3,
                                                  fx.views, fx.arena),
               std::invalid_argument);
  EXPECT_THROW(semisync_round_complex_for_pattern(input, {{2}, {0}}, 3,
                                                  fx.views, fx.arena),
               std::invalid_argument);
}

TEST(SemiSyncPatterns, EnumerationOrderAndCount) {
  // For |K| <= 1, μ = 3 on 3 processes: 1 (empty) + 3 * 3 patterns.
  const auto patterns = enumerate_failure_patterns({0, 1, 2}, 1, 3);
  EXPECT_EQ(patterns.size(), 10u);
  EXPECT_TRUE(patterns[0].fail_set.empty());
  // Reverse-lex within each K: first pattern fails at μ, last at 1.
  EXPECT_EQ(patterns[1].fail_micro, (std::vector<int>{3}));
  EXPECT_EQ(patterns[3].fail_micro, (std::vector<int>{1}));
}

TEST(SemiSyncLemma20, IntersectionStructure) {
  // ∩ of each pseudosphere with the union of all earlier ones equals
  // ∪_{j∈K} ψ(S\K; [F ↑ j]).
  Fixture fx;
  const topology::Simplex input = rainbow_input(3, fx.views, fx.arena);
  const auto patterns = enumerate_failure_patterns({0, 1, 2}, 1, 2);
  SimplicialComplex earlier;
  for (const FailurePattern& pattern : patterns) {
    const SimplicialComplex current = semisync_round_complex_for_pattern(
        input, pattern, 2, fx.views, fx.arena);
    const SimplicialComplex lhs = topology::intersection_of(earlier, current);
    const SimplicialComplex rhs =
        semisync_lemma20_rhs(input, pattern, 2, fx.views, fx.arena);
    EXPECT_EQ(lhs, rhs) << "|K|=" << pattern.fail_set.size();
    earlier.merge(current);
  }
}

TEST(SemiSyncLemma21, ConnectivitySweep) {
  // M^r(S^m) is (m - (n - k) - 1)-connected when n >= (r+1)k.
  // Entries respect the hypothesis n >= (r+1)k.
  for (const auto& [n1, m1, k, mu, r] :
       std::vector<std::array<int, 5>>{{3, 3, 1, 2, 1},
                                       {3, 3, 1, 3, 1},
                                       {4, 4, 1, 2, 2},
                                       {4, 4, 1, 2, 1},
                                       {4, 3, 1, 2, 1}}) {
    const ConnectivityCheck check =
        check_semisync_connectivity(n1, m1, k, mu, r);
    EXPECT_TRUE(check.satisfied)
        << "n+1=" << n1 << " m+1=" << m1 << " k=" << k << " mu=" << mu
        << " r=" << r << " : " << check.to_string();
  }
}

TEST(SemiSyncAgreement, ConsensusImpossibleOneRound) {
  // 3 processes, one failure per round, one round: n = 2 >= (r+1)k = 2, so
  // Lemma 21 applies and consensus has no decision map.
  EXPECT_TRUE(
      impossible(decided(solve::Model::kSemiSync, 3, 1, 1, 1, /*mu=*/2)));
}

TEST(SemiSyncAgreement, TwoProcessOneRoundIsDegenerate) {
  // With n+1 = 2 the hypothesis n >= (r+1)k fails, and indeed the one-round
  // complex leaves isolated survivor vertices (the other process's crash
  // removes its vertex entirely), so a decision map exists. The time lower
  // bound for two processes comes from the round-stretching argument of
  // Corollary 22, not from the one-round complex.
  const store::DecisionRecord record =
      decided(solve::Model::kSemiSync, 2, 1, 1, 1, /*mu=*/2);
  EXPECT_TRUE(record.exhausted);
  EXPECT_TRUE(record.solvable);
}

// --------------------------------------------------------- search engine --

TEST(DecisionSearch, FindsMapOnSingleFacet) {
  // A single input facet (no uncertainty): deciding anyone's value works.
  Fixture fx;
  const topology::Simplex input = rainbow_input(3, fx.views, fx.arena);
  SimplicialComplex protocol =
      sync_round_complex_for_failset(input, {}, fx.views, fx.arena);
  const solve::SolveOutcome outcome =
      solve::solve(solve::compile_csp(protocol, 1, fx.views, fx.arena));
  EXPECT_TRUE(outcome.solvable);
  EXPECT_TRUE(outcome.exhausted);
  EXPECT_EQ(outcome.witness.size(), 3u);
}

TEST(DecisionSearch, WitnessSatisfiesConstraints) {
  Fixture fx;
  const SimplicialComplex inputs =
      input_complex(3, {0, 1, 2}, fx.views, fx.arena);
  const SimplicialComplex protocol = async_protocol_complex_over(
      inputs, {3, 1, 1}, fx.views, fx.arena);
  const solve::CspProblem problem =
      solve::compile_csp(protocol, 2, fx.views, fx.arena);
  const solve::SolveOutcome outcome = solve::solve(problem);
  ASSERT_TRUE(outcome.solvable);
  // Re-check the witness through the independent rule checker.
  const DecisionRule witness_rule = [&](StateId state) {
    // Find the vertex carrying this state; the witness is per-vertex.
    for (std::size_t i = 0; i < problem.vertex_ids.size(); ++i) {
      if (fx.arena.state(problem.vertex_ids[i]) == state) {
        return problem.value_of[static_cast<std::size_t>(outcome.witness[i])];
      }
    }
    throw std::logic_error("state not in witness");
  };
  const RuleCheckResult check = check_decision_rule(
      protocol, 2, witness_rule, fx.views, fx.arena);
  EXPECT_TRUE(check.ok);
}

TEST(DecisionSearch, NodeLimitAborts) {
  // Solvable, and the witness search takes ~100 nodes: one is not enough.
  solve::EngineOptions options;
  options.node_limit = 1;
  const store::DecisionRecord record =
      solve::decide({solve::Model::kAsync, 3, 1, 2, 0, 1}, options).record;
  EXPECT_FALSE(record.exhausted);
  EXPECT_FALSE(record.solvable);
}

}  // namespace
}  // namespace psph::core
