// Tests for the theorem-checker layer itself: Theorems 5 and 7
// (connectivity transfer from faces to pseudospheres and their unions),
// and the ConnectivityCheck plumbing used by every bench.

#include <gtest/gtest.h>

#include <vector>

#include "core/theorems.h"
#include "solve/decide.h"

namespace psph::core {
namespace {

/// solve::decide's verdict on the async instance Corollary 10 names.
bool search_impossible(int n1, int f, int k, int r) {
  const store::DecisionRecord record =
      solve::decide({solve::Model::kAsync, n1, f, k, 0, r}).record;
  return record.exhausted && !record.solvable;
}

TEST(Theorem5, HypothesisHoldsForAsyncRound) {
  // Lemma 12 at r = 1 is exactly the hypothesis with c = n - f.
  const Theorem5Check check =
      check_theorem5_async(3, 1, {{0, 1}, {0, 1}, {0, 1}});
  EXPECT_TRUE(check.hypothesis_holds);
  EXPECT_EQ(check.c, 1);
}

TEST(Theorem5, ConclusionOnBinaryInputs) {
  // n = 2, f = 1, c = 1: P(ψ(P²; {0,1})) must be (n - c - 1) = 0-connected.
  const Theorem5Check check =
      check_theorem5_async(3, 1, {{0, 1}, {0, 1}, {0, 1}});
  EXPECT_TRUE(check.conclusion.satisfied) << check.conclusion.to_string();
}

TEST(Theorem5, ConclusionWithMixedValueSets) {
  // Value sets of different sizes per process (the theorem allows any
  // nonempty U_i).
  const Theorem5Check check =
      check_theorem5_async(3, 1, {{0}, {0, 1, 2}, {5, 7}});
  EXPECT_TRUE(check.hypothesis_holds);
  EXPECT_TRUE(check.conclusion.satisfied) << check.conclusion.to_string();
}

TEST(Theorem5, WaitFreeGivesHigherConnectivity) {
  // f = 2 (c = 0): conclusion is (n - 1) = 1-connectivity.
  const Theorem5Check check =
      check_theorem5_async(3, 2, {{0, 1}, {0, 1}, {0, 1}});
  EXPECT_TRUE(check.hypothesis_holds);
  EXPECT_EQ(check.conclusion.expected, 1);
  EXPECT_TRUE(check.conclusion.satisfied) << check.conclusion.to_string();
}

TEST(Theorem7, UnionWithCommonValue) {
  // Families {0,1}, {0,2}, {0,3} share value 0: the union's protocol
  // complex must still be (n - c - 1)-connected.
  const Theorem5Check check =
      check_theorem7_async(3, 1, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_TRUE(check.hypothesis_holds);
  EXPECT_TRUE(check.conclusion.satisfied) << check.conclusion.to_string();
}

TEST(Theorem7, SingleFamilyReducesToTheorem5) {
  const Theorem5Check seven = check_theorem7_async(3, 1, {{0, 1}});
  const Theorem5Check five =
      check_theorem5_async(3, 1, {{0, 1}, {0, 1}, {0, 1}});
  EXPECT_EQ(seven.conclusion.facet_count, five.conclusion.facet_count);
  EXPECT_EQ(seven.conclusion.measured, five.conclusion.measured);
}

TEST(Theorem7, DisjointFamiliesBreakTheHypothesisCondition) {
  // ∩ A_i = ∅ is outside the theorem; the union disconnects, confirming
  // the intersection condition is necessary.
  const Theorem5Check check = check_theorem7_async(3, 1, {{0}, {1}});
  EXPECT_FALSE(check.conclusion.satisfied);
}

TEST(Corollary10, HypothesisImpliesSearchImpossibility) {
  // Async consensus, f = 1, r = 1: connectivity holds at every
  // participation level, and indeed the search refutes every decision map.
  const Corollary10Check check = check_corollary10_async(3, 1, 1, 1);
  EXPECT_TRUE(check.hypothesis_holds);
  ASSERT_EQ(check.levels.size(), 2u);  // m+1 in {2, 3}
  EXPECT_TRUE(search_impossible(3, 1, 1, 1));
}

TEST(Corollary10, WaitFreeInstance) {
  const Corollary10Check check = check_corollary10_async(3, 2, 2, 1);
  EXPECT_TRUE(check.hypothesis_holds);
  ASSERT_EQ(check.levels.size(), 3u);  // m+1 in {1, 2, 3}
  EXPECT_TRUE(search_impossible(3, 2, 2, 1));
}

TEST(Corollary10, SolvableInstanceBreaksHypothesis) {
  // k = f + 1 = 2: the required connectivity at the top level is k-1 = 1,
  // which the f = 1 complex does not reach — consistent with solvability.
  const Corollary10Check check = check_corollary10_async(3, 1, 2, 1);
  EXPECT_FALSE(check.hypothesis_holds);
  EXPECT_FALSE(search_impossible(3, 1, 2, 1));
}

TEST(ConnectivityCheck, ToStringMentionsVerdict) {
  const ConnectivityCheck check = check_async_connectivity(3, 3, 1, 1);
  EXPECT_NE(check.to_string().find("OK"), std::string::npos);
}

TEST(RainbowInput, HasDistinctValues) {
  ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = rainbow_input(4, views, arena);
  std::set<std::int64_t> values;
  for (topology::VertexId v : input.vertices()) {
    values.insert(views.view(arena.state(v)).input);
  }
  EXPECT_EQ(values.size(), 4u);
}

}  // namespace
}  // namespace psph::core
