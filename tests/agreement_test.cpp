// Tests for the agreement-rule layer: allowed values, validity and
// agreement violations reported by the rule checker, the min rule, and the
// MRV ablation knob of the seed-backtracker oracle.

#include <gtest/gtest.h>

#include "core/agreement.h"
#include "core/async_complex.h"
#include "core/pseudosphere.h"
#include "core/sync_complex.h"
#include "core/theorems.h"
#include "oracle/decision_search.h"

namespace psph::core {
namespace {

struct Fixture {
  ViewRegistry views;
  topology::VertexArena arena;
};

TEST(AllowedValues, MatchInputsSeen) {
  Fixture fx;
  const topology::Simplex input =
      input_facet({10, 20, 30}, fx.views, fx.arena);
  const topology::SimplicialComplex a1 =
      async_round_complex(input, {3, 1, 1}, fx.views, fx.arena);
  for (topology::VertexId v : a1.vertex_ids()) {
    const auto allowed = allowed_values(v, fx.views, fx.arena);
    EXPECT_FALSE(allowed.empty());
    for (std::int64_t value : allowed) {
      EXPECT_TRUE(value == 10 || value == 20 || value == 30);
    }
    // A process always sees its own input.
    const std::int64_t own = 10 * (fx.arena.pid(v) + 1);
    EXPECT_TRUE(std::find(allowed.begin(), allowed.end(), own) !=
                allowed.end());
  }
}

TEST(RuleChecker, ReportsValidityViolation) {
  Fixture fx;
  const topology::Simplex input = input_facet({1, 2, 3}, fx.views, fx.arena);
  const topology::SimplicialComplex complex =
      sync_round_complex_for_failset(input, {}, fx.views, fx.arena);
  // A rule deciding a constant never seen by anyone.
  const DecisionRule bogus = [](StateId) { return std::int64_t{99}; };
  const RuleCheckResult result =
      check_decision_rule(complex, 1, bogus, fx.views, fx.arena);
  EXPECT_FALSE(result.ok);
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, RuleViolation::Kind::validity);
}

TEST(RuleChecker, ReportsAgreementViolation) {
  Fixture fx;
  const topology::Simplex input = input_facet({1, 2, 3}, fx.views, fx.arena);
  const topology::SimplicialComplex complex =
      sync_round_complex_for_failset(input, {}, fx.views, fx.arena);
  // Everyone decides their own input: valid, but 3 distinct values on the
  // facet breaks consensus.
  const DecisionRule own = [&](StateId state) {
    // With full information after one failure-free round, the minimum of
    // the singleton "own input" is recoverable from the pid.
    return static_cast<std::int64_t>(fx.views.pid(state)) + 1;
  };
  const RuleCheckResult result =
      check_decision_rule(complex, 1, own, fx.views, fx.arena);
  EXPECT_FALSE(result.ok);
  ASSERT_TRUE(result.violation.has_value());
  EXPECT_EQ(result.violation->kind, RuleViolation::Kind::agreement);
  // But it is fine for 3-set agreement.
  EXPECT_TRUE(
      check_decision_rule(complex, 3, own, fx.views, fx.arena).ok);
}

TEST(RuleChecker, MinRulePassesOnFailureFreeRound) {
  Fixture fx;
  const topology::Simplex input = input_facet({4, 7, 9}, fx.views, fx.arena);
  const topology::SimplicialComplex complex =
      sync_round_complex_for_failset(input, {}, fx.views, fx.arena);
  const RuleCheckResult result = check_decision_rule(
      complex, 1, min_seen_rule(fx.views), fx.views, fx.arena);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.facets_checked, 1u);
  EXPECT_EQ(result.vertices_checked, 3u);
}

/// The oracle on one-round async k-set agreement over inputs {0..k}.
oracle::SearchResult search_async(int n1, int f, int k, bool use_mrv) {
  Fixture fx;
  std::vector<std::int64_t> values;
  for (int v = 0; v <= k; ++v) values.push_back(v);
  const topology::SimplicialComplex inputs =
      input_complex(n1, values, fx.views, fx.arena);
  const topology::SimplicialComplex protocol =
      async_protocol_complex_over(inputs, {n1, f, 1}, fx.views, fx.arena);
  oracle::SearchOptions options;
  options.use_mrv = use_mrv;
  return oracle::search_decision_map(protocol, k, fx.views, fx.arena,
                                     options);
}

TEST(SearchAblation, FixedOrderAgreesWithMrv) {
  // Both orderings are complete searches; verdicts must match wherever the
  // fixed-order run finishes.
  for (const auto& [n1, f, k] :
       std::vector<std::array<int, 3>>{{2, 1, 1}, {3, 1, 2}}) {
    const oracle::SearchResult a = search_async(n1, f, k, /*use_mrv=*/true);
    const oracle::SearchResult b = search_async(n1, f, k, /*use_mrv=*/false);
    ASSERT_TRUE(a.exhausted);
    ASSERT_TRUE(b.exhausted);
    EXPECT_EQ(a.decidable, b.decidable);
  }
}

TEST(SearchAblation, MrvExploresNoMoreNodesOnImpossibleInstance) {
  const oracle::SearchResult a = search_async(3, 1, 1, /*use_mrv=*/true);
  const oracle::SearchResult b = search_async(3, 1, 1, /*use_mrv=*/false);
  ASSERT_TRUE(a.exhausted && !a.decidable);
  ASSERT_TRUE(b.exhausted && !b.decidable);
  EXPECT_LE(a.nodes_explored, b.nodes_explored);
}

}  // namespace
}  // namespace psph::core
