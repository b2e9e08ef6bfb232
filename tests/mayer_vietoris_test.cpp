// Tests for the Theorem 2 (Mayer-Vietoris) checker: hand-built instances
// where the hypothesis holds or fails, randomized pseudosphere
// decompositions, and the prefix unions of the synchronous one-round
// complex (the exact shape the paper's Lemma 16 proof glues together).

#include <gtest/gtest.h>

#include "core/pseudosphere.h"
#include "core/sync_complex.h"
#include "core/theorems.h"
#include "oracle/mayer_vietoris.h"
#include "topology/homology.h"
#include "topology/operations.h"
#include "util/random.h"

namespace psph::topology {
namespace {

using oracle::check_theorem2;
using oracle::Theorem2Instance;

TEST(Theorem2, TwoTrianglesSharingAnEdge) {
  SimplicialComplex a, b;
  a.add_facet(Simplex{0, 1, 2});
  b.add_facet(Simplex{1, 2, 3});
  const Theorem2Instance instance = check_theorem2(a, b, 1);
  EXPECT_TRUE(instance.hypothesis);
  EXPECT_TRUE(instance.conclusion);
}

TEST(Theorem2, DisconnectedIntersectionBreaksHypothesisAndConclusion) {
  // Two "wedges" meeting in two separate vertices: the union is a circle,
  // not 1-connected — and indeed the hypothesis fails at the intersection.
  SimplicialComplex a, b;
  a.add_facet(Simplex{0, 1});
  a.add_facet(Simplex{1, 2});
  b.add_facet(Simplex{2, 3});
  b.add_facet(Simplex{3, 0});
  const Theorem2Instance instance = check_theorem2(a, b, 1);
  EXPECT_FALSE(instance.hypothesis);
  EXPECT_FALSE(instance.conclusion);
  EXPECT_EQ(instance.connectivity_intersection, -1);  // two points
}

TEST(Theorem2, EmptyIntersectionFailsHypothesisAtKZero) {
  SimplicialComplex a, b;
  a.add_facet(Simplex{0, 1});
  b.add_facet(Simplex{2, 3});
  const Theorem2Instance instance = check_theorem2(a, b, 0);
  EXPECT_FALSE(instance.hypothesis);
  EXPECT_FALSE(instance.conclusion);
}

TEST(Theorem2, HoldsOnRandomPseudospherePairs) {
  // Pseudospheres over the same pids with overlapping value sets: both are
  // (m-1)-connected (Cor. 6) and the intersection is a pseudosphere too
  // (Lemma 4), so whenever the hypothesis holds the union must obey the
  // conclusion.
  util::Rng rng(3141);
  int hypothesis_held = 0;
  for (int trial = 0; trial < 30; ++trial) {
    VertexArena arena;
    const int m1 = 2 + static_cast<int>(rng.next_below(3));
    std::vector<core::ProcessId> pids;
    for (int i = 0; i < m1; ++i) pids.push_back(i);
    const auto draw = [&]() {
      std::vector<core::StateId> values;
      for (core::StateId v = 0; v < 4; ++v) {
        if (rng.next_bool(0.6)) values.push_back(v);
      }
      if (values.empty()) values.push_back(0);
      return values;
    };
    const SimplicialComplex a =
        core::pseudosphere_uniform(pids, draw(), arena);
    const SimplicialComplex b =
        core::pseudosphere_uniform(pids, draw(), arena);
    const Theorem2Instance instance = check_theorem2(a, b, m1 - 2);
    if (instance.hypothesis) {
      ++hypothesis_held;
      EXPECT_TRUE(instance.conclusion) << "trial " << trial;
    }
  }
  EXPECT_GT(hypothesis_held, 0);  // the sweep must exercise the implication
}

TEST(Theorem2, PrefixUnionsOfSyncOneRound) {
  // Replays the paper's Lemma 16 gluing: fold the pseudospheres S¹_K into
  // a growing union in lexicographic order, checking Theorem 2 at k = 0
  // for each step (n = 2, k_fail = 1, so the one-round complex must stay
  // connected throughout).
  core::ViewRegistry views;
  VertexArena arena;
  const Simplex input = core::rainbow_input(3, views, arena);
  std::vector<core::ProcessId> pids{0, 1, 2};
  SimplicialComplex accumulated;
  bool first = true;
  for (const auto& fail_set : core::lexicographic_fail_sets(pids, 1)) {
    const SimplicialComplex piece =
        core::sync_round_complex_for_failset(input, fail_set, views, arena);
    if (first) {
      accumulated = piece;
      first = false;
      continue;
    }
    const Theorem2Instance instance = check_theorem2(accumulated, piece, 0);
    EXPECT_TRUE(instance.hypothesis) << "|K|=" << fail_set.size();
    EXPECT_TRUE(instance.conclusion);
    accumulated = union_of(accumulated, piece);
  }
  EXPECT_GE(homological_connectivity(accumulated, 0), 0);
}

}  // namespace
}  // namespace psph::topology
