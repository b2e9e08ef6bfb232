// Tests for Definition 3 and Lemma 4: pseudosphere construction, its
// combinatorial identities, sphere topology (Figures 1 and 2), Corollaries
// 6 and 8 (connectivity), plus the interned view registry they build on.

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "core/pseudosphere.h"
#include "core/view.h"
#include "topology/homology.h"
#include "topology/operations.h"
#include "util/random.h"

namespace psph::core {
namespace {

using topology::HomologyReport;
using Heard = std::vector<HeardEntry>;
using topology::SimplicialComplex;
using topology::VertexArena;

std::vector<StateId> states(std::initializer_list<StateId> values) {
  return std::vector<StateId>(values);
}

// ------------------------------------------------------------------ views --

TEST(ViewRegistry, InternInputIdempotent) {
  ViewRegistry views;
  const StateId a = views.intern_input(0, 7);
  const StateId b = views.intern_input(0, 7);
  const StateId c = views.intern_input(1, 7);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(views.round(a), 0);
  EXPECT_EQ(views.pid(c), 1);
}

TEST(ViewRegistry, InternRoundNormalizesOrder) {
  ViewRegistry views;
  const StateId s0 = views.intern_input(0, 1);
  const StateId s1 = views.intern_input(1, 2);
  const StateId a =
      views.intern_round(0, 1, Heard{{0, s0, kNoMicro}, {1, s1, kNoMicro}});
  const StateId b =
      views.intern_round(0, 1, Heard{{1, s1, kNoMicro}, {0, s0, kNoMicro}});
  EXPECT_EQ(a, b);
}

TEST(ViewRegistry, InternRoundRejectsBadInput) {
  ViewRegistry views;
  const StateId s0 = views.intern_input(0, 1);
  EXPECT_THROW(views.intern_round(0, 0, Heard{{0, s0, kNoMicro}}),
               std::invalid_argument);
  EXPECT_THROW(
      views.intern_round(0, 1, Heard{{0, s0, kNoMicro}, {0, s0, kNoMicro}}),
      std::invalid_argument);
}

TEST(ViewRegistry, InputsSeenTransitive) {
  ViewRegistry views;
  const StateId s0 = views.intern_input(0, 10);
  const StateId s1 = views.intern_input(1, 20);
  const StateId s2 = views.intern_input(2, 30);
  // Round 1: P0 heard P0, P1. Round 2: P2 heard its own round-1 state and
  // P0's round-1 state.
  const StateId r1 =
      views.intern_round(0, 1, Heard{{0, s0, kNoMicro}, {1, s1, kNoMicro}});
  const StateId r1self = views.intern_round(2, 1, Heard{{2, s2, kNoMicro}});
  const StateId r2 = views.intern_round(
      2, 2, Heard{{2, r1self, kNoMicro}, {0, r1, kNoMicro}});
  const std::span<const std::int64_t> seen = views.inputs_seen(r2);
  EXPECT_EQ(std::vector<std::int64_t>(seen.begin(), seen.end()),
            (std::vector<std::int64_t>{10, 20, 30}));
  EXPECT_EQ(views.min_input_seen(r2), 10);
}

TEST(ViewRegistry, InternRoundMayBorrowItsOwnArena) {
  // The heard list is copied before anything grows, so a span into the
  // registry's own arena is a valid argument even when the intern grows it.
  ViewRegistry views;
  const StateId s0 = views.intern_input(0, 1);
  const StateId s1 = views.intern_input(1, 2);
  const StateId r1 =
      views.intern_round(0, 1, Heard{{0, s0, kNoMicro}, {1, s1, kNoMicro}});
  for (int round = 2; round < 40; ++round) {
    const StateId again = views.intern_round(0, round, views.view(r1).heard);
    EXPECT_EQ(views.view(again).round, round);
    EXPECT_EQ(Heard(views.view(again).heard.begin(),
                    views.view(again).heard.end()),
              (Heard{{0, s0, kNoMicro}, {1, s1, kNoMicro}}));
  }
  EXPECT_EQ(views.intern_round(0, 1, views.view(r1).heard), r1);
}

TEST(ViewRegistry, InputsSeenRowsAreSortedAndMemoized) {
  ViewRegistry views;
  const StateId s0 = views.intern_input(0, 30);
  const StateId s1 = views.intern_input(1, 10);
  const StateId s2 = views.intern_input(2, 30);
  const StateId r1 = views.intern_round(
      0, 1, Heard{{0, s0, kNoMicro}, {1, s1, kNoMicro}, {2, s2, kNoMicro}});
  const auto values = [&](StateId id) {
    const std::span<const std::int64_t> seen = views.inputs_seen(id);
    return std::vector<std::int64_t>(seen.begin(), seen.end());
  };
  EXPECT_EQ(values(r1), (std::vector<std::int64_t>{10, 30}));
  EXPECT_EQ(values(s2), (std::vector<std::int64_t>{30}));
  // Rounds built on r1 fill more rows; r1's reads the same afterwards.
  StateId top = r1;
  for (int round = 2; round < 20; ++round) {
    top = views.intern_round(0, round, Heard{{0, top, kNoMicro}});
    EXPECT_EQ(values(top), (std::vector<std::int64_t>{10, 30}));
  }
  EXPECT_EQ(values(r1), (std::vector<std::int64_t>{10, 30}));
  EXPECT_EQ(views.min_input_seen(top), 10);
}

TEST(ViewRegistry, DirectSenders) {
  ViewRegistry views;
  const StateId s0 = views.intern_input(0, 1);
  const StateId s1 = views.intern_input(1, 2);
  const StateId r1 =
      views.intern_round(0, 1, Heard{{0, s0, kNoMicro}, {1, s1, kNoMicro}});
  EXPECT_EQ(views.direct_senders(r1), (std::set<ProcessId>{0, 1}));
  EXPECT_EQ(views.direct_senders(s0), (std::set<ProcessId>{0}));
}

TEST(ViewRegistry, ToStringIsReadable) {
  ViewRegistry views;
  const StateId s0 = views.intern_input(0, 5);
  EXPECT_EQ(views.to_string(s0), "P0@r0=5");
  const StateId r1 = views.intern_round(1, 1, Heard{{0, s0, 3}});
  EXPECT_EQ(views.to_string(r1), "P1@r1<P0u3:P0@r0=5>");
}

// ----------------------------------------------------------- construction --

TEST(Pseudosphere, Figure1BinaryThreeProcesses) {
  // ψ(Δ²; {0,1}): 6 vertices, 8 facets, topologically S².
  VertexArena arena;
  const SimplicialComplex psi =
      pseudosphere_uniform({0, 1, 2}, states({0, 1}), arena);
  EXPECT_EQ(psi.facet_count(), 8u);
  EXPECT_EQ(psi.count_of_dim(0), 6u);
  EXPECT_TRUE(psi.is_pure());
  const HomologyReport h = topology::reduced_homology(psi, {.max_dim = 2});
  EXPECT_EQ(h.reduced_betti[0], 0);
  EXPECT_EQ(h.reduced_betti[1], 0);
  EXPECT_EQ(h.reduced_betti[2], 1);
}

TEST(Pseudosphere, BinarySpheresUpToDim4) {
  // ψ(Δ^n; {0,1}) ≅ S^n for n = 1..4 (checked homologically).
  for (int n = 1; n <= 4; ++n) {
    VertexArena arena;
    std::vector<ProcessId> pids;
    for (int i = 0; i <= n; ++i) pids.push_back(i);
    const SimplicialComplex psi =
        pseudosphere_uniform(pids, states({0, 1}), arena);
    EXPECT_EQ(psi.facet_count(), 1u << (n + 1));
    const topology::HomologyReport h =
        topology::reduced_homology(psi, {.max_dim = n});
    for (int d = 0; d < n; ++d) {
      EXPECT_EQ(h.reduced_betti[static_cast<std::size_t>(d)], 0)
          << "n=" << n << " d=" << d;
    }
    EXPECT_EQ(h.reduced_betti[static_cast<std::size_t>(n)], 1) << "n=" << n;
  }
}

TEST(Pseudosphere, Figure2TwoProcesses) {
  // ψ(S¹; {0,1}) is a 4-cycle (the 1-sphere); ψ(S¹; {0,1,2}) is K_{3,3}
  // with β̃₁ = 4.
  VertexArena arena;
  const SimplicialComplex a =
      pseudosphere_uniform({0, 1}, states({0, 1}), arena);
  EXPECT_EQ(a.facet_count(), 4u);
  EXPECT_EQ(a.count_of_dim(0), 4u);
  const HomologyReport ha = topology::reduced_homology(a, {.max_dim = 1});
  EXPECT_EQ(ha.reduced_betti[0], 0);
  EXPECT_EQ(ha.reduced_betti[1], 1);

  const SimplicialComplex b =
      pseudosphere_uniform({0, 1}, states({0, 1, 2}), arena);
  EXPECT_EQ(b.facet_count(), 9u);
  EXPECT_EQ(b.count_of_dim(0), 6u);
  const HomologyReport hb = topology::reduced_homology(b, {.max_dim = 1});
  EXPECT_EQ(hb.reduced_betti[0], 0);
  EXPECT_EQ(hb.reduced_betti[1], 4);
}

TEST(Pseudosphere, FacetCountFormula) {
  VertexArena arena;
  const std::vector<std::vector<StateId>> sets{
      {1, 2, 3}, {4, 5}, {6, 7, 8, 9}};
  const SimplicialComplex psi = pseudosphere({0, 1, 2}, sets, arena);
  EXPECT_EQ(psi.facet_count(), 24u);
  EXPECT_EQ(pseudosphere_facet_count(sets), 24u);
}

TEST(Pseudosphere, RejectsBadArguments) {
  VertexArena arena;
  EXPECT_THROW(pseudosphere({0, 0}, {{1}, {2}}, arena),
               std::invalid_argument);
  EXPECT_THROW(pseudosphere({0}, {{1}, {2}}, arena), std::invalid_argument);
}

// ------------------------------------------------------------- Lemma 4 ----

TEST(Lemma4, SingletonSetsGiveTheSimplex) {
  // Property 1: if every U_i is a singleton, ψ(S; U) ≅ S.
  VertexArena arena;
  const SimplicialComplex psi =
      pseudosphere({0, 1, 2}, {{7}, {8}, {9}}, arena);
  EXPECT_EQ(psi.facet_count(), 1u);
  EXPECT_EQ(psi.dimension(), 2);
}

TEST(Lemma4, EmptyValueSetDeletesPosition) {
  // Property 2: U_i = ∅ gives ψ of the face omitting position i.
  VertexArena arena;
  const SimplicialComplex with_empty =
      pseudosphere({0, 1, 2}, {{1, 2}, {}, {3, 4}}, arena);
  const SimplicialComplex without_position =
      pseudosphere({0, 2}, {{1, 2}, {3, 4}}, arena);
  EXPECT_EQ(with_empty, without_position);
}

TEST(Lemma4, AllEmptyGivesEmptyComplex) {
  VertexArena arena;
  const SimplicialComplex psi = pseudosphere({0, 1}, {{}, {}}, arena);
  EXPECT_TRUE(psi.empty());
}

TEST(Lemma4, IntersectionIsPositionwise) {
  // Property 3: ψ(S⁰; U₀..) ∩ ψ(S¹; U₀..) ≅ ψ(S⁰∩S¹; U₀∩V₀, ...).
  // With one shared arena the isomorphism is literal equality.
  VertexArena arena;
  // S⁰ on pids {0,1,2}, S¹ on pids {1,2,3}; value sets overlap partially.
  const SimplicialComplex psi0 =
      pseudosphere({0, 1, 2}, {{1, 2}, {1, 2, 3}, {5}}, arena);
  const SimplicialComplex psi1 =
      pseudosphere({1, 2, 3}, {{2, 3}, {5, 6}, {7}}, arena);
  // Common pids {1, 2}; per-pid value-set meets: {1,2,3}∩{2,3} = {2,3} and
  // {5}∩{5,6} = {5}.
  const SimplicialComplex expected =
      pseudosphere({1, 2}, {{2, 3}, {5}}, arena);
  EXPECT_EQ(topology::intersection_of(psi0, psi1), expected);
}

TEST(Lemma4, IntersectionEmptyWhenValueSetsDisjoint) {
  VertexArena arena;
  const SimplicialComplex psi0 =
      pseudosphere({0, 1}, {{1}, {2}}, arena);
  const SimplicialComplex psi1 =
      pseudosphere({0, 1}, {{3}, {4}}, arena);
  EXPECT_TRUE(topology::intersection_of(psi0, psi1).empty());
}

TEST(Lemma4, RandomizedIntersectionProperty) {
  util::Rng rng(997);
  for (int trial = 0; trial < 25; ++trial) {
    VertexArena arena;
    // Two pid sets drawn from {0..4} with nonempty overlap.
    const std::vector<int> pids_a = rng.sample_without_replacement(5, 3);
    const std::vector<int> pids_b = rng.sample_without_replacement(5, 3);
    // Per-pid value sets over a small universe so overlaps are common.
    const auto draw_values = [&](int count) {
      std::vector<StateId> vals;
      for (StateId v = 0; v < 5; ++v) {
        if (static_cast<int>(vals.size()) < count && rng.next_bool(0.6)) {
          vals.push_back(v);
        }
      }
      if (vals.empty()) vals.push_back(rng.next_below(5));
      return vals;
    };
    std::vector<ProcessId> pa(pids_a.begin(), pids_a.end());
    std::vector<ProcessId> pb(pids_b.begin(), pids_b.end());
    // Value sets are chosen per *pid* so shared pids have coherent universes.
    std::vector<std::vector<StateId>> va, vb;
    std::vector<std::vector<StateId>> per_pid(5);
    for (auto& v : per_pid) v = draw_values(4);
    std::vector<std::vector<StateId>> per_pid_b(5);
    for (auto& v : per_pid_b) v = draw_values(4);
    for (ProcessId p : pa) va.push_back(per_pid[static_cast<std::size_t>(p)]);
    for (ProcessId p : pb) vb.push_back(per_pid_b[static_cast<std::size_t>(p)]);

    VertexArena shared;
    const SimplicialComplex psi_a = pseudosphere(pa, va, shared);
    const SimplicialComplex psi_b = pseudosphere(pb, vb, shared);

    // Expected: pseudosphere on common pids with intersected value sets.
    std::vector<ProcessId> common;
    std::vector<std::vector<StateId>> common_vals;
    for (ProcessId p : pa) {
      if (std::find(pb.begin(), pb.end(), p) == pb.end()) continue;
      common.push_back(p);
      std::vector<StateId> meet;
      for (StateId v : per_pid[static_cast<std::size_t>(p)]) {
        const auto& other = per_pid_b[static_cast<std::size_t>(p)];
        if (std::find(other.begin(), other.end(), v) != other.end()) {
          meet.push_back(v);
        }
      }
      common_vals.push_back(std::move(meet));
    }
    const SimplicialComplex expected =
        pseudosphere(common, common_vals, shared);
    EXPECT_EQ(topology::intersection_of(psi_a, psi_b), expected)
        << "trial " << trial;
  }
}

TEST(Pseudosphere, WedgeOfSpheresHomology) {
  // ψ(S^m; U_0..U_m) is homotopy equivalent to a wedge of m-spheres: all
  // reduced homology vanishes except the top dimension, where
  // β̃_m = Π(|U_i| - 1). (Figure 1 is the case Π = 1; Figure 2's |V| = 3
  // instance is Π = 4.) Verified over a randomized sweep.
  util::Rng rng(515);
  for (int trial = 0; trial < 15; ++trial) {
    VertexArena arena;
    const int m1 = 2 + static_cast<int>(rng.next_below(3));
    std::vector<ProcessId> pids;
    std::vector<std::vector<StateId>> sets;
    long long expected_top = 1;
    for (int i = 0; i < m1; ++i) {
      pids.push_back(i);
      const int size = 1 + static_cast<int>(rng.next_below(3));
      std::vector<StateId> values;
      for (int v = 0; v < size; ++v) {
        values.push_back(static_cast<StateId>(10 * i + v));
      }
      expected_top *= size - 1;
      sets.push_back(std::move(values));
    }
    const SimplicialComplex psi = pseudosphere(pids, sets, arena);
    const HomologyReport h =
        topology::reduced_homology(psi, {.max_dim = m1 - 1});
    for (int d = 0; d < m1 - 1; ++d) {
      EXPECT_EQ(h.reduced_betti[static_cast<std::size_t>(d)], 0)
          << "trial " << trial << " d=" << d;
    }
    EXPECT_EQ(h.reduced_betti[static_cast<std::size_t>(m1 - 1)],
              expected_top)
        << "trial " << trial;
  }
}

// ------------------------------------------------- Corollaries 6 and 8 ----

TEST(Corollary6, PseudospheresAreHighlyConnected) {
  // ψ(S^m; U₀..U_m) is (m-1)-connected for nonempty U_i.
  util::Rng rng(1009);
  for (int m = 0; m <= 3; ++m) {
    VertexArena arena;
    std::vector<ProcessId> pids;
    std::vector<std::vector<StateId>> sets;
    for (int i = 0; i <= m; ++i) {
      pids.push_back(i);
      std::vector<StateId> values;
      const int size = 1 + static_cast<int>(rng.next_below(3));
      for (int v = 0; v < size; ++v) {
        values.push_back(static_cast<StateId>(10 * i + v));
      }
      sets.push_back(std::move(values));
    }
    const SimplicialComplex psi = pseudosphere(pids, sets, arena);
    EXPECT_GE(topology::homological_connectivity(psi, m - 1), m - 1)
        << "m=" << m;
  }
}

TEST(Corollary8, UnionWithCommonValueIsConnected) {
  // ∪_i ψ(S^m; A_i) is (m-1)-connected when ∩ A_i ≠ ∅.
  VertexArena arena;
  const std::vector<ProcessId> pids{0, 1, 2};
  const std::vector<std::vector<StateId>> families{
      {0, 1}, {0, 2}, {0, 3}};  // common value 0
  SimplicialComplex u;
  for (const auto& family : families) {
    u.merge(pseudosphere_uniform(pids, family, arena));
  }
  EXPECT_GE(topology::homological_connectivity(u, 1), 1);
}

TEST(Corollary8, UnionWithoutCommonValueCanDisconnect) {
  // Sanity check of the hypothesis: two pseudospheres with disjoint value
  // sets do not even share a vertex.
  VertexArena arena;
  const std::vector<ProcessId> pids{0, 1};
  SimplicialComplex u = pseudosphere_uniform(pids, {0}, arena);
  u.merge(pseudosphere_uniform(pids, {1}, arena));
  EXPECT_EQ(topology::homological_connectivity(u, 0), -1);  // disconnected
}

// -------------------------------------------------------- input complexes --

TEST(InputComplex, IsPseudosphereOverValues) {
  ViewRegistry views;
  VertexArena arena;
  const SimplicialComplex inputs = input_complex(3, {0, 1, 2}, views, arena);
  EXPECT_EQ(inputs.facet_count(), 27u);
  EXPECT_EQ(inputs.count_of_dim(0), 9u);
  // (n-1)-connected by Corollary 6 (n = 2 here, so 1-connected).
  EXPECT_GE(topology::homological_connectivity(inputs, 1), 1);
}

TEST(InputComplex, RejectsBadArguments) {
  ViewRegistry views;
  VertexArena arena;
  EXPECT_THROW(input_complex(0, {0}, views, arena), std::invalid_argument);
  EXPECT_THROW(input_complex(2, {}, views, arena), std::invalid_argument);
}

TEST(InputFacet, LabelsMatch) {
  ViewRegistry views;
  VertexArena arena;
  const topology::Simplex facet = input_facet({5, 6, 7}, views, arena);
  ASSERT_EQ(facet.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& label = arena.label(facet[i]);
    EXPECT_EQ(label.pid, static_cast<ProcessId>(i));
    EXPECT_EQ(views.view(label.state).input, 5 + static_cast<int>(i));
  }
}

}  // namespace
}  // namespace psph::core
