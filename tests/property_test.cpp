// Cross-module property tests: invariants that tie independent engines
// together (collapse vs homology, union-find β̃₀ vs the rank of ∂_1 on every
// complex built here, homology GF(p) vs exact SNF, boundary-squared-is-zero,
// complex algebra laws, the interning registries vs an ordered-map
// reference, the decision engine vs enumeration) over randomized inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/view.h"
#include "math/modular.h"
#include "math/smith.h"
#include "oracle/greedy_collapse.h"
#include "solve/csp.h"
#include "solve/decide.h"
#include "solve/engine.h"
#include "store/serialize.h"
#include "topology/arena.h"
#include "topology/collapse.h"
#include "topology/components.h"
#include "topology/complex.h"
#include "topology/homology.h"
#include "topology/operations.h"
#include "util/random.h"

namespace psph::topology {
namespace {

/// Seed for the randomized sweeps: PSPH_TEST_SEED overrides the per-test
/// fallback, so CI can re-run the whole property suite on a second stream
/// without a rebuild. Failures print the seed that produced them.
std::uint64_t test_seed(std::uint64_t fallback) {
  const char* raw = std::getenv("PSPH_TEST_SEED");
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return parsed;
}

std::vector<Simplex> random_facets(util::Rng& rng, int vertices, int facets,
                                   int max_dim) {
  std::vector<Simplex> out;
  for (int i = 0; i < facets; ++i) {
    const int size = 1 + static_cast<int>(rng.next_below(
                             static_cast<std::uint64_t>(max_dim + 1)));
    const auto ids = rng.sample_without_replacement(vertices, size);
    std::vector<VertexId> vs;
    for (int id : ids) vs.push_back(static_cast<VertexId>(id));
    out.emplace_back(std::move(vs));
  }
  return out;
}

/// Independent oracle for the homology engine's dimension 0, which is
/// union-find (components.h): β̃₀ = n_0 − 1 − rank ∂_1, the rank over GF(p)
/// of the boundary matrix the face cache assembles.
void expect_betti0_matches_boundary_rank(const SimplicialComplex& k,
                                         const std::string& where) {
  if (k.empty()) return;
  const long long oracle =
      static_cast<long long>(k.count_of_dim(0)) - 1 -
      static_cast<long long>(
          boundary_matrix(k, 1).rank_mod_p(math::kDefaultPrime));
  EXPECT_EQ(static_cast<long long>(connected_component_count(k)) - 1, oracle)
      << where << " " << k.to_string();
  EXPECT_EQ(reduced_homology(k, {.max_dim = 0}).reduced_betti[0], oracle)
      << where << " " << k.to_string();
}

/// Every complex the suite draws comes through here, so each one also
/// checks the β̃₀ oracle above (under whichever PSPH_TEST_SEED the drawing
/// test uses).
SimplicialComplex random_complex(util::Rng& rng, int vertices, int facets,
                                 int max_dim) {
  SimplicialComplex k;
  for (Simplex& s : random_facets(rng, vertices, facets, max_dim)) {
    k.add_facet(std::move(s));
  }
  expect_betti0_matches_boundary_rank(k, "random_complex");
  return k;
}

TEST(Property, CollapsibleImpliesAcyclic) {
  // Greedy collapse to a point certifies contractibility, which implies
  // vanishing reduced homology — the two engines must agree.
  util::Rng rng(7001);
  int collapsed = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const SimplicialComplex k = random_complex(rng, 7, 6, 3);
    if (k.empty()) continue;
    if (!oracle::collapses_to_point(k)) continue;
    ++collapsed;
    const HomologyReport h = reduced_homology(k, {.max_dim = 3});
    for (long long betti : h.reduced_betti) {
      EXPECT_EQ(betti, 0) << "trial " << trial;
    }
  }
  EXPECT_GT(collapsed, 5);  // the sweep must actually exercise the claim
}

TEST(Property, BoundaryComposedWithBoundaryIsZero) {
  // ∂_{d} ∘ ∂_{d+1} = 0, the defining identity of a chain complex.
  util::Rng rng(7003);
  for (int trial = 0; trial < 15; ++trial) {
    const SimplicialComplex k = random_complex(rng, 8, 8, 3);
    if (k.dimension() < 1) continue;
    for (int d = 1; d <= k.dimension(); ++d) {
      const math::SparseMatrix lower = boundary_matrix(k, d - 1);
      const math::SparseMatrix upper = boundary_matrix(k, d);
      // Multiply lower * upper entry-wise (small matrices) and confirm the
      // product vanishes.
      for (std::size_t c = 0; c < upper.cols(); ++c) {
        for (std::size_t r = 0; r < lower.rows(); ++r) {
          std::int64_t sum = 0;
          for (std::size_t mid = 0; mid < upper.rows(); ++mid) {
            sum += lower.get(r, mid) * upper.get(mid, c);
          }
          EXPECT_EQ(sum, 0) << "d=" << d;
        }
      }
    }
  }
}

TEST(Property, GfpAndExactHomologyAgreeWithoutTorsion) {
  util::Rng rng(7005);
  for (int trial = 0; trial < 15; ++trial) {
    const SimplicialComplex k = random_complex(rng, 6, 6, 2);
    if (k.empty()) continue;
    const HomologyReport fast = reduced_homology(k, {.max_dim = 2});
    const HomologyReport exact =
        reduced_homology(k, {.max_dim = 2, .exact = true});
    EXPECT_EQ(fast.reduced_betti, exact.reduced_betti) << "trial " << trial;
  }
}

TEST(Property, UnionIsAssociativeAndCommutative) {
  util::Rng rng(7007);
  for (int trial = 0; trial < 20; ++trial) {
    const SimplicialComplex a = random_complex(rng, 6, 4, 2);
    const SimplicialComplex b = random_complex(rng, 6, 4, 2);
    const SimplicialComplex c = random_complex(rng, 6, 4, 2);
    EXPECT_EQ(union_of(a, b), union_of(b, a));
    EXPECT_EQ(union_of(union_of(a, b), c), union_of(a, union_of(b, c)));
    expect_betti0_matches_boundary_rank(union_of(a, b), "union");
  }
}

TEST(Property, IntersectionDistributesOverSubcomplexes) {
  util::Rng rng(7011);
  for (int trial = 0; trial < 20; ++trial) {
    const SimplicialComplex a = random_complex(rng, 6, 5, 2);
    const SimplicialComplex b = random_complex(rng, 6, 5, 2);
    // (A ∩ B) ⊆ A, and A ∩ A = A.
    EXPECT_TRUE(intersection_of(a, b).is_subcomplex_of(a));
    EXPECT_EQ(intersection_of(a, a), a);
    // Monotonicity: A ∩ B ⊆ A ∪ B.
    EXPECT_TRUE(intersection_of(a, b).is_subcomplex_of(union_of(a, b)));
    expect_betti0_matches_boundary_rank(intersection_of(a, b), "intersection");
  }
}

TEST(Property, SkeletonIdempotentAndMonotone) {
  util::Rng rng(7013);
  for (int trial = 0; trial < 20; ++trial) {
    const SimplicialComplex k = random_complex(rng, 7, 6, 3);
    for (int d = 0; d <= 3; ++d) {
      const SimplicialComplex skel = skeleton(k, d);
      expect_betti0_matches_boundary_rank(skel, "skeleton");
      EXPECT_LE(skel.dimension(), d);
      EXPECT_EQ(skeleton(skel, d), skel);
      EXPECT_TRUE(skel.is_subcomplex_of(k));
    }
  }
}

// ---- Differential homology suite ----
//
// One generator, three independent oracles per case:
//   1. incremental add_facet, one mixed-width row batch and one single-row
//      batch per facet each equal a maximal-set reference built from a
//      std::set<Simplex> (facets, count, dimension, contains on faces and
//      non-faces), and so do a copy and a moved-to complex of each,
//   2. χ from the f-vector == 1 + Σ (-1)^d β̃_d over GF(2) and GF(3) (the
//      alternating-sum identity holds over every field, torsion or not),
//   3. universal coefficients: β̃_d(GF(q)) = β̃_d(Z) + t_q(d) + t_q(d-1),
//      where t_q(d) counts torsion coefficients of H̃_d divisible by q —
//      ties the GF(p) elimination engine to the exact SNF engine including
//      torsion, not just in torsion-free cases.
//
// 200 seed-reproducible cases; override the stream with PSPH_TEST_SEED.

/// True if the decimal string is divisible by q ∈ {2, 3} (torsion
/// coefficients are reported as decimal strings of arbitrary size).
bool decimal_divisible_by(const std::string& decimal, int q) {
  if (q == 2) {
    return ((decimal.back() - '0') % 2) == 0;
  }
  int digit_sum = 0;
  for (char c : decimal) digit_sum += c - '0';
  return digit_sum % 3 == 0;
}

TEST(PropertyDifferential, HomologyAgreesAcrossEnginesAndFields) {
  const std::uint64_t seed = test_seed(20260805);
  util::Rng rng(seed);
  constexpr int kCases = 200;
  int nonempty_cases = 0;
  for (int trial = 0; trial < kCases; ++trial) {
    const int vertices = 4 + static_cast<int>(rng.next_below(5));
    const int facets = 1 + static_cast<int>(rng.next_below(10));
    const int max_dim = 1 + static_cast<int>(rng.next_below(3));
    const std::vector<Simplex> facet_list =
        random_facets(rng, vertices, facets, max_dim);

    // (1) Three insertion paths must produce the same complex: one facet at
    // a time, one mixed-width row batch, and one single-row batch per facet
    // (the construction pipeline's consume pattern). Each must equal the
    // maximal sets of the facet list, and so must a copy and a moved-to
    // complex of it.
    SimplicialComplex incremental;
    for (const Simplex& s : facet_list) incremental.add_facet(s);
    topology::FacetRows rows;
    for (const Simplex& s : facet_list) rows.push_back(s.vertices());
    SimplicialComplex bulk;
    bulk.add_facets(rows);
    SimplicialComplex batched;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      batched.add_facets(rows.rows(i, i + 1));
    }
    const std::string where =
        "seed=" + std::to_string(seed) + " trial=" + std::to_string(trial);
    const std::set<Simplex> distinct(facet_list.begin(), facet_list.end());
    std::vector<Simplex> maximal;
    for (const Simplex& s : distinct) {
      const bool contained = std::any_of(
          distinct.begin(), distinct.end(), [&](const Simplex& t) {
            return t.size() > s.size() && s.is_face_of(t);
          });
      if (!contained) maximal.push_back(s);
    }
    int max_dim_seen = -1;
    for (const Simplex& s : maximal) {
      max_dim_seen = std::max(max_dim_seen, s.dimension());
    }
    // Probe simplexes: every face of a maximal facet, plus random vertex
    // sets (on a stream of their own, so the cases stay the same), each
    // contained iff some maximal facet holds it.
    std::vector<Simplex> probes;
    for (const Simplex& s : maximal) {
      for (const Simplex& face : s.all_faces()) probes.push_back(face);
    }
    util::Rng probe_rng = rng.split("probes" + std::to_string(trial));
    for (int i = 0; i < 20; ++i) {
      const int size = 1 + static_cast<int>(probe_rng.next_below(
                               static_cast<std::uint64_t>(max_dim + 2)));
      std::vector<VertexId> vs;
      for (const int id : probe_rng.sample_without_replacement(
               vertices, std::min(size, vertices))) {
        vs.push_back(static_cast<VertexId>(id));
      }
      probes.emplace_back(std::move(vs));
    }
    const auto expect_reference = [&](const SimplicialComplex& k,
                                      const char* path) {
      EXPECT_EQ(k.facets(), maximal) << path << " " << where;
      EXPECT_EQ(k.facet_count(), maximal.size()) << path << " " << where;
      EXPECT_EQ(k.dimension(), max_dim_seen) << path << " " << where;
      for (const Simplex& probe : probes) {
        const bool held = std::any_of(
            maximal.begin(), maximal.end(),
            [&](const Simplex& s) { return probe.is_face_of(s); });
        EXPECT_EQ(k.contains(probe), held)
            << path << " " << probe.to_string() << " " << where;
      }
    };
    for (const auto& [k, path] :
         {std::pair<const SimplicialComplex*, const char*>{&incremental,
                                                           "add_facet"},
          {&bulk, "one batch"},
          {&batched, "batch per facet"}}) {
      expect_reference(*k, path);
      SimplicialComplex copy = *k;
      expect_reference(copy, "copy");
      EXPECT_EQ(copy, *k) << path << " " << where;
      const SimplicialComplex moved = std::move(copy);
      expect_reference(moved, "moved-to");
      EXPECT_EQ(moved, *k) << path << " " << where;
    }
    ASSERT_EQ(incremental, bulk)
        << "one row batch != add_facet; " << where;
    ASSERT_EQ(batched, incremental)
        << "batch per facet != add_facet; " << where;

    const SimplicialComplex& k = incremental;
    if (k.empty()) continue;
    ++nonempty_cases;
    expect_betti0_matches_boundary_rank(
        k, "seed=" + std::to_string(seed) + " trial=" + std::to_string(trial));
    const int top = k.dimension();

    const HomologyReport exact =
        reduced_homology(k, {.max_dim = top, .exact = true});
    const HomologyReport gf2 = reduced_homology(k, {.max_dim = top, .prime = 2});
    const HomologyReport gf3 = reduced_homology(k, {.max_dim = top, .prime = 3});

    // (2) χ = 1 + Σ (-1)^d β̃_d, for the Betti numbers over each field and
    // for the exact free ranks (torsion never moves χ).
    const long long chi = k.euler_characteristic();
    for (const HomologyReport* report : {&gf2, &gf3, &exact}) {
      long long alternating = 0;
      for (int d = 0; d <= top; ++d) {
        const long long betti =
            report->reduced_betti[static_cast<std::size_t>(d)];
        alternating += (d % 2 == 0) ? betti : -betti;
      }
      EXPECT_EQ(chi, 1 + alternating)
          << "Euler identity; seed=" << seed << " trial=" << trial
          << " report=" << report->to_string();
    }

    // (3) Universal coefficients, dimension by dimension.
    const std::pair<int, const HomologyReport*> fields[] = {{2, &gf2},
                                                            {3, &gf3}};
    for (int d = 0; d <= top; ++d) {
      const std::size_t slot = static_cast<std::size_t>(d);
      for (const auto& [q, report] : fields) {
        long long torsion_lift = 0;
        for (const std::string& t : exact.torsion[slot]) {
          if (decimal_divisible_by(t, q)) ++torsion_lift;
        }
        if (d > 0) {
          for (const std::string& t : exact.torsion[slot - 1]) {
            if (decimal_divisible_by(t, q)) ++torsion_lift;
          }
        }
        EXPECT_EQ(report->reduced_betti[slot],
                  exact.reduced_betti[slot] + torsion_lift)
            << "universal coefficients at d=" << d << " q=" << q
            << "; seed=" << seed << " trial=" << trial
            << " exact=" << exact.to_string();
      }
    }
  }
  // The sweep must actually exercise the claims (a degenerate generator
  // that only produced empty complexes would vacuously pass).
  EXPECT_GT(nonempty_cases, kCases / 2)
      << "generator degenerated; seed=" << seed;
}

// ---- Morse preprocessor differential suite ----
//
// The coreduction/free-face cascade must be invisible in the output:
// Betti numbers over every field AND exact torsion identical with the
// preprocessor on and off, on seed-reproducible random complexes.

TEST(PropertyDifferential, MorseReducedHomologyMatchesUnreduced) {
  const std::uint64_t seed = test_seed(20260808);
  util::Rng rng(seed);
  constexpr int kCases = 120;
  int nonempty_cases = 0;
  for (int trial = 0; trial < kCases; ++trial) {
    const int vertices = 4 + static_cast<int>(rng.next_below(5));
    const int facets = 1 + static_cast<int>(rng.next_below(10));
    const int max_dim = 1 + static_cast<int>(rng.next_below(3));
    const SimplicialComplex k =
        random_complex(rng, vertices, facets, max_dim);
    if (k.empty()) continue;
    ++nonempty_cases;
    const int top = k.dimension();
    for (const std::int64_t prime : {std::int64_t{2}, std::int64_t{3}}) {
      const HomologyReport with_morse = reduced_homology(
          k, {.max_dim = top, .prime = prime, .exact = true, .morse = true});
      const HomologyReport without_morse = reduced_homology(
          k, {.max_dim = top, .prime = prime, .exact = true, .morse = false});
      EXPECT_EQ(with_morse.reduced_betti, without_morse.reduced_betti)
          << "betti mod " << prime << "; seed=" << seed
          << " trial=" << trial;
      EXPECT_EQ(with_morse.torsion, without_morse.torsion)
          << "torsion mod " << prime << "; seed=" << seed
          << " trial=" << trial;
    }
  }
  EXPECT_GT(nonempty_cases, kCases / 2)
      << "generator degenerated; seed=" << seed;
}

TEST(PropertyDifferential, MorseCriticalCellsKeepEulerCharacteristic) {
  // Every reduction pair removes two cells of adjacent dimension, so the
  // alternating sum over critical cells (augmentation included) equals the
  // alternating sum over all cells — for every truncation depth.
  const std::uint64_t seed = test_seed(20260809);
  util::Rng rng(seed);
  for (int trial = 0; trial < 60; ++trial) {
    const SimplicialComplex k = random_complex(rng, 8, 8, 3);
    if (k.empty()) continue;
    for (int top = 1; top <= k.dimension() + 1; ++top) {
      const MorseComplex mc = morse_reduce(k, top);
      long long cells = -1;  // the augmentation cell, dimension -1
      long long critical =
          -static_cast<long long>(mc.boundary[0].rows());  // aug if alive
      for (int d = 0; d <= std::min(top, k.dimension()); ++d) {
        const long long sign = (d % 2 == 0) ? 1 : -1;
        cells += sign * static_cast<long long>(k.count_of_dim(d));
        critical +=
            sign * static_cast<long long>(mc.critical[static_cast<std::size_t>(d)]);
      }
      EXPECT_EQ(cells, critical)
          << "top=" << top << "; seed=" << seed << " trial=" << trial;
      EXPECT_EQ(mc.cells_before - mc.cells_after, 2 * mc.pairs)
          << "top=" << top << "; seed=" << seed << " trial=" << trial;
    }
  }
}

TEST(PropertyDifferential, MorsePreservesProjectivePlaneTorsion) {
  // The 6-vertex triangulation of RP²: H̃_0 = 0, H̃_1 = Z/2, H̃_2 = 0.
  // Torsion is the sharp test — a preprocessor that only preserved field
  // Betti numbers could still corrupt it.
  // The minimal triangulation RP²_6 (antipodal icosahedron quotient):
  // 6 vertices, 15 edges (each pair), 10 triangles, every edge in exactly
  // two triangles, χ = 1.
  SimplicialComplex rp2;
  for (const auto& f :
       {Simplex{0, 1, 2}, Simplex{0, 2, 3}, Simplex{0, 3, 4}, Simplex{0, 4, 5},
        Simplex{0, 1, 5}, Simplex{1, 2, 4}, Simplex{2, 4, 5}, Simplex{2, 3, 5},
        Simplex{1, 3, 5}, Simplex{1, 3, 4}}) {
    rp2.add_facet(f);
  }
  expect_betti0_matches_boundary_rank(rp2, "RP2");
  for (const bool morse : {true, false}) {
    const HomologyReport report = reduced_homology(
        rp2, {.max_dim = 2, .prime = 3, .exact = true, .morse = morse});
    ASSERT_EQ(report.reduced_betti.size(), 3u);
    EXPECT_EQ(report.reduced_betti[0], 0) << "morse=" << morse;
    EXPECT_EQ(report.reduced_betti[1], 0) << "morse=" << morse;
    EXPECT_EQ(report.reduced_betti[2], 0) << "morse=" << morse;
    ASSERT_EQ(report.torsion.size(), 3u);
    EXPECT_TRUE(report.torsion[0].empty()) << "morse=" << morse;
    ASSERT_EQ(report.torsion[1].size(), 1u) << "morse=" << morse;
    EXPECT_EQ(report.torsion[1][0], "2") << "morse=" << morse;
    EXPECT_TRUE(report.torsion[2].empty()) << "morse=" << morse;
  }
}

TEST(Property, EulerMatchesComponentsOnGraphs) {
  // For a 1-dimensional complex, χ = #components - #independent cycles;
  // in particular χ <= #components.
  util::Rng rng(7017);
  for (int trial = 0; trial < 30; ++trial) {
    const SimplicialComplex k = random_complex(rng, 8, 7, 1);
    if (k.empty()) continue;
    EXPECT_LE(k.euler_characteristic(),
              static_cast<long long>(connected_component_count(k)));
  }
}

// The interning registries hash-cons through a flat index; an ordered map
// over the same keys gives every key its id independently: the number of
// distinct keys before it. Both draws repeat keys often and pass many grows.
TEST(PropertyIntern, ArenaIdsMatchAnOrderedMapReference) {
  const std::uint64_t seed = test_seed(20261018);
  util::Rng rng(seed);
  VertexArena arena;
  std::map<std::pair<ProcessId, StateId>, VertexId> reference;
  for (int i = 0; i < 40000; ++i) {
    const auto pid = static_cast<ProcessId>(rng.next_below(6));
    const StateId state = rng.next_below(4000);
    const auto [it, fresh] = reference.try_emplace(
        {pid, state}, static_cast<VertexId>(reference.size()));
    ASSERT_EQ(arena.intern(pid, state), it->second) << "seed " << seed;
  }
  ASSERT_EQ(arena.size(), reference.size()) << "seed " << seed;
  for (const auto& [label, id] : reference) {
    EXPECT_EQ(arena.pid(id), label.first) << "seed " << seed;
    EXPECT_EQ(arena.state(id), label.second) << "seed " << seed;
  }
}

TEST(PropertyIntern, ViewIdsMatchAnOrderedMapReference) {
  const std::uint64_t seed = test_seed(20261019);
  util::Rng rng(seed);
  core::ViewRegistry views;
  // (pid, round, input, heard sorted by sender): a view's whole identity.
  using Key = std::tuple<ProcessId, int, std::int64_t,
                         std::vector<core::HeardEntry>>;
  std::map<Key, StateId> reference;
  const auto expect_id = [&](Key key, StateId got) {
    const auto [it, fresh] =
        reference.try_emplace(std::move(key), reference.size());
    ASSERT_EQ(got, it->second) << "seed " << seed;
  };
  constexpr int kProcesses = 4;
  for (int i = 0; i < 30000; ++i) {
    const auto pid = static_cast<ProcessId>(rng.next_below(kProcesses));
    if (reference.empty() || rng.next_below(4) == 0) {
      const auto input = static_cast<std::int64_t>(rng.next_below(3));
      expect_id({pid, 0, input, {}}, views.intern_input(pid, input));
      continue;
    }
    // A round-1 or round-2 view over a random set of senders, each heard
    // at a random earlier state, handed over in shuffled order.
    const int round = 1 + static_cast<int>(rng.next_below(2));
    const int senders = 1 + static_cast<int>(rng.next_below(kProcesses));
    std::vector<core::HeardEntry> heard;
    for (const int from : rng.sample_without_replacement(kProcesses, senders)) {
      const auto state = static_cast<StateId>(
          rng.next_below(std::min<std::size_t>(views.size(), 16)));
      const int micro =
          rng.next_below(3) == 0 ? core::kNoMicro
                                 : static_cast<int>(rng.next_below(2));
      heard.push_back({static_cast<ProcessId>(from), state, micro});
    }
    rng.shuffle(heard);
    std::vector<core::HeardEntry> sorted = heard;
    std::sort(sorted.begin(), sorted.end());
    expect_id({pid, round, 0, std::move(sorted)},
              views.intern_round(pid, round, std::move(heard)));
  }
  ASSERT_EQ(views.size(), reference.size()) << "seed " << seed;
  for (const auto& [key, id] : reference) {
    const core::View view = views.view(id);
    EXPECT_EQ(view.pid, std::get<0>(key)) << "seed " << seed;
    EXPECT_EQ(view.round, std::get<1>(key)) << "seed " << seed;
    EXPECT_EQ(view.input, std::get<2>(key)) << "seed " << seed;
    EXPECT_EQ(std::vector<core::HeardEntry>(view.heard.begin(),
                                            view.heard.end()),
              std::get<3>(key))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace psph::topology

// ---------------------------------------------------------------------------
// Solvability-engine properties (src/solve): structural laws a correct
// decision procedure must satisfy, checked without reference to the oracle,
// and the engine against enumeration on random small CSPs.
// ---------------------------------------------------------------------------

namespace psph::solve {
namespace {

/// A random CSP small enough to enumerate (at most 10^5 assignments): 2–4
/// values, domains mixing singletons and larger sets (and, now and then,
/// one empty domain), up to twice as many facets as vertices, of 1–4
/// vertices each, k from 1 to 3.
CspProblem random_csp(util::Rng& rng) {
  const auto below = [&](int bound) {
    return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(bound)));
  };
  CspProblem problem;
  problem.num_values = 2 + below(3);
  // k < num_values: with k >= num_values no facet can constrain anything.
  problem.k = 1 + below(problem.num_values - 1);
  for (int value = 0; value < problem.num_values; ++value) {
    problem.value_of.push_back(value);
  }
  const std::uint64_t all = (std::uint64_t{1} << problem.num_values) - 1;
  const int max_vertices = 2 + below(13);
  std::uint64_t assignments = 1;
  for (int v = 0; v < max_vertices; ++v) {
    const std::uint64_t domain =
        rng.next_bool(0.15) ? std::uint64_t{1} << below(problem.num_values)
                            : 1 + rng.next_below(all);
    assignments *= static_cast<std::uint64_t>(std::popcount(domain));
    if (assignments > 100000) break;
    problem.domains.push_back(domain);
    problem.vertex_ids.push_back(static_cast<topology::VertexId>(v));
  }
  const int vertices = static_cast<int>(problem.domains.size());
  if (rng.next_bool(0.05)) {
    problem.domains[static_cast<std::size_t>(below(vertices))] = 0;
  }
  std::vector<std::vector<int>> facets_of(static_cast<std::size_t>(vertices));
  const int facets = 1 + below(2 * vertices);
  for (int f = 0; f < facets; ++f) {
    const int width = 1 + below(std::min(4, vertices));
    std::vector<int> members = rng.sample_without_replacement(vertices, width);
    std::sort(members.begin(), members.end());
    for (const int v : members) {
      facets_of[static_cast<std::size_t>(v)].push_back(f);
    }
    problem.facets.push_back(members);
  }
  for (const std::vector<int>& row : facets_of) {
    problem.facets_of.push_back(row);
  }
  return problem;
}

/// The first valid assignment in lexicographic order (vertex index order,
/// ascending values), by enumerating assignments in that order; a prefix is
/// dropped only when it violates a facet all of whose members it assigns.
std::optional<std::vector<int>> brute_force_lex_min(const CspProblem& problem) {
  const std::size_t vertices = problem.domains.size();
  // closing[v]: the facets whose highest member is v.
  std::vector<std::vector<std::size_t>> closing(vertices);
  for (std::size_t f = 0; f < problem.facets.size(); ++f) {
    int last = 0;
    for (const int v : problem.facets[f]) last = std::max(last, v);
    closing[static_cast<std::size_t>(last)].push_back(f);
  }
  std::vector<int> assignment(vertices, -1);
  const auto extend = [&](const auto& self, std::size_t v) -> bool {
    if (v == vertices) return true;
    for (int value = 0; value < problem.num_values; ++value) {
      if (((problem.domains[v] >> value) & 1) == 0) continue;
      assignment[v] = value;
      bool ok = true;
      for (const std::size_t f : closing[v]) {
        std::uint64_t seen = 0;
        for (const int u : problem.facets[f]) {
          seen |= std::uint64_t{1} << assignment[static_cast<std::size_t>(u)];
        }
        ok = ok && std::popcount(seen) <= problem.k;
      }
      if (ok && self(self, v + 1)) return true;
    }
    return false;
  };
  if (!extend(extend, 0)) return std::nullopt;
  return assignment;
}

TEST(PropertySolve, EngineMatchesBruteForceLexMin) {
  // The engine's verdict, and its witness — the lex-min decision map —
  // against enumeration on random problems, so probing, branching and the
  // witness completion are checked beyond the instances the paper builds.
  const std::uint64_t seed = topology::test_seed(20261020);
  util::Rng rng(seed);
  constexpr int kCases = 500;
  int solvable = 0;
  for (int trial = 0; trial < kCases; ++trial) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " trial " +
                 std::to_string(trial));
    const CspProblem problem = random_csp(rng);
    const std::optional<std::vector<int>> expected =
        brute_force_lex_min(problem);
    const SolveOutcome outcome = solve(problem);
    ASSERT_TRUE(outcome.exhausted);
    ASSERT_EQ(outcome.solvable, expected.has_value());
    if (!expected) continue;
    ++solvable;
    EXPECT_EQ(outcome.witness, *expected);
    const WitnessCheck check = verify_witness(problem, outcome.witness);
    EXPECT_TRUE(check.ok) << check.reason;
  }
  // Both verdicts must be well represented for the comparison to mean much.
  EXPECT_GT(solvable, kCases / 10) << "seed " << seed;
  EXPECT_LT(solvable, kCases - kCases / 10) << "seed " << seed;
}

TEST(PropertySolve, MoreRoundsNeverHurt) {
  // A protocol solvable in r rounds is solvable in r+1: extra rounds only
  // refine views, and a decision map factors through the refinement. An
  // engine verdict flipping from solvable to unsolvable as rounds grow is
  // therefore always a bug.
  const std::vector<DecideRequest> bases = {
      {Model::kAsync, 3, 1, 2, 0, 1}, {Model::kAsync, 2, 1, 1, 0, 1},
      {Model::kSync, 3, 1, 1, 0, 1},  {Model::kSync, 2, 1, 1, 0, 1},
      {Model::kIis, 2, 0, 1, 0, 1},   {Model::kIis, 3, 0, 1, 0, 1},
  };
  for (DecideRequest base : bases) {
    const store::DecisionRecord at_r = decide(base).record;
    DecideRequest next = base;
    next.rounds = base.rounds + 1;
    const store::DecisionRecord at_r1 = decide(next).record;
    ASSERT_TRUE(at_r.exhausted && at_r1.exhausted);
    if (at_r.solvable) {
      EXPECT_TRUE(at_r1.solvable)
          << model_name(base.model) << " solvable at r=" << base.rounds
          << " but not at r=" << next.rounds;
    }
  }
}

TEST(PropertySolve, HarderAgreementNeverGetsEasier) {
  // (k-1)-set agreement is strictly more constraining than k-set: any
  // (k-1)-witness is a k-witness. Unsolvable at k must imply unsolvable at
  // k-1 on the same protocol.
  const std::vector<DecideRequest> bases = {
      {Model::kAsync, 3, 1, 2, 0, 1}, {Model::kAsync, 3, 2, 2, 0, 1},
      {Model::kAsync, 2, 1, 2, 0, 1}, {Model::kSync, 3, 2, 2, 0, 1},
      {Model::kSync, 3, 1, 2, 0, 2},  {Model::kSemiSync, 3, 1, 2, 1, 1},
  };
  for (DecideRequest base : bases) {
    const store::DecisionRecord at_k = decide(base).record;
    DecideRequest harder = base;
    harder.k = base.k - 1;
    const store::DecisionRecord at_k1 = decide(harder).record;
    ASSERT_TRUE(at_k.exhausted && at_k1.exhausted);
    if (!at_k.solvable) {
      EXPECT_FALSE(at_k1.solvable)
          << model_name(base.model) << " unsolvable at k=" << base.k
          << " but solvable at k=" << harder.k;
    }
  }
}

}  // namespace
}  // namespace psph::solve
