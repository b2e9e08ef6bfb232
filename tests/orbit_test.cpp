// Orbit-quotient construction (DESIGN §5.16): symmetry groups, canonical
// forms, and the differential guarantee — orbit-reduced facet counts,
// f-vectors, and homology must equal the unreduced pipeline's, value for
// value, for every model and every (n, r) the unreduced path can reach.
// Also pins construction output across commits and checks that a deadline
// reaches inside a construction level.

#include "core/orbit.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/construction.h"
#include "core/iis_complex.h"
#include "core/pseudosphere.h"
#include "core/theorems.h"
#include "topology/homology.h"
#include "util/cancel.h"
#include "util/hash.h"

namespace {

using namespace psph;

std::uint64_t factorial(int n) {
  std::uint64_t f = 1;
  for (int i = 2; i <= n; ++i) f *= static_cast<std::uint64_t>(i);
  return f;
}

// ------------------------------------------------------- symmetry groups --

TEST(SymmetryGroupTest, RainbowInputHasFullDiagonalSymmetricGroup) {
  for (int n = 2; n <= 4; ++n) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n, views, arena);
    const core::SymmetryGroup group =
        core::SymmetryGroup::for_input_facet(input, views, arena);
    EXPECT_EQ(group.size(), factorial(n)) << "n=" << n;
    EXPECT_TRUE(group.element(0).is_identity());
  }
}

TEST(SymmetryGroupTest, UniformInputAlsoHasFullSymmetricGroup) {
  // All processes share one input value: every pid permutation works with
  // sigma = id.
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::input_facet({7, 7, 7}, views, arena);
  const core::SymmetryGroup group =
      core::SymmetryGroup::for_input_facet(input, views, arena);
  EXPECT_EQ(group.size(), 6u);
}

TEST(SymmetryGroupTest, AsymmetricInputHasPartialGroup) {
  // Inputs {5, 5, 9}: only the swap of the two 5-processes survives.
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::input_facet({5, 5, 9}, views, arena);
  const core::SymmetryGroup group =
      core::SymmetryGroup::for_input_facet(input, views, arena);
  EXPECT_EQ(group.size(), 2u);
}

TEST(SymmetryGroupTest, NonRoundZeroVertexThrows) {
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::rainbow_input(3, views, arena);
  const topology::SimplicialComplex one_round =
      core::async_protocol_complex(input, {3, 1, 1}, views, arena);
  EXPECT_THROW(core::SymmetryGroup::for_input_facet(one_round.facets().front(),
                                                    views, arena),
               std::invalid_argument);
}

// --------------------------------------------------- canonicalization ----

TEST(OrbitContextTest, OrbitMembersShareOneCanonicalForm) {
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::rainbow_input(3, views, arena);
  const topology::SimplicialComplex complex =
      core::async_protocol_complex(input, {3, 1, 1}, views, arena);

  core::OrbitContext ctx(
      core::SymmetryGroup::for_input_facet(input, views, arena), views, arena);
  for (const topology::Simplex& facet : complex.facets()) {
    const core::CanonicalFacet canon = ctx.canonicalize(facet);
    // Every group image of the facet canonicalizes to the same rep, and the
    // stabilizer divides the group order (orbit–stabilizer).
    EXPECT_EQ(ctx.group().size() % canon.stabilizer, 0u);
    for (std::size_t gi = 0; gi < ctx.group().size(); ++gi) {
      const topology::Simplex image = ctx.relabel_facet(gi, facet);
      EXPECT_EQ(ctx.canonicalize(image).rep, canon.rep);
    }
  }
}

TEST(OrbitContextTest, IdentityGroupFixesEverything) {
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::rainbow_input(3, views, arena);
  core::OrbitContext ctx(core::SymmetryGroup::identity(), views, arena);
  const core::CanonicalFacet canon = ctx.canonicalize(input);
  EXPECT_EQ(canon.rep, input);
  EXPECT_EQ(canon.stabilizer, 1u);
}

// --------------------------------------------- differential: 4 models ----

// Values reported by the orbit pipeline (full facet count, full f-vector,
// homology of the reconstituted complex) must equal the unreduced
// pipeline's, and the reconstituted complex must have the same facet count
// as the reduced orbit sum claims.
void expect_orbit_matches_full(const topology::SimplicialComplex& full,
                               const core::OrbitComplexResult& orbit,
                               core::ViewRegistry& views,
                               topology::VertexArena& arena,
                               const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(orbit.full_facet_count, full.facet_count());
  EXPECT_EQ(core::orbit_full_f_vector(orbit, views, arena), full.f_vector());

  const topology::SimplicialComplex rebuilt =
      core::reconstitute_full(orbit, views, arena);
  EXPECT_EQ(rebuilt.facet_count(), full.facet_count());
  EXPECT_EQ(rebuilt.f_vector(), full.f_vector());

  topology::HomologyOptions hopts;
  hopts.max_dim = full.dimension();
  hopts.exact = true;
  const topology::HomologyReport h_full = reduced_homology(full, hopts);
  const topology::HomologyReport h_orbit = reduced_homology(rebuilt, hopts);
  EXPECT_EQ(h_full.reduced_betti, h_orbit.reduced_betti);
  EXPECT_EQ(h_full.torsion, h_orbit.torsion);

  // The reduction is genuine whenever the group is nontrivial: at most one
  // representative per orbit.
  EXPECT_LE(orbit.reduced.facet_count(), full.facet_count());
}

TEST(OrbitDifferentialTest, AsyncMatchesFullPipeline) {
  struct Case {
    int n1, f, r;
  };
  const Case cases[] = {{3, 1, 1}, {3, 1, 2}, {3, 2, 1}, {4, 1, 1}, {4, 2, 1}};
  for (const Case& c : cases) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(c.n1, views, arena);
    const core::AsyncParams params{c.n1, c.f, c.r};
    const topology::SimplicialComplex full =
        core::async_protocol_complex(input, params, views, arena);
    const core::OrbitComplexResult orbit =
        core::async_protocol_complex_orbit(input, params, views, arena);
    expect_orbit_matches_full(full, orbit, views, arena,
                              "async n1=" + std::to_string(c.n1) +
                                  " f=" + std::to_string(c.f) +
                                  " r=" + std::to_string(c.r));
  }
}

TEST(OrbitDifferentialTest, SyncMatchesFullPipeline) {
  struct Case {
    int n1, f, k, r;
  };
  const Case cases[] = {{3, 1, 1, 1}, {3, 2, 1, 2}, {4, 2, 1, 2}, {4, 2, 2, 1}};
  for (const Case& c : cases) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(c.n1, views, arena);
    const core::SyncParams params{c.n1, c.f, c.k, c.r};
    const topology::SimplicialComplex full =
        core::sync_protocol_complex(input, params, views, arena);
    const core::OrbitComplexResult orbit =
        core::sync_protocol_complex_orbit(input, params, views, arena);
    expect_orbit_matches_full(full, orbit, views, arena,
                              "sync n1=" + std::to_string(c.n1) +
                                  " f=" + std::to_string(c.f) +
                                  " k=" + std::to_string(c.k) +
                                  " r=" + std::to_string(c.r));
  }
}

TEST(OrbitDifferentialTest, SemiSyncMatchesFullPipeline) {
  struct Case {
    int n1, f, k, mu, r;
  };
  const Case cases[] = {{3, 1, 1, 2, 1}, {3, 2, 1, 2, 2}, {3, 1, 1, 3, 1}};
  for (const Case& c : cases) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(c.n1, views, arena);
    const core::SemiSyncParams params{c.n1, c.f, c.k, c.mu, c.r};
    const topology::SimplicialComplex full =
        core::semisync_protocol_complex(input, params, views, arena);
    const core::OrbitComplexResult orbit =
        core::semisync_protocol_complex_orbit(input, params, views, arena);
    expect_orbit_matches_full(full, orbit, views, arena,
                              "semisync n1=" + std::to_string(c.n1) +
                                  " f=" + std::to_string(c.f) +
                                  " mu=" + std::to_string(c.mu) +
                                  " r=" + std::to_string(c.r));
  }
}

TEST(OrbitDifferentialTest, IisMatchesFullPipeline) {
  for (int r = 1; r <= 2; ++r) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(3, views, arena);
    const topology::SimplicialComplex full =
        core::iis_protocol_complex(input, r, views, arena);
    const core::OrbitComplexResult orbit =
        core::iis_protocol_complex_orbit(input, r, views, arena);
    expect_orbit_matches_full(full, orbit, views, arena,
                              "iis r=" + std::to_string(r));
  }
}

TEST(OrbitDifferentialTest, AsymmetricInputDegeneratesGracefully) {
  // With a near-trivial group (|G| = 2) the orbit pipeline still reproduces
  // the full pipeline's values.
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::input_facet({5, 5, 9}, views, arena);
  const core::AsyncParams params{3, 1, 1};
  const topology::SimplicialComplex full =
      core::async_protocol_complex(input, params, views, arena);
  const core::OrbitComplexResult orbit =
      core::async_protocol_complex_orbit(input, params, views, arena);
  expect_orbit_matches_full(full, orbit, views, arena, "async {5,5,9}");
}

// ------------------------------------------------ pinned output digests --

// Fixed-width little-endian words hashed with util::hash_bytes, so a digest
// depends on the construction's output alone, never on the platform.
class Digest {
 public:
  void word(std::int64_t value) {
    const auto bits = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    }
  }
  void simplex(const topology::Simplex& s) {
    word(static_cast<std::int64_t>(s.size()));
    for (const topology::VertexId v : s.vertices()) word(v);
  }
  std::uint64_t value() const {
    return util::hash_bytes(bytes_.data(), bytes_.size());
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Full mode: the facets in order, then every view and every vertex label in
// id order.
std::uint64_t full_digest(const topology::SimplicialComplex& complex,
                          const core::ViewRegistry& views,
                          const topology::VertexArena& arena) {
  Digest d;
  const std::vector<topology::Simplex> facets = complex.facets();
  d.word(static_cast<std::int64_t>(facets.size()));
  for (const topology::Simplex& facet : facets) d.simplex(facet);
  d.word(static_cast<std::int64_t>(views.size()));
  for (std::size_t id = 0; id < views.size(); ++id) {
    const core::View& view = views.view(static_cast<core::StateId>(id));
    d.word(view.pid);
    d.word(view.round);
    d.word(view.input);
    d.word(static_cast<std::int64_t>(view.heard.size()));
    for (const core::HeardEntry& e : view.heard) {
      d.word(e.from);
      d.word(e.state);
      d.word(e.last_micro);
    }
  }
  d.word(static_cast<std::int64_t>(arena.size()));
  for (std::size_t id = 0; id < arena.size(); ++id) {
    d.word(arena.pid(static_cast<topology::VertexId>(id)));
    d.word(arena.state(static_cast<topology::VertexId>(id)));
  }
  return d.value();
}

// Orbit mode: representatives, stabilizers and dominated flags in record
// order, then the full f-vector.
std::uint64_t orbit_digest(const core::OrbitComplexResult& orbit,
                           core::ViewRegistry& views,
                           topology::VertexArena& arena) {
  Digest d;
  d.word(static_cast<std::int64_t>(orbit.orbits.size()));
  for (const core::OrbitRecord& rec : orbit.orbits) {
    d.simplex(rec.rep);
    d.word(rec.stabilizer);
    d.word(rec.dominated ? 1 : 0);
  }
  const std::vector<std::size_t> f =
      core::orbit_full_f_vector(orbit, views, arena);
  d.word(static_cast<std::int64_t>(f.size()));
  for (const std::size_t count : f) d.word(static_cast<std::int64_t>(count));
  return d.value();
}

// Builds from a fresh rainbow input of n1 processes in fresh registries and
// digests the result.
template <typename Build, typename DigestOf>
std::uint64_t digest_of(int n1, Build build, DigestOf digest) {
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::rainbow_input(n1, views, arena);
  const auto result = build(input, views, arena);
  return digest(result, views, arena);
}

TEST(Construction, OutputMatchesPinnedDigests) {
  // The differential tests compare two constructions within one registry;
  // these digests pin the ids themselves across commits. A digest may
  // change only when interning order or the canonical form changes on
  // purpose.
  using Views = core::ViewRegistry;
  using Arena = topology::VertexArena;
  using Input = topology::Simplex;
  EXPECT_EQ(digest_of(3,
                      [](const Input& in, Views& v, Arena& a) {
                        return core::async_protocol_complex(in, {3, 1, 2}, v,
                                                            a);
                      },
                      full_digest),
            0x6146ba6ded965a57ULL)
      << "full async (3,1,2)";
  EXPECT_EQ(digest_of(4,
                      [](const Input& in, Views& v, Arena& a) {
                        return core::sync_protocol_complex(in, {4, 2, 1, 3}, v,
                                                           a);
                      },
                      full_digest),
            0x77e0dbc015a5efc4ULL)
      << "full sync (4,2,1,3)";
  EXPECT_EQ(digest_of(3,
                      [](const Input& in, Views& v, Arena& a) {
                        return core::semisync_protocol_complex(
                            in, {3, 1, 1, 2, 2}, v, a);
                      },
                      full_digest),
            0xf8d26251a39f5779ULL)
      << "full semisync (3,1,1,2,2)";
  EXPECT_EQ(digest_of(3,
                      [](const Input& in, Views& v, Arena& a) {
                        return core::iis_protocol_complex(in, 2, v, a);
                      },
                      full_digest),
            0xaa2139b1e319b2b5ULL)
      << "full iis (3,2)";
  EXPECT_EQ(digest_of(4,
                      [](const Input& in, Views& v, Arena& a) {
                        return core::async_protocol_complex_orbit(
                            in, {4, 1, 2}, v, a);
                      },
                      orbit_digest),
            0x8749994dfc51b8a1ULL)
      << "orbit async (4,1,2)";
  EXPECT_EQ(digest_of(4,
                      [](const Input& in, Views& v, Arena& a) {
                        return core::sync_protocol_complex_orbit(
                            in, {4, 2, 1, 2}, v, a);
                      },
                      orbit_digest),
            0x2b4dad45102b8b69ULL)
      << "orbit sync (4,2,1,2)";
  EXPECT_EQ(digest_of(4,
                      [](const Input& in, Views& v, Arena& a) {
                        return core::semisync_protocol_complex_orbit(
                            in, {4, 1, 1, 2, 2}, v, a);
                      },
                      orbit_digest),
            0x94b8d3d421f7d45dULL)
      << "orbit semisync (4,1,1,2,2)";
  EXPECT_EQ(digest_of(3,
                      [](const Input& in, Views& v, Arena& a) {
                        return core::iis_protocol_complex_orbit(in, 3, v, a);
                      },
                      orbit_digest),
            0xff9678a45b3e2784ULL)
      << "orbit iis (3,3)";
}

// ------------------------------------------------------------ deadline ----

TEST(OrbitDeadlineTest, OneLevelBuildPollsInsideTheLevel) {
  // Orbit async (6,1,1) is a single level: its CONSUME canonicalizes 46,656
  // facets under |G| = 720, seconds of work after the level's opening poll.
  // The per-facet polls must unwind it once the deadline passes. The point
  // must stay slower than the deadline; if canonicalization gets that fast,
  // pick a larger one-level point.
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::rainbow_input(6, views, arena);
  const util::DeadlineScope deadline(std::chrono::steady_clock::now() +
                                     std::chrono::milliseconds(200));
  EXPECT_THROW(
      core::async_protocol_complex_orbit(input, {6, 1, 1}, views, arena),
      util::DeadlineExceeded);
}

}  // namespace
