// Orbit-quotient construction (DESIGN §5.16): symmetry groups, canonical
// forms, and the differential guarantee — orbit-reduced facet counts,
// f-vectors, and homology must equal the unreduced pipeline's, value for
// value, for every model and every (n, r) the unreduced path can reach.
// Also pins construction output across commits, checks that the f-vector
// and reconstitution read the build's image tables instead of relabeling,
// that orbit-mode connectivity checks equal full-mode ones field for field
// (bounds <= 0 without reconstituting), and that a deadline reaches inside
// a construction level and the orbit component pass.

#include "core/orbit.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/construction.h"
#include "core/iis_complex.h"
#include "core/pseudosphere.h"
#include "core/theorems.h"
#include "obs/obs.h"
#include "topology/homology.h"
#include "util/cancel.h"
#include "util/hash.h"

namespace {

using namespace psph;
using Heard = std::vector<core::HeardEntry>;

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
  std::vector<topology::VertexId> rep;
  std::vector<topology::VertexId> image_rep;
  for (const topology::Simplex& facet : complex.facets()) {
    const std::uint32_t stabilizer = ctx.canonicalize(facet.vertices(), rep);
    // Every group image of the facet canonicalizes to the same rep, and the
    // stabilizer divides the group order (orbit–stabilizer).
    EXPECT_EQ(ctx.group().size() % stabilizer, 0u);
    for (std::size_t gi = 0; gi < ctx.group().size(); ++gi) {
      const topology::Simplex image = ctx.relabel_facet(gi, facet);
      EXPECT_EQ(ctx.canonicalize(image.vertices(), image_rep), stabilizer);
      EXPECT_EQ(image_rep, rep);
    }
  }
}

TEST(OrbitContextTest, RelabelingAViewSurvivesTheRegistryGrowing) {
  // A vector that doubles from 1 holds four views at capacity 4, so the
  // first view the relabeling interns moves every stored view. Relabeling
  // P0's round-2 view interns the image of the round-1 view it heard, a new
  // view, before it builds its own image.
  core::ViewRegistry views;
  topology::VertexArena arena;
  const core::StateId s0 = views.intern_input(0, 0);
  const core::StateId s1 = views.intern_input(1, 1);
  const core::StateId r1 = views.intern_round(
      0, 1, Heard{{0, s0, core::kNoMicro}, {1, s1, core::kNoMicro}});
  const core::StateId r2 =
      views.intern_round(0, 2, Heard{{0, r1, core::kNoMicro}});
  ASSERT_EQ(views.size(), 4u);
  const topology::Simplex input{arena.intern(0, s0), arena.intern(1, s1)};
  const topology::VertexId vertex = arena.intern(0, r2);

  core::OrbitContext ctx(
      core::SymmetryGroup::for_input_facet(input, views, arena), views, arena);
  ASSERT_EQ(ctx.group().size(), 2u);  // the identity and the swap
  const topology::VertexId image = ctx.relabel_vertex(1, vertex);

  const core::StateId r1_image = views.intern_round(
      1, 1, Heard{{1, s1, core::kNoMicro}, {0, s0, core::kNoMicro}});
  EXPECT_EQ(views.size(), 6u);  // r1's image and r2's image are new
  EXPECT_EQ(arena.pid(image), 1);
  const core::View v = views.view(arena.state(image));
  EXPECT_EQ(v.pid, 1);
  EXPECT_EQ(v.round, 2);
  EXPECT_EQ(Heard(v.heard.begin(), v.heard.end()),
            (Heard{{1, r1_image, core::kNoMicro}}));
}

TEST(OrbitContextTest, IdentityGroupFixesEverything) {
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::rainbow_input(3, views, arena);
  core::OrbitContext ctx(core::SymmetryGroup::identity(), views, arena);
  std::vector<topology::VertexId> rep;
  EXPECT_EQ(ctx.canonicalize(input.vertices(), rep), 1u);
  EXPECT_EQ(rep, input.vertices());
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
  // One registry pair, so ids compare: the very same facet set.
  EXPECT_EQ(rebuilt.facets(), full.facets());
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

// The number of completed spans of one name so far (0 if it never ran).
std::uint64_t obs_span_count(const std::string& name) {
  for (const obs::SpanStat& span : obs::snapshot().spans) {
    if (span.name == name) return span.count;
  }
  return 0;
}

TEST(OrbitDifferentialTest, ConnectivityChecksMatchFullModeInEveryField) {
  // Orbit mode answers a bound <= 0 by union-find over the orbit images,
  // without reconstituting the full complex, and a larger bound on the
  // reconstituted complex. Either way every field must equal full mode's,
  // for bounds -1 through 2, including two disconnected points: sync
  // (3,3,1,2) and semisync (3,3,1,2,2) measure -1.
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  core::ConstructionOptions orbit_mode;
  orbit_mode.mode = core::ConstructionMode::kOrbit;
  struct Case {
    std::string model;
    int n1, m1, fk, mu, r;
    int expected;
    bool disconnected = false;
  };
  const Case cases[] = {
      {"async", 3, 2, 1, 0, 1, -1},      {"async", 3, 3, 1, 0, 3, 0},
      {"async", 4, 4, 1, 0, 2, 0},       {"async", 3, 3, 2, 0, 1, 1},
      {"async", 4, 4, 2, 0, 1, 1},       {"async", 4, 4, 3, 0, 1, 2},
      {"sync", 3, 2, 1, 0, 1, -1},       {"sync", 3, 3, 1, 0, 2, 0, true},
      {"sync", 4, 4, 1, 0, 2, 0},        {"sync", 4, 4, 2, 0, 1, 1},
      {"sync", 4, 4, 3, 0, 1, 2},        {"semisync", 3, 2, 1, 2, 1, -1},
      {"semisync", 3, 3, 1, 2, 2, 0, true}, {"semisync", 4, 4, 1, 2, 2, 0},
      {"semisync", 4, 4, 2, 2, 1, 1},    {"semisync", 4, 4, 3, 2, 1, 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.model + " (" + std::to_string(c.n1) + "," +
                 std::to_string(c.m1) + "," + std::to_string(c.fk) + "," +
                 std::to_string(c.mu) + "," + std::to_string(c.r) + ")");
    const auto check = [&c](const core::ConstructionOptions& options) {
      if (c.model == "async") {
        return core::check_async_connectivity(c.n1, c.m1, c.fk, c.r, options);
      }
      if (c.model == "sync") {
        return core::check_sync_connectivity(c.n1, c.m1, c.fk, c.r, options);
      }
      return core::check_semisync_connectivity(c.n1, c.m1, c.fk, c.mu, c.r,
                                               options);
    };
    const core::ConnectivityCheck full = check({});
    const std::uint64_t reconstitutions =
        obs_span_count("construction.orbit_reconstitute");
    const core::ConnectivityCheck orbit = check(orbit_mode);
    EXPECT_EQ(obs_span_count("construction.orbit_reconstitute") -
                  reconstitutions,
              c.expected > 0 ? 1u : 0u);
    EXPECT_EQ(full.expected, c.expected);
    if (c.disconnected) {
      EXPECT_EQ(full.measured, -1);
    }
    EXPECT_EQ(orbit.expected, full.expected);
    EXPECT_EQ(orbit.measured, full.measured);
    EXPECT_EQ(orbit.satisfied, full.satisfied);
    EXPECT_EQ(orbit.facet_count, full.facet_count);
    EXPECT_EQ(orbit.vertex_count, full.vertex_count);
    EXPECT_EQ(orbit.dimension, full.dimension);
    EXPECT_EQ(orbit.to_string(), full.to_string());
  }
  obs::set_enabled(obs_was_enabled);
}

// ------------------------------------------- the build's image tables ----

// The current total of one obs counter (0 if it never fired).
std::uint64_t obs_counter(const std::string& name) {
  for (const obs::CounterStat& counter : obs::snapshot().counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

TEST(OrbitImagesTest, FVectorAndReconstitutionReadTheBuildsTables) {
  // The build relabels every seed under every group element; the f-vector
  // and reconstitution must read those images back, interning no view or
  // vertex and missing no relabel memo.
  const bool obs_was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto expect_no_relabel = [](int n1, const auto& build,
                                    const std::string& label) {
    SCOPED_TRACE(label);
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    const std::uint64_t before_build =
        obs_counter("construction.orbit_relabels");
    const core::OrbitComplexResult orbit = build(input, views, arena);
    const std::size_t views_after_build = views.size();
    const std::size_t arena_after_build = arena.size();
    const std::uint64_t relabels = obs_counter("construction.orbit_relabels");
    EXPECT_GT(relabels, before_build);  // the build's own misses do count
    const std::vector<std::size_t> f =
        core::orbit_full_f_vector(orbit, views, arena);
    const topology::SimplicialComplex full =
        core::reconstitute_full(orbit, views, arena);
    EXPECT_EQ(full.f_vector(), f);
    EXPECT_EQ(views.size(), views_after_build);
    EXPECT_EQ(arena.size(), arena_after_build);
    EXPECT_EQ(obs_counter("construction.orbit_relabels"), relabels);
  };
  expect_no_relabel(
      3,
      [](const topology::Simplex& in, core::ViewRegistry& v,
         topology::VertexArena& a) {
        return core::async_protocol_complex_orbit(in, {3, 1, 3}, v, a);
      },
      "async (3,1,3)");
  expect_no_relabel(
      4,
      [](const topology::Simplex& in, core::ViewRegistry& v,
         topology::VertexArena& a) {
        return core::sync_protocol_complex_orbit(in, {4, 2, 1, 2}, v, a);
      },
      "sync (4,2,1,2)");
  obs::set_enabled(obs_was_enabled);
}

TEST(OrbitImagesTest, ForeignRegistryPairThrows) {
  // The image tables hold ids of the build's registries; any other pair
  // is refused rather than relabelled into.
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::rainbow_input(3, views, arena);
  const core::OrbitComplexResult orbit =
      core::async_protocol_complex_orbit(input, {3, 1, 1}, views, arena);
  core::ViewRegistry other_views;
  topology::VertexArena other_arena;
  EXPECT_THROW(core::orbit_full_f_vector(orbit, other_views, other_arena),
               std::invalid_argument);
  EXPECT_THROW(core::reconstitute_full(orbit, other_views, other_arena),
               std::invalid_argument);
  EXPECT_THROW(core::orbit_full_f_vector(orbit, views, other_arena),
               std::invalid_argument);
  EXPECT_THROW(core::reconstitute_full(orbit, other_views, arena),
               std::invalid_argument);
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
  void simplex(std::span<const topology::VertexId> s) {
    word(static_cast<std::int64_t>(s.size()));
    for (const topology::VertexId v : s) word(v);
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
  for (const topology::Simplex& facet : facets) d.simplex(facet.vertices());
  d.word(static_cast<std::int64_t>(views.size()));
  for (std::size_t id = 0; id < views.size(); ++id) {
    const core::View view = views.view(static_cast<core::StateId>(id));
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

// Full mode, slot order: the facets as for_each_facet visits them, which is
// CONSUME's append order with the removed facets skipped.
std::uint64_t slot_digest(const topology::SimplicialComplex& complex,
                          const core::ViewRegistry&,
                          const topology::VertexArena&) {
  Digest d;
  d.word(static_cast<std::int64_t>(complex.facet_count()));
  complex.for_each_facet(
      [&](std::span<const topology::VertexId> facet) { d.simplex(facet); });
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

// Builds over the input complex of n1 processes and `values` (the path
// solve::decide takes) in fresh registries and digests the result.
template <typename Build, typename DigestOf>
std::uint64_t digest_over(int n1, const std::vector<std::int64_t>& values,
                          Build build, DigestOf digest) {
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::SimplicialComplex inputs =
      core::input_complex(n1, values, views, arena);
  const auto result = build(inputs, views, arena);
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

  // Slot order of the four full-mode points above.
  EXPECT_EQ(digest_of(3,
                      [](const Input& in, Views& v, Arena& a) {
                        return core::async_protocol_complex(in, {3, 1, 2}, v,
                                                            a);
                      },
                      slot_digest),
            0xc4b533abb975f02dULL)
      << "slots async (3,1,2)";
  EXPECT_EQ(digest_of(4,
                      [](const Input& in, Views& v, Arena& a) {
                        return core::sync_protocol_complex(in, {4, 2, 1, 3}, v,
                                                           a);
                      },
                      slot_digest),
            0x72dbd6491c06c920ULL)
      << "slots sync (4,2,1,3)";
  EXPECT_EQ(digest_of(3,
                      [](const Input& in, Views& v, Arena& a) {
                        return core::semisync_protocol_complex(
                            in, {3, 1, 1, 2, 2}, v, a);
                      },
                      slot_digest),
            0x55853e32fa2e660aULL)
      << "slots semisync (3,1,1,2,2)";
  EXPECT_EQ(digest_of(3,
                      [](const Input& in, Views& v, Arena& a) {
                        return core::iis_protocol_complex(in, 2, v, a);
                      },
                      slot_digest),
            0xd38c409567e3695cULL)
      << "slots iis (3,2)";

  // solve::decide's path: builds over an input complex, digested whole and
  // in slot order (compile_csp numbers facets in slot order).
  using Inputs = topology::SimplicialComplex;
  const auto async_over = [](const Inputs& in, Views& v, Arena& a) {
    return core::async_protocol_complex_over(in, {3, 1, 1}, v, a);
  };
  const auto sync_over = [](const Inputs& in, Views& v, Arena& a) {
    return core::sync_protocol_complex_over(in, {4, 2, 1, 2}, v, a);
  };
  const auto semisync_over = [](const Inputs& in, Views& v, Arena& a) {
    return core::semisync_protocol_complex_over(in, {4, 2, 1, 2, 1}, v, a);
  };
  const auto iis_over = [](const Inputs& in, Views& v, Arena& a) {
    return core::iis_protocol_complex_over(in, 2, v, a);
  };
  EXPECT_EQ(digest_over(3, {0, 1, 2}, async_over, full_digest),
            0x035b5ac6b74acb60ULL)
      << "full async (3,1,1) over input_complex(3, {0,1,2})";
  EXPECT_EQ(digest_over(3, {0, 1, 2}, async_over, slot_digest),
            0x4dd9147956e63246ULL)
      << "slots async (3,1,1) over input_complex(3, {0,1,2})";
  EXPECT_EQ(digest_over(4, {0, 1}, sync_over, full_digest),
            0xa53605171f6b2efdULL)
      << "full sync (4,2,1,2) over input_complex(4, {0,1})";
  EXPECT_EQ(digest_over(4, {0, 1}, sync_over, slot_digest),
            0x977131b76c815114ULL)
      << "slots sync (4,2,1,2) over input_complex(4, {0,1})";
  EXPECT_EQ(digest_over(4, {0, 1}, semisync_over, full_digest),
            0x3b91a7ee10d1a016ULL)
      << "full semisync (4,2,1,2,1) over input_complex(4, {0,1})";
  EXPECT_EQ(digest_over(4, {0, 1}, semisync_over, slot_digest),
            0x3aa2cf51f32c45faULL)
      << "slots semisync (4,2,1,2,1) over input_complex(4, {0,1})";
  EXPECT_EQ(digest_over(3, {0, 1}, iis_over, full_digest),
            0x543b6d9f1e993073ULL)
      << "full iis (3,2) over input_complex(3, {0,1})";
  EXPECT_EQ(digest_over(3, {0, 1}, iis_over, slot_digest),
            0xe1d33542c92f21b6ULL)
      << "slots iis (3,2) over input_complex(3, {0,1})";
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

TEST(OrbitDeadlineTest, ComponentPassPollsTheDeadline) {
  // The union-find over the orbit images polls the deadline as it goes:
  // under an expired deadline it throws, and without one it answers.
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::rainbow_input(3, views, arena);
  const core::OrbitComplexResult orbit =
      core::async_protocol_complex_orbit(input, {3, 1, 2}, views, arena);
  {
    const util::DeadlineScope expired(std::chrono::steady_clock::now() -
                                      std::chrono::seconds(1));
    EXPECT_THROW(core::orbit_full_components(orbit, views, arena),
                 util::DeadlineExceeded);
  }
  const topology::ComponentCounter components =
      core::orbit_full_components(orbit, views, arena);
  EXPECT_EQ(components.component_count(), 1u);
  EXPECT_EQ(components.vertex_count(),
            core::reconstitute_full(orbit, views, arena).vertex_ids().size());
}

}  // namespace
