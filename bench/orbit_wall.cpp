// Beyond-the-(n, r)-wall driver: builds one protocol complex through either
// the full level loop or the symmetry-reduced orbit pipeline (DESIGN §5.16).
// Prints the exact full-complex facet count and f-vector either way; with
// --verify-full the full pipeline runs too and the numbers must agree bit
// for bit (exit 1 otherwise) — in orbit mode, also those of the complex
// reconstitute_full rebuilds from the orbit data. With --json-out a
// machine-readable record (parameters, timings, counters, build context) is
// written for the experiment logs; --stats / --trace-out report the obs
// spans (build phases, f-vector, reconstitution).
//
// The point of the binary: datapoints whose *full* complex no longer fits in
// bench time or RAM stay reachable under --mode=orbit.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/construction.h"
#include "core/iis_complex.h"
#include "core/theorems.h"
#include "util/cli.h"
#include "util/timer.h"

namespace {

using namespace psph;

std::string fvec_string(const std::vector<std::size_t>& fvec) {
  std::string out = "[";
  for (std::size_t d = 0; d < fvec.size(); ++d) {
    if (d > 0) out += ", ";
    out += std::to_string(fvec[d]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  std::string model = "async";
  std::string mode = "orbit";
  int n1 = 4;
  int m1 = 0;  // 0 = same as --n
  int f = 1;
  int k = 1;
  int mu = 2;
  int rounds = 2;
  bool verify_full = false;
  std::string json_out;
  bench::ObsOptions obs_options;

  util::Cli cli("orbit_wall",
                "Build one protocol complex past the (n, r) wall via the "
                "symmetry-reduced pipeline");
  cli.flag_choice("model", &model, {"async", "sync", "semisync", "iis"},
                  "timing model");
  cli.flag_choice("mode", &mode, {"full", "orbit"}, "construction backend");
  cli.flag("n", &n1, "processes n+1");
  cli.flag("m", &m1, "participants m+1 (0 = same as --n)");
  cli.flag("f", &f, "async failure budget");
  cli.flag("k", &k, "per-round failure cap (sync/semisync)");
  cli.flag("mu", &mu, "semisync micro-round spacing");
  cli.flag("r", &rounds, "rounds");
  cli.flag("verify-full", &verify_full,
           "also run the full pipeline and require identical counts");
  cli.flag("json-out", &json_out, "write a JSON record of the run here");
  bench::add_obs_flags(cli, &obs_options);
  cli.parse(argc, argv);
  if (m1 <= 0) m1 = n1;
  if (m1 > n1) {
    std::fprintf(stderr, "--m must be <= --n\n");
    return 2;
  }

  bench::Report report("orbit_wall",
                       "orbit-reduced construction reproduces the full "
                       "complex's counts exactly");
  std::printf("model=%s mode=%s n+1=%d m+1=%d f=%d k=%d mu=%d r=%d "
              "build=%s\n",
              model.c_str(), mode.c_str(), n1, m1, f, k, mu, rounds,
              bench::build_type());

  const core::AsyncParams async_params{n1, f, rounds};
  const core::SyncParams sync_params{n1, rounds * k, k, rounds};
  const core::SemiSyncParams semisync_params{n1, rounds * k, k, mu, rounds};
  // The full pipeline over a fresh rainbow input in its own registries.
  const auto build_full = [&](core::ViewRegistry& views,
                              topology::VertexArena& arena) {
    const topology::Simplex input = core::rainbow_input(m1, views, arena);
    if (model == "async") {
      return core::async_protocol_complex(input, async_params, views, arena);
    }
    if (model == "sync") {
      return core::sync_protocol_complex(input, sync_params, views, arena);
    }
    if (model == "semisync") {
      return core::semisync_protocol_complex(input, semisync_params, views,
                                             arena);
    }
    return core::iis_protocol_complex(input, rounds, views, arena);
  };

  core::ViewRegistry views;
  topology::VertexArena arena;

  std::uint64_t full_facets = 0;
  std::vector<std::size_t> fvec;
  std::uint64_t group_order = 1;
  std::uint64_t orbit_reps = 0;
  std::uint64_t dominated = 0;
  std::uint64_t reduced_facets = 0;
  double build_seconds = 0;
  double fvector_seconds = 0;
  // Orbit mode with --verify-full: the reconstituted complex's counts.
  std::uint64_t rebuilt_facets = 0;
  std::vector<std::size_t> rebuilt_fvec;
  double reconstitute_seconds = 0;

  if (mode == "orbit") {
    const topology::Simplex input = core::rainbow_input(m1, views, arena);
    util::Timer build_timer;
    core::OrbitComplexResult result = [&] {
      if (model == "async") {
        return core::async_protocol_complex_orbit(input, async_params, views,
                                                  arena);
      }
      if (model == "sync") {
        return core::sync_protocol_complex_orbit(input, sync_params, views,
                                                 arena);
      }
      if (model == "semisync") {
        return core::semisync_protocol_complex_orbit(input, semisync_params,
                                                     views, arena);
      }
      return core::iis_protocol_complex_orbit(input, rounds, views, arena);
    }();
    build_seconds = build_timer.seconds();
    group_order = result.group.size();
    orbit_reps = result.orbits.size();
    for (const core::OrbitRecord& rec : result.orbits) {
      if (rec.dominated) ++dominated;
    }
    reduced_facets = result.reduced.facet_count();
    full_facets = result.full_facet_count;
    util::Timer fvec_timer;
    fvec = core::orbit_full_f_vector(result, views, arena);
    fvector_seconds = fvec_timer.seconds();
    if (verify_full) {
      util::Timer reconstitute_timer;
      const topology::SimplicialComplex rebuilt =
          core::reconstitute_full(result, views, arena);
      reconstitute_seconds = reconstitute_timer.seconds();
      rebuilt_facets = rebuilt.facet_count();
      rebuilt_fvec = rebuilt.f_vector();
    }
    std::printf("group order %" PRIu64 ", %" PRIu64 " orbit reps (%" PRIu64
                " dominated), reduced facets %" PRIu64 "\n",
                group_order, orbit_reps, dominated, reduced_facets);
  } else {
    util::Timer build_timer;
    const topology::SimplicialComplex complex = build_full(views, arena);
    build_seconds = build_timer.seconds();
    full_facets = complex.facet_count();
    fvec = complex.f_vector();
  }

  std::printf("full facets %" PRIu64 ", f-vector %s\n", full_facets,
              fvec_string(fvec).c_str());
  std::printf("build %.3fs", build_seconds);
  if (mode == "orbit") std::printf(", f-vector %.3fs", fvector_seconds);
  std::printf("\n");

  double verify_seconds = 0;
  if (verify_full) {
    core::ViewRegistry full_views;
    topology::VertexArena full_arena;
    util::Timer verify_timer;
    const topology::SimplicialComplex complex =
        build_full(full_views, full_arena);
    verify_seconds = verify_timer.seconds();
    report.check(complex.facet_count() == full_facets,
                 "facet count matches the full pipeline (" +
                     std::to_string(complex.facet_count()) + " vs " +
                     std::to_string(full_facets) + ")");
    report.check(complex.f_vector() == fvec,
                 "f-vector matches the full pipeline (" +
                     fvec_string(complex.f_vector()) + " vs " +
                     fvec_string(fvec) + ")");
    std::printf("verify (full pipeline) %.3fs\n", verify_seconds);
    if (mode == "orbit") {
      report.check(rebuilt_facets == complex.facet_count(),
                   "reconstituted facet count matches the full pipeline (" +
                       std::to_string(rebuilt_facets) + ")");
      report.check(rebuilt_fvec == complex.f_vector(),
                   "reconstituted f-vector matches the full pipeline (" +
                       fvec_string(rebuilt_fvec) + ")");
      std::printf("reconstitute %.3fs\n", reconstitute_seconds);
    }
  }

  if (!json_out.empty()) {
    std::FILE* out = std::fopen(json_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"context\": {");
    bool first = true;
    for (const auto& [key, value] : bench::bench_context()) {
      // Context values are build-type names and small integers — nothing
      // that needs JSON escaping.
      std::fprintf(out, "%s\n    \"%s\": \"%s\"", first ? "" : ",",
                   key.c_str(), value.c_str());
      first = false;
    }
    std::fprintf(out, "\n  },\n");
    std::fprintf(out,
                 "  \"model\": \"%s\",\n  \"mode\": \"%s\",\n"
                 "  \"n\": %d,\n  \"m\": %d,\n  \"f\": %d,\n  \"k\": %d,\n"
                 "  \"mu\": %d,\n  \"rounds\": %d,\n",
                 model.c_str(), mode.c_str(), n1, m1, f, k, mu, rounds);
    std::fprintf(out,
                 "  \"full_facets\": %" PRIu64 ",\n  \"group_order\": %" PRIu64
                 ",\n  \"orbit_reps\": %" PRIu64
                 ",\n  \"dominated_reps\": %" PRIu64
                 ",\n  \"reduced_facets\": %" PRIu64 ",\n",
                 full_facets, group_order, orbit_reps, dominated,
                 reduced_facets);
    std::fprintf(out, "  \"f_vector\": %s,\n", fvec_string(fvec).c_str());
    std::fprintf(out,
                 "  \"build_seconds\": %.6f,\n  \"fvector_seconds\": %.6f,\n"
                 "  \"reconstitute_s\": %.6f,\n"
                 "  \"verify_seconds\": %.6f\n}\n",
                 build_seconds, fvector_seconds, reconstitute_seconds,
                 verify_seconds);
    std::fclose(out);
    std::printf("json -> %s\n", json_out.c_str());
  }

  const int obs_exit = bench::finish_obs(obs_options);
  const int exit_code = report.finish();
  return exit_code != 0 ? exit_code : obs_exit;
}
