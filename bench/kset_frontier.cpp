// k-set agreement frontier: for each (processes, failure budget) of a
// model, the least k the solvability engine can decide SOLVABLE — mapped
// by an exhaustive sweep of decide queries over the (p, f, k) grid.
//
// The sweep runs through sweep::SweepEngine, and the per-job compute passes
// the sweep's own ResultStore into solve::decide, so every decided verdict
// is memoized twice over: once as the sweep's sealed job result and once as
// a kDecision record any later decide() — a psph_serve daemon pointed at
// the same --cache-dir, another sweep, a direct call — hits without
// re-deciding. A second run of this binary with the same --cache-dir is
// pure cache hits (the final line prints the hit counts to prove it).
//
// Checked property per (p, f) column: the solvable set is upward closed in
// k — once k-set agreement is solvable, (k+1)-set agreement is too.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "solve/decide.h"
#include "store/serialize.h"
#include "sweep/sweep.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace psph;

  std::string model_name = "async";
  std::string cache_dir;
  int max_processes = 3;
  int rounds = 1;
  int mu = 1;
  int threads = 0;

  util::Cli cli("kset_frontier",
                "Map the k-set-agreement solvability frontier of a model "
                "with cached, sweep-driven decide queries");
  cli.flag_choice("model", &model_name, {"async", "sync", "semisync", "iis"},
                  "timing model");
  cli.flag("cache-dir", &cache_dir,
           "ResultStore root shared with psph_serve / other sweeps "
           "(empty = no caching)");
  cli.flag("n", &max_processes, "largest process count to map");
  cli.flag("r", &rounds, "rounds");
  cli.flag("mu", &mu, "semisync synchrony bound");
  cli.flag("threads", &threads, "worker threads (0 = PSPH_THREADS/default)");
  cli.parse(argc, argv);
  if (threads > 0) util::set_thread_count(threads);

  const solve::Model model = *solve::parse_model(model_name);

  // One job per grid point. The JobSpec key doubles as the sweep's cache
  // key; decide() keys its own kDecision entry independently.
  struct Point {
    solve::DecideRequest request;
  };
  std::vector<Point> points;
  std::vector<sweep::JobSpec> jobs;
  for (int p = 2; p <= max_processes; ++p) {
    const int max_f = model == solve::Model::kIis ? 0 : p - 1;
    for (int f = 0; f <= max_f; ++f) {
      for (int k = 1; k <= p; ++k) {
        solve::DecideRequest request;
        request.model = model;
        request.processes = p;
        request.f = f;
        request.k = k;
        request.mu = model == solve::Model::kSemiSync ? mu : 0;
        request.rounds = rounds;
        points.push_back({solve::normalize(request)});
        sweep::JobSpec job;
        job.kind = "solve/kset_frontier";
        job.params = {static_cast<std::int64_t>(model), p, f, k,
                      points.back().request.mu, rounds,
                      static_cast<std::int64_t>(solve::kDecisionEngineVersion)};
        jobs.push_back(std::move(job));
      }
    }
  }

  sweep::SweepOptions sweep_options;
  sweep_options.cache_dir = cache_dir;
  sweep::SweepEngine sweep_engine(sweep_options);

  util::Timer timer;
  const std::vector<store::DecisionRecord> records =
      sweep::run_sweep<store::DecisionRecord>(
          sweep_engine, jobs,
          [&](const sweep::JobSpec&, std::size_t index) {
            return store::deserialize_decision(solve::decide_sealed(
                points[index].request, {}, sweep_engine.store()));
          },
          store::serialize_decision, store::deserialize_decision);
  const std::string wall = timer.pretty();

  bench::Report report(
      "k-set agreement frontier (" + model_name + ", r=" +
          std::to_string(rounds) + ")",
      "least solvable k per (processes, f); solvability is upward closed "
      "in k");
  report.header("  n+1  f   verdicts by k=1.. (s=solvable, x=impossible)"
                "   min solvable k");
  std::size_t at = 0;
  for (int p = 2; p <= max_processes; ++p) {
    const int max_f = model == solve::Model::kIis ? 0 : p - 1;
    for (int f = 0; f <= max_f; ++f) {
      std::string verdicts;
      int frontier = -1;
      bool upward_closed = true;
      for (int k = 1; k <= p; ++k, ++at) {
        const store::DecisionRecord& record = records[at];
        report.check(record.exhausted,
                     "decide exhausted at p=" + std::to_string(p) +
                         " f=" + std::to_string(f) + " k=" + std::to_string(k));
        verdicts += record.solvable ? 's' : 'x';
        if (record.solvable && frontier < 0) frontier = k;
        if (!record.solvable && frontier >= 0) upward_closed = false;
      }
      report.row("  %3d %2d   %-44s  %s", p, f, verdicts.c_str(),
                 frontier < 0 ? "none" : std::to_string(frontier).c_str());
      report.check(upward_closed,
                   "upward closure at p=" + std::to_string(p) +
                       " f=" + std::to_string(f));
    }
  }

  const sweep::SweepStats& stats = sweep_engine.stats();
  std::printf(
      "sweep: %zu jobs, %zu cache hits, %zu computed, wall %s%s\n",
      stats.jobs, stats.cache_hits, stats.computed, wall.c_str(),
      cache_dir.empty() ? " (uncached; pass --cache-dir to memoize)" : "");
  return report.finish();
}
