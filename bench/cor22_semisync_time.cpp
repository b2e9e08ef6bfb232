// Corollary 22: wait-free semi-synchronous k-set agreement requires time
// ⌊f/k⌋·d + C·d. Two regenerations:
//   1. the round-structure core — k-set agreement is impossible on the
//      r-round complex M^r while n >= (r+1)k (solve::decide on a small
//      instance);
//   2. the timed simulator — the FloodMin-over-timeouts protocol is run
//      under the slowest-execution adversary across sweeps of f/k (with d
//      fixed) and of C (= c2/c1); measured decision times always dominate
//      the bound and scale the same way (columns: bound vs measured).

#include "bench_util.h"
#include "check/soak.h"
#include "protocols/semisync_kset.h"
#include "solve/decide.h"
#include "util/cli.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace psph;

  std::int64_t seed = 2200;
  std::string schedule_out, schedule_in;
  util::Cli cli("cor22_semisync_time",
                "wait-free semi-sync k-set agreement takes time >= "
                "floor(f/k) d + C d");
  cli.flag("seed", &seed, "base seed for the crash soaks");
  cli.flag("schedule-out", &schedule_out,
           "record one semi-sync adversary schedule to this file");
  cli.flag("schedule-in", &schedule_in,
           "replay a recorded schedule under the monitors and exit");
  cli.parse(argc, argv);

  if (!schedule_in.empty()) {
    const check::RunOutcome outcome =
        check::replay_schedule(check::load_schedule(schedule_in));
    std::printf("replayed %s: %s\n", outcome.schedule.summary().c_str(),
                outcome.ok() ? "ok" : outcome.violations.front().detail.c_str());
    return outcome.ok() ? 0 : 1;
  }

  bench::Report report(
      "Corollary 22",
      "wait-free semi-sync k-set agreement takes time >= floor(f/k) d + C d");

  report.header("  complex core: n+1 f k mu r -> verdict");
  {
    util::Timer timer;
    const solve::DecideResult decided =
        solve::decide({solve::Model::kSemiSync, 3, 1, 1, 2, 1});
    const bool impossible =
        decided.record.exhausted && !decided.record.solvable;
    report.row("                 3  1 1  2 1 -> %s (%llu nodes, %s)",
               impossible ? "impossible" : "UNEXPECTED",
               static_cast<unsigned long long>(decided.stats.nodes),
               timer.pretty().c_str());
    report.check(impossible,
                 "one-round semi-sync consensus impossible at n+1=3");
  }

  report.header(
      "  timing sweep (d=30, c1=1): f  k  C   bound  measured  ratio");
  for (const auto& [f, k, c2] : std::vector<std::array<int, 3>>{
           {1, 1, 1}, {1, 1, 2}, {1, 1, 4}, {1, 1, 8},
           {2, 1, 2}, {3, 1, 2}, {4, 1, 2},
           {2, 2, 2}, {4, 2, 2}, {6, 2, 2}}) {
    protocols::SemiSyncKSetConfig config;
    config.timing = {.c1 = 1,
                     .c2 = static_cast<sim::Time>(c2),
                     .d = 30,
                     .num_processes = f + 2,
                     .max_time = 100'000'000};
    config.max_failures = f;
    config.k = k;
    sim::ScriptedSemiSyncAdversary slowest(config.timing.c2, config.timing.d);
    std::vector<std::int64_t> inputs;
    for (int p = 0; p < config.timing.num_processes; ++p) inputs.push_back(p);
    const sim::SemiSyncResult result = sim::run_semisync(
        inputs, config.timing, protocols::make_semisync_kset(config),
        slowest);
    const protocols::SemiSyncAudit audit =
        protocols::audit_semisync(result, inputs, k);
    const double c_ratio = static_cast<double>(c2);
    const double bound = (f / k) * 30.0 + c_ratio * 30.0;
    const double measured = static_cast<double>(audit.last_decision_time);
    report.row("            %24d %2d %2.0f %7.0f %9.0f %6.2f", f, k, c_ratio,
               bound, measured, measured / bound);
    report.check(audit.ok(), "protocol correct under slowest adversary");
    report.check(measured >= bound,
                 "measured time dominates the Cor 22 bound at f=" +
                     std::to_string(f) + " k=" + std::to_string(k) + " C=" +
                     std::to_string(c2));
  }

  report.header("  crash soak (random adversaries): n+1 f k -> ok?");
  for (const auto& [n1, f, k] : std::vector<std::array<int, 3>>{
           {3, 1, 1}, {4, 2, 1}, {4, 2, 2}, {5, 3, 2}}) {
    util::Timer timer;
    protocols::SemiSyncKSetConfig config;
    config.timing = {.c1 = 1, .c2 = 2, .d = 5, .num_processes = n1};
    config.max_failures = f;
    config.k = k;
    const protocols::SemiSyncAudit audit = protocols::soak_semisync_kset(
        config, static_cast<std::uint64_t>(seed) + n1, 200);
    report.row("                            %3d %2d %2d -> %s (%s)", n1, f, k,
               audit.ok() ? "ok" : audit.failure.c_str(),
               timer.pretty().c_str());
    report.check(audit.ok(), "soak at n+1=" + std::to_string(n1));
  }

  if (!schedule_out.empty()) {
    check::RunSpec spec;
    spec.protocol = check::ProtocolKind::kSemiSyncKSet;
    spec.n = 4;
    spec.f = 2;
    spec.k = 1;
    spec.c1 = 1;
    spec.c2 = 2;
    spec.d = 5;
    spec.seed = static_cast<std::uint64_t>(seed);
    check::save_schedule(schedule_out, check::run_recorded(spec).schedule);
    std::printf("recorded schedule -> %s\n", schedule_out.c_str());
  }
  return report.finish();
}
