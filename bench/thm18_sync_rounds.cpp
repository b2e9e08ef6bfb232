// Theorem 18: synchronous f-resilient k-set agreement needs ⌊f/k⌋ + 1
// rounds when n > f + k, and ⌊f/k⌋ rounds when n < f + k (the easier case:
// fewer processes than failures-plus-degree). Three independent
// regenerations of the bound:
//   1. the decision-map search (solve::decide) proves impossibility at
//      r = ⌊f/k⌋ on small instances and finds a witness at r = ⌊f/k⌋ + 1;
//   2. the FloodMin rule fails below the bound and succeeds at it on the
//      full constructed complex;
//   3. the FloodSet protocol, run through the simulator against random
//      adversaries, never violates k-agreement at the bound.

#include "bench_util.h"
#include "check/soak.h"
#include "core/theorems.h"
#include "protocols/floodset.h"
#include "solve/decide.h"
#include "util/cli.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace psph;

  std::int64_t seed = 180000;
  std::string schedule_out, schedule_in;
  util::Cli cli("thm18_sync_rounds",
                "sync k-set agreement takes exactly floor(f/k)+1 rounds");
  cli.flag("seed", &seed, "base seed for the protocol soaks");
  cli.flag("schedule-out", &schedule_out,
           "record one FloodSet adversary schedule to this file");
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
      "Theorem 18",
      "sync k-set agreement takes exactly floor(f/k)+1 rounds");

  report.header(
      "  search: n+1  f  k  r    facets      nodes   verdict     decide");
  struct Case {
    int n1, f, k, r;
    bool expect_impossible;
  };
  for (const Case& c : std::vector<Case>{
           {3, 1, 1, 1, true},    // n >= f+k, r = floor(f/k): impossible
           {3, 1, 1, 2, false},   // r = floor(f/k)+1: solvable
           {4, 1, 1, 1, true},
           {4, 1, 1, 2, false},
           {4, 2, 2, 1, false},   // n = 3 < f+k = 4: floor(f/k) rounds do
           {4, 2, 2, 2, false},   //   suffice (Theorem 18, second case)
       }) {
    util::Timer timer;
    const solve::DecideResult decided =
        solve::decide({solve::Model::kSync, c.n1, c.f, c.k, 0, c.r});
    const store::DecisionRecord& record = decided.record;
    const bool impossible = record.exhausted && !record.solvable;
    const char* verdict = impossible        ? "impossible"
                          : record.solvable ? "solvable"
                                            : "inconclusive";
    report.row("          %3d %2d %2d %2d %9llu %10llu   %-10s %s", c.n1, c.f,
               c.k, c.r,
               static_cast<unsigned long long>(record.protocol_facets),
               static_cast<unsigned long long>(decided.stats.nodes), verdict,
               timer.pretty().c_str());
    report.check(record.exhausted && impossible == c.expect_impossible,
                 "search verdict at n+1=" + std::to_string(c.n1) + " f=" +
                     std::to_string(c.f) + " k=" + std::to_string(c.k) +
                     " r=" + std::to_string(c.r));
  }

  report.header("  FloodMin on the complex: n+1  f  k case  rounds -> ok?");
  for (const auto& [n1, f, k] : std::vector<std::array<int, 3>>{
           {3, 1, 1}, {4, 1, 1}, {4, 2, 2}, {3, 2, 2}, {4, 2, 1}}) {
    const int n = n1 - 1;
    // n >= f + k: the hard case, floor(f/k)+1 rounds needed; n < f + k:
    // floor(f/k) rounds suffice (Theorem 18's case split).
    const bool hard_case = n >= f + k;
    const int bound = f / k + (hard_case ? 1 : 0);
    const bool below =
        bound >= 2 ? core::floodmin_solves_sync(n1, f, k, bound - 1) : false;
    const bool at = core::floodmin_solves_sync(n1, f, k, bound);
    report.row("                 %3d %2d %2d %-6s %d->%-3s %d->%s", n1, f, k,
               hard_case ? "hard" : "easy", bound - 1,
               bound >= 2 ? (below ? "ok" : "fail") : "n/a", bound,
               at ? "ok" : "fail");
    if (bound >= 2) {
      report.check(!below, "FloodMin fails below the bound (n+1=" +
                               std::to_string(n1) + " f=" +
                               std::to_string(f) + " k=" + std::to_string(k) +
                               ")");
    }
    report.check(at, "FloodMin succeeds at the bound (n+1=" +
                         std::to_string(n1) + " f=" + std::to_string(f) +
                         " k=" + std::to_string(k) + ")");
  }

  report.header("  protocol soak: n+1  f  k rounds executions -> ok?");
  for (const auto& [n1, f, k] : std::vector<std::array<int, 3>>{
           {3, 1, 1}, {4, 2, 1}, {4, 2, 2}, {5, 3, 2}, {6, 4, 2}}) {
    util::Timer timer;
    const protocols::FloodSetConfig config{n1, f, k};
    const protocols::AgreementAudit result = protocols::soak_floodset(
        config, static_cast<std::uint64_t>(seed) + n1, 400);
    report.row("               %3d %2d %2d %6d %10d -> %s (%s)", n1, f, k,
               protocols::floodset_rounds(config), 400,
               result.ok() ? "ok" : result.failure.c_str(),
               timer.pretty().c_str());
    report.check(result.ok(), "soak at n+1=" + std::to_string(n1) + " f=" +
                                  std::to_string(f) + " k=" +
                                  std::to_string(k));
  }

  if (!schedule_out.empty()) {
    check::RunSpec spec;
    spec.protocol = check::ProtocolKind::kFloodSet;
    spec.n = 4;
    spec.f = 2;
    spec.k = 1;
    spec.seed = static_cast<std::uint64_t>(seed);
    check::save_schedule(schedule_out, check::run_recorded(spec).schedule);
    std::printf("recorded schedule -> %s\n", schedule_out.c_str());
  }
  return report.finish();
}
