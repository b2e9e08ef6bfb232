// Ablation: the solvability engine's two stages on identical instances —
// the node, nogood and time columns show which machinery is load-bearing.
//
// kLearn (the production stage) runs on the instance with its input
// symmetry group lowered into the CSP, as solve::decide builds it.
// kPropagate runs without learning on a symmetry-free build of the same
// complex. Both report the canonical (lex-min) witness, so the verdict AND
// the witness must match; the build columns show what the symmetry
// lowering costs, the nodes and nogoods what learning saves.

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "solve/decide.h"
#include "solve/engine.h"
#include "util/timer.h"

int main() {
  using namespace psph;
  using solve::Model;
  bench::Report report(
      "Ablation: solvability engine stages",
      "learn + symmetry vs propagate without either; same verdict and "
      "canonical witness");
  report.header(
      "  model     n+1  f  k  r | learn: build   nodes nogoods  search  | "
      "propagate: build   nodes  search  | same?");

  const std::vector<solve::DecideRequest> cases{
      {Model::kAsync, 2, 1, 1, 0, 1},
      {Model::kAsync, 3, 1, 1, 0, 1},
      {Model::kAsync, 3, 1, 2, 0, 1},
      {Model::kAsync, 3, 2, 2, 0, 1},  // wait-free 2-set agreement
      {Model::kAsync, 3, 2, 3, 0, 1},
      {Model::kSync, 3, 1, 1, 0, 1},
      {Model::kSync, 3, 1, 1, 0, 2},
      {Model::kSync, 4, 1, 1, 0, 1},
      {Model::kIis, 3, 0, 2, 0, 1},  // beyond the seed backtracker's reach
  };
  for (const solve::DecideRequest& request : cases) {
    util::Timer learn_build_timer;
    const std::unique_ptr<solve::Instance> symmetric =
        solve::build_instance(request, /*with_symmetry=*/true);
    const std::string learn_build = learn_build_timer.pretty();
    util::Timer learn_timer;
    const solve::SolveOutcome learn = solve::solve(symmetric->problem);
    const std::string learn_time = learn_timer.pretty();

    util::Timer propagate_build_timer;
    const std::unique_ptr<solve::Instance> plain =
        solve::build_instance(request, /*with_symmetry=*/false);
    const std::string propagate_build = propagate_build_timer.pretty();
    solve::EngineOptions propagate_options;
    propagate_options.stage = solve::EngineStage::kPropagate;
    util::Timer propagate_timer;
    const solve::SolveOutcome propagate =
        solve::solve(plain->problem, propagate_options);
    const std::string propagate_time = propagate_timer.pretty();

    const bool same = learn.exhausted && propagate.exhausted &&
                      learn.solvable == propagate.solvable &&
                      symmetric->problem.vertex_ids ==
                          plain->problem.vertex_ids &&
                      learn.witness == propagate.witness;
    report.row(
        "  %-8s %4d %2d %2d %2d | %-10s %7llu %7llu  %-7s | %-15s %7llu  "
        "%-7s | %s",
        solve::model_name(request.model), request.processes, request.f,
        request.k, request.rounds, learn_build.c_str(),
        static_cast<unsigned long long>(learn.stats.nodes),
        static_cast<unsigned long long>(learn.stats.learned_nogoods),
        learn_time.c_str(), propagate_build.c_str(),
        static_cast<unsigned long long>(propagate.stats.nodes),
        propagate_time.c_str(), same ? "yes" : "NO");
    report.check(learn.exhausted && propagate.exhausted,
                 "both stages exhausted");
    report.check(same, "same verdict and canonical witness");
  }
  return report.finish();
}
