// Impossibility explorer: pick a timing model and parameters; the tool
// builds the r-round protocol complex over the full input complex, measures
// its connectivity, decides with solve::decide (exhaustive search), and
// reports whether k-set agreement is solvable on that instance.
//
//   ./impossibility_explorer --model async --n 3 --f 1 --k 1 --r 1
//   ./impossibility_explorer --model sync  --n 3 --f 1 --k 1 --r 2
//   ./impossibility_explorer --model semisync --n 3 --f 1 --k 1 --mu 2

#include <cstdio>
#include <string>

#include "core/theorems.h"
#include "solve/decide.h"
#include "util/cli.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace psph;

  std::string model = "async";
  int n = 3, f = 1, k = 1, r = 1, mu = 2;
  std::int64_t node_limit = 200'000'000;
  util::Cli cli("impossibility_explorer",
                "decide k-set agreement on an explicit protocol complex");
  cli.flag("model", &model, "async | sync | semisync");
  cli.flag("n", &n, "number of processes");
  cli.flag("f", &f, "failure budget");
  cli.flag("k", &k, "agreement degree (k-set agreement)");
  cli.flag("r", &r, "rounds");
  cli.flag("mu", &mu, "microrounds per round (semisync only)");
  cli.flag("node-limit", &node_limit, "search node limit (0 = unlimited)");
  cli.parse(argc, argv);

  util::Timer timer;
  solve::EngineOptions options;
  options.node_limit = static_cast<std::uint64_t>(node_limit);

  solve::DecideRequest request{solve::Model::kAsync, n, f, k, 0, r};
  core::ConnectivityCheck connectivity;
  if (model == "async") {
    connectivity = core::check_async_connectivity(n, n, f, r);
  } else if (model == "sync") {
    request.model = solve::Model::kSync;
    connectivity = core::check_sync_connectivity(n, n, k, r);
  } else if (model == "semisync") {
    request.model = solve::Model::kSemiSync;
    request.mu = mu;
    connectivity = core::check_semisync_connectivity(n, n, k, mu, r);
  } else {
    std::fprintf(stderr, "unknown model '%s'\n", model.c_str());
    return 2;
  }
  const solve::DecideResult decided = solve::decide(request, options);
  const store::DecisionRecord& record = decided.record;

  std::printf("model=%s n=%d f=%d k=%d r=%d%s\n", model.c_str(), n, f, k, r,
              model == "semisync" ? (" mu=" + std::to_string(mu)).c_str()
                                  : "");
  std::printf("protocol complex: %llu facets, %llu vertices\n",
              static_cast<unsigned long long>(record.protocol_facets),
              static_cast<unsigned long long>(record.protocol_vertices));
  std::printf("homological connectivity (rainbow input): %d\n",
              connectivity.measured);
  std::printf("search: %llu nodes, %s\n",
              static_cast<unsigned long long>(decided.stats.nodes),
              record.exhausted ? "exhausted" : "node limit hit");
  if (record.exhausted && !record.solvable) {
    std::printf("verdict: IMPOSSIBLE — no decision map exists for %d-set "
                "agreement on this complex (exhaustively proven)\n",
                k);
  } else if (record.solvable) {
    std::printf("verdict: SOLVABLE — a decision map exists\n");
  } else {
    std::printf("verdict: inconclusive (raise --node-limit)\n");
  }
  std::printf("elapsed: %s\n", timer.pretty().c_str());
  return 0;
}
