// Theorem 9 (and its Sperner engine): (k-1)-connected protocol complexes
// over every input pseudosphere admit no k-set agreement map. We pair the
// connectivity measurements with solve::decide's verdicts on the same
// instances — connectivity high ⇔ search refutes — and exercise the Sperner
// machinery the proof rests on (panchromatic counts are odd for every
// coloring tried).

#include "bench_util.h"
#include "core/sperner.h"
#include "core/theorems.h"
#include "solve/decide.h"
#include "util/random.h"
#include "util/timer.h"

int main() {
  using namespace psph;
  bench::Report report(
      "Theorem 9",
      "(k-1)-connectivity forbids k-set agreement; Sperner counts are odd");

  report.header(
      "  model    n+1  f  k  r  conn>=k-1?  search-verdict   agree?");
  struct Row {
    const char* model;
    int n1, f, k, r;
  };
  for (const Row& row : std::vector<Row>{
           {"async", 2, 1, 1, 1},
           {"async", 3, 1, 1, 1},
           {"async", 3, 1, 2, 1},
           {"sync", 3, 1, 1, 1},
           {"sync", 3, 1, 1, 2},
       }) {
    const bool is_async = std::string(row.model) == "async";
    const store::DecisionRecord record =
        solve::decide({is_async ? solve::Model::kAsync : solve::Model::kSync,
                       row.n1, row.f, row.k, 0, row.r})
            .record;
    const bool impossible = record.exhausted && !record.solvable;
    const core::ConnectivityCheck conn =
        is_async
            ? core::check_async_connectivity(row.n1, row.n1, row.f, row.r)
            : core::check_sync_connectivity(row.n1, row.n1, row.k, row.r);
    const bool connected_enough = conn.measured >= row.k - 1;
    report.row("  %-8s %3d %2d %2d %2d  %-10s  %-14s  %s", row.model, row.n1,
               row.f, row.k, row.r, connected_enough ? "yes" : "no",
               impossible ? "impossible" : "solvable",
               connected_enough == impossible ? "yes" : "NO");
    // Theorem 9's direction: connectivity implies impossibility.
    if (connected_enough) {
      report.check(impossible, "connectivity implies no decision map (" +
                                   std::string(row.model) + ")");
    }
  }

  report.header("  Sperner: dim rounds  vertices facets  panchromatic (odd)");
  util::Rng rng(90001);
  for (const auto& [dim, rounds] : std::vector<std::array<int, 2>>{
           {1, 1}, {1, 3}, {2, 1}, {2, 2}, {3, 1}}) {
    util::Timer timer;
    core::SpernerInstance instance =
        core::make_subdivided_simplex(dim, rounds);
    bool all_odd = true;
    std::size_t sample_count = 0;
    // The canonical coloring plus several random ones.
    core::color_min_carrier(instance);
    sample_count = core::count_panchromatic(instance);
    if (sample_count % 2 == 0) all_odd = false;
    for (int trial = 0; trial < 20; ++trial) {
      core::color_randomly(instance, rng);
      if (core::count_panchromatic(instance) % 2 == 0) all_odd = false;
    }
    report.row("           %3d %6d %9zu %6zu  %12zu  %s", dim, rounds,
               instance.carriers.size(), instance.complex.facet_count(),
               sample_count, timer.pretty().c_str());
    report.check(all_odd, "all panchromatic counts odd at dim=" +
                              std::to_string(dim) + " rounds=" +
                              std::to_string(rounds));
  }
  return report.finish();
}
