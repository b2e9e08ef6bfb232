// Corollary 13: no asynchronous f-resilient k-set agreement for k <= f —
// decided exhaustively by solve::decide on explicit r-round complexes —
// while k = f + 1 is achievable (witness found, and the min-seen rule
// independently passes). The table shows the threshold sitting exactly at
// k = f + 1.

#include "bench_util.h"
#include "core/agreement.h"
#include "core/async_complex.h"
#include "core/pseudosphere.h"
#include "solve/decide.h"
#include "util/timer.h"

int main() {
  using namespace psph;
  bench::Report report(
      "Corollary 13",
      "async k-set agreement: impossible iff k <= f (exhaustive search)");
  report.header(
      "  n+1  f  k  r   facets vertices      nodes   verdict       decide");

  struct Case {
    int n1, f, k, r;
    bool expect_impossible;
  };
  for (const Case& c : std::vector<Case>{
           {2, 1, 1, 1, true},
           {2, 1, 1, 2, true},
           {3, 1, 1, 1, true},
           {3, 1, 1, 2, true},
           {3, 2, 2, 1, true},  // wait-free 2-set agreement [BG93,HS93,SZ93]
           {3, 1, 2, 1, false},
           {3, 2, 3, 1, false},
           {4, 1, 2, 1, false},
       }) {
    util::Timer timer;
    const solve::DecideResult decided =
        solve::decide({solve::Model::kAsync, c.n1, c.f, c.k, 0, c.r});
    const store::DecisionRecord& record = decided.record;
    const bool impossible = record.exhausted && !record.solvable;
    const char* verdict = impossible         ? "impossible"
                          : record.solvable  ? "solvable"
                                             : "inconclusive";
    report.row("  %3d %2d %2d %2d %8llu %8llu %10llu   %-12s %s", c.n1, c.f,
               c.k, c.r,
               static_cast<unsigned long long>(record.protocol_facets),
               static_cast<unsigned long long>(record.protocol_vertices),
               static_cast<unsigned long long>(decided.stats.nodes), verdict,
               timer.pretty().c_str());
    report.check(record.exhausted, "search exhausted");
    report.check(impossible == c.expect_impossible,
                 "threshold at n+1=" + std::to_string(c.n1) + " f=" +
                     std::to_string(c.f) + " k=" + std::to_string(c.k));
  }

  // The matching upper bound: the min-seen rule solves (f+1)-set agreement
  // on the full one-round complex.
  for (const auto& [n1, f] :
       std::vector<std::array<int, 2>>{{3, 1}, {4, 1}, {4, 2}}) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    std::vector<std::int64_t> values;
    for (int v = 0; v <= f + 1; ++v) values.push_back(v);
    const topology::SimplicialComplex inputs =
        core::input_complex(n1, values, views, arena);
    const topology::SimplicialComplex protocol =
        core::async_protocol_complex_over(inputs, {n1, f, 1}, views, arena);
    const core::RuleCheckResult rule = core::check_decision_rule(
        protocol, f + 1, core::min_seen_rule(views), views, arena);
    report.check(rule.ok, "min rule solves (f+1)-set agreement at n+1=" +
                              std::to_string(n1) + " f=" + std::to_string(f));
  }
  return report.finish();
}
