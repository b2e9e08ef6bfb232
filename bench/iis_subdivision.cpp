// The iterated immediate snapshot model (Related Work / Section 6 remark):
// IIS one-round complexes are chromatic subdivisions with ordered-Bell
// facet counts, contractible, and — with hash-consed views — literally
// subcomplexes of the paper's wait-free asynchronous round complexes. The
// impossibility threshold (k <= n) reproduces via the Sperner argument on
// the single rainbow input.

#include "bench_util.h"
#include "core/async_complex.h"
#include "core/iis_complex.h"
#include "core/theorems.h"
#include "solve/csp.h"
#include "solve/engine.h"
#include "topology/homology.h"
#include "util/timer.h"

int main() {
  using namespace psph;
  bench::Report report(
      "IIS (Borowsky-Gafni)",
      "one-round IIS = chromatic subdivision; IIS^r embeds in wait-free A^r");

  report.header("  n+1  r   facets  ordered-Bell^r  contractible  build");
  for (const auto& [n1, r] : std::vector<std::array<int, 2>>{
           {2, 1}, {3, 1}, {4, 1}, {2, 3}, {3, 2}}) {
    util::Timer timer;
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    const topology::SimplicialComplex iis =
        core::iis_protocol_complex(input, r, views, arena);
    std::uint64_t predicted = 1;
    for (int i = 0; i < r; ++i) predicted *= core::ordered_bell(n1);
    const topology::HomologyReport h =
        topology::reduced_homology(iis, {.max_dim = n1 - 1});
    bool trivial = true;
    for (long long betti : h.reduced_betti) {
      if (betti != 0) trivial = false;
    }
    report.row("  %3d %2d %8zu %15llu  %-11s %s", n1, r, iis.facet_count(),
               static_cast<unsigned long long>(predicted),
               trivial ? "yes" : "NO", timer.pretty().c_str());
    report.check(iis.facet_count() == predicted,
                 "ordered-Bell count at n+1=" + std::to_string(n1) + " r=" +
                     std::to_string(r));
    report.check(trivial, "homologically trivial (subdivision)");
  }

  report.header("  embedding: n+1 r  IIS-facets  A^r-facets  subcomplex?");
  for (const auto& [n1, r] :
       std::vector<std::array<int, 2>>{{2, 1}, {3, 1}, {3, 2}, {4, 1}}) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    const topology::SimplicialComplex iis =
        core::iis_protocol_complex(input, r, views, arena);
    const topology::SimplicialComplex async_wf =
        core::async_protocol_complex(input, {n1, n1 - 1, r}, views, arena);
    const bool embeds = iis.is_subcomplex_of(async_wf);
    report.row("             %3d %d %11zu %11zu  %s", n1, r,
               iis.facet_count(), async_wf.facet_count(),
               embeds ? "yes" : "NO");
    report.check(embeds, "IIS^r subcomplex of wait-free A^r at n+1=" +
                             std::to_string(n1) + " r=" + std::to_string(r));
  }

  report.header("  agreement on IIS^1 (rainbow input, Sperner): n+1 k -> verdict");
  for (const auto& [n1, k, expect_impossible] :
       std::vector<std::array<int, 3>>{{2, 1, 1}, {3, 2, 1}, {3, 3, 0},
                                       {2, 2, 0}}) {
    core::ViewRegistry views;
    topology::VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    const topology::SimplicialComplex protocol =
        core::iis_protocol_complex(input, 1, views, arena);
    const solve::SolveOutcome outcome =
        solve::solve(solve::compile_csp(protocol, k, views, arena));
    const bool impossible = outcome.exhausted && !outcome.solvable;
    report.row("               %3d %2d -> %s (%llu nodes)", n1, k,
               impossible ? "impossible" : "solvable",
               static_cast<unsigned long long>(outcome.stats.nodes));
    report.check(impossible == (expect_impossible == 1),
                 "IIS threshold at n+1=" + std::to_string(n1) + " k=" +
                     std::to_string(k));
  }
  return report.finish();
}
