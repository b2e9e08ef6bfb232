#include "core/async_complex.h"

#include <algorithm>

#include "core/round_ops.h"
#include "math/combinatorics.h"

namespace psph::core {

std::uint64_t async_round_facet_count(int participants, int num_processes,
                                      int max_failures) {
  const int m = participants - 1;          // others per process
  const int need = num_processes - 1 - max_failures;  // n - f others required
  if (participants < num_processes - max_failures) return 0;
  std::uint64_t per_process = 0;
  for (int j = std::max(need, 0); j <= m; ++j) {
    per_process += math::binomial(m, j);
  }
  std::uint64_t total = 1;
  for (int i = 0; i < participants; ++i) total *= per_process;
  return total;
}

topology::SimplicialComplex async_round_complex(
    const topology::Simplex& input, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena) {
  detail::ExpandScratch scratch;
  detail::RoundOutput out;
  detail::expand_async_round(input.vertices(), params, views, arena, scratch,
                             &out);
  topology::SimplicialComplex result;
  for (const detail::RoundGroup& group : out.groups) {
    result.add_facets(out.facets.rows(group.first, group.last));
  }
  return result;
}

}  // namespace psph::core
