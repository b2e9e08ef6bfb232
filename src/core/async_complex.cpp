#include "core/async_complex.h"

#include <stdexcept>

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
  std::vector<detail::RoundGroup> groups;
  detail::expand_async_round(input, params, views, arena, &groups);
  topology::SimplicialComplex result;
  for (detail::RoundGroup& group : groups) {
    result.add_facets(std::move(group.facets));
  }
  return result;
}

topology::SimplicialComplex async_protocol_complex_seq(
    const topology::Simplex& input, const AsyncParams& params,
    ViewRegistry& views, topology::VertexArena& arena) {
  if (params.rounds < 1) {
    throw std::invalid_argument("async_protocol_complex: rounds < 1");
  }
  topology::SimplicialComplex one_round =
      async_round_complex(input, params, views, arena);
  if (params.rounds == 1) return one_round;

  AsyncParams next = params;
  next.rounds = params.rounds - 1;
  topology::SimplicialComplex result;
  for (const topology::Simplex& facet : one_round.facets()) {
    result.merge(async_protocol_complex_seq(facet, next, views, arena));
  }
  return result;
}

}  // namespace psph::core
