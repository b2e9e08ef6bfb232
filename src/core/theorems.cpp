#include "core/theorems.h"

#include <sstream>

#include "core/agreement.h"
#include "core/pseudosphere.h"
#include "topology/homology.h"

namespace psph::core {

namespace {

ConnectivityCheck measure(const topology::SimplicialComplex& complex,
                          int expected) {
  ConnectivityCheck check;
  check.expected = expected;
  check.facet_count = complex.facet_count();
  check.vertex_count = complex.vertex_ids().size();
  check.dimension = complex.dimension();
  const int up_to = std::max(expected, 0);
  check.measured = topology::homological_connectivity(complex, up_to);
  if (expected <= -2) {
    check.satisfied = true;
  } else if (expected == -1) {
    check.satisfied = !complex.empty();
  } else {
    check.satisfied = check.measured >= expected;
  }
  return check;
}

std::vector<std::int64_t> value_range(int count) {
  std::vector<std::int64_t> values;
  for (int v = 0; v < count; ++v) values.push_back(v);
  return values;
}

}  // namespace

std::string ConnectivityCheck::to_string() const {
  std::ostringstream out;
  out << "expected>=" << expected << " measured=" << measured
      << (satisfied ? " OK" : " VIOLATION") << " facets=" << facet_count
      << " vertices=" << vertex_count << " dim=" << dimension;
  return out.str();
}

topology::Simplex rainbow_input(int participants, ViewRegistry& views,
                                topology::VertexArena& arena) {
  return input_facet(value_range(participants), views, arena);
}

ConnectivityCheck check_pseudosphere_connectivity(
    const std::vector<int>& value_set_sizes) {
  topology::VertexArena arena;
  std::vector<ProcessId> pids;
  std::vector<std::vector<StateId>> value_sets;
  StateId next_value = 0;
  for (std::size_t i = 0; i < value_set_sizes.size(); ++i) {
    pids.push_back(static_cast<ProcessId>(i));
    std::vector<StateId> values;
    for (int v = 0; v < value_set_sizes[i]; ++v) values.push_back(next_value++);
    value_sets.push_back(std::move(values));
  }
  const topology::SimplicialComplex psi =
      pseudosphere(pids, value_sets, arena);
  const int m = static_cast<int>(value_set_sizes.size()) - 1;
  return measure(psi, m - 1);
}

ConnectivityCheck check_async_connectivity(int num_processes,
                                           int participants, int f, int r,
                                           const ConstructionOptions& options) {
  ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = rainbow_input(participants, views, arena);
  AsyncParams params{num_processes, f, r};
  const int m = participants - 1;
  const int n = num_processes - 1;
  if (options.mode == ConstructionMode::kOrbit) {
    const OrbitComplexResult orbit =
        async_protocol_complex_orbit(input, params, views, arena);
    return measure(reconstitute_full(orbit, views, arena), m - (n - f) - 1);
  }
  const topology::SimplicialComplex complex =
      async_protocol_complex(input, params, views, arena);
  return measure(complex, m - (n - f) - 1);
}

ConnectivityCheck check_sync_connectivity(int num_processes, int participants,
                                          int k, int r,
                                          const ConstructionOptions& options) {
  ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = rainbow_input(participants, views, arena);
  SyncParams params{num_processes, /*total_failures=*/r * k,
                    /*failures_per_round=*/k, r};
  const int m = participants - 1;
  const int n = num_processes - 1;
  if (options.mode == ConstructionMode::kOrbit) {
    const OrbitComplexResult orbit =
        sync_protocol_complex_orbit(input, params, views, arena);
    return measure(reconstitute_full(orbit, views, arena), m - (n - k) - 1);
  }
  const topology::SimplicialComplex complex =
      sync_protocol_complex(input, params, views, arena);
  return measure(complex, m - (n - k) - 1);
}

ConnectivityCheck check_semisync_connectivity(int num_processes,
                                              int participants, int k, int mu,
                                              int r,
                                              const ConstructionOptions&
                                                  options) {
  ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = rainbow_input(participants, views, arena);
  SemiSyncParams params{num_processes, /*total_failures=*/r * k,
                        /*failures_per_round=*/k, mu, r};
  const int m = participants - 1;
  const int n = num_processes - 1;
  if (options.mode == ConstructionMode::kOrbit) {
    const OrbitComplexResult orbit =
        semisync_protocol_complex_orbit(input, params, views, arena);
    return measure(reconstitute_full(orbit, views, arena), m - (n - k) - 1);
  }
  const topology::SimplicialComplex complex =
      semisync_protocol_complex(input, params, views, arena);
  return measure(complex, m - (n - k) - 1);
}

Corollary10Check check_corollary10_async(int num_processes, int f, int k,
                                         int r) {
  Corollary10Check check;
  const int n = num_processes - 1;
  bool all_ok = true;
  for (int m1 = num_processes - f; m1 <= num_processes; ++m1) {
    const int m = m1 - 1;
    Corollary10Check::Level level;
    level.participants = m1;
    level.required = m - (n - k) - 1;
    const ConnectivityCheck conn =
        check_async_connectivity(num_processes, m1, f, r);
    level.measured = conn.measured;
    level.satisfied = level.required <= -2 ||
                      (level.required == -1 && conn.facet_count > 0) ||
                      (level.required >= 0 && conn.measured >= level.required);
    all_ok = all_ok && level.satisfied;
    check.levels.push_back(level);
  }
  check.hypothesis_holds = all_ok;
  return check;
}

namespace {

// Verifies Theorem 5's hypothesis for the one-round asynchronous protocol:
// A¹(S^ℓ) is (ℓ - c - 1)-connected for every face dimension ℓ (with
// c = n - f, this is Lemma 12 at r = 1; we measure it rather than assume
// it). The connectivity of A¹(S^ℓ) depends only on ℓ, so one face per
// dimension suffices.
bool async_hypothesis_holds(int num_processes, int f) {
  const int c = (num_processes - 1) - f;
  for (int l1 = 1; l1 <= num_processes; ++l1) {
    const int l = l1 - 1;
    const ConnectivityCheck face_check =
        check_async_connectivity(num_processes, l1, f, 1);
    const int needed = l - c - 1;
    if (needed <= -2) continue;
    if (needed == -1 && face_check.facet_count == 0) return false;
    if (needed >= 0 && face_check.measured < needed) return false;
  }
  return true;
}

}  // namespace

Theorem5Check check_theorem5_async(
    int num_processes, int f,
    const std::vector<std::vector<std::int64_t>>& per_process_values) {
  Theorem5Check check;
  check.c = (num_processes - 1) - f;
  check.hypothesis_holds = async_hypothesis_holds(num_processes, f);

  ViewRegistry views;
  topology::VertexArena arena;
  const topology::SimplicialComplex inputs =
      input_pseudosphere(per_process_values, views, arena);
  const topology::SimplicialComplex protocol = async_protocol_complex_over(
      inputs, {num_processes, f, 1}, views, arena);
  const int n = num_processes - 1;
  check.conclusion = measure(protocol, n - check.c - 1);
  return check;
}

Theorem5Check check_theorem7_async(
    int num_processes, int f,
    const std::vector<std::vector<std::int64_t>>& families) {
  Theorem5Check check;
  check.c = (num_processes - 1) - f;
  check.hypothesis_holds = async_hypothesis_holds(num_processes, f);

  ViewRegistry views;
  topology::VertexArena arena;
  topology::SimplicialComplex inputs;
  for (const std::vector<std::int64_t>& family : families) {
    inputs.merge(input_complex(num_processes, family, views, arena));
  }
  const topology::SimplicialComplex protocol = async_protocol_complex_over(
      inputs, {num_processes, f, 1}, views, arena);
  const int n = num_processes - 1;
  check.conclusion = measure(protocol, n - check.c - 1);
  return check;
}

bool floodmin_solves_sync(int num_processes, int f, int k, int r) {
  ViewRegistry views;
  topology::VertexArena arena;
  const topology::SimplicialComplex inputs =
      input_complex(num_processes, value_range(k + 1), views, arena);
  SyncParams params{num_processes, f, k, r};
  const topology::SimplicialComplex protocol =
      sync_protocol_complex_over(inputs, params, views, arena);
  const RuleCheckResult result = check_decision_rule(
      protocol, k, min_seen_rule(views), views, arena);
  return result.ok;
}

}  // namespace psph::core
