#include "serve/queries.h"

#include "core/construction.h"
#include "core/pseudosphere.h"
#include "core/theorems.h"
#include "solve/decide.h"
#include "store/serialize.h"
#include "topology/homology.h"
#include "util/cancel.h"

namespace psph::serve {

namespace {

/// Runs the symmetry-reduced pipeline for a timing-model query (DESIGN
/// §5.16). Only reachable when normalize() kept construction == "orbit",
/// which excludes pseudospheres.
core::OrbitComplexResult build_orbit_result(const Query& q,
                                            core::ViewRegistry& views,
                                            topology::VertexArena& arena) {
  core::ConstructionCache cache;
  const topology::Simplex input =
      core::rainbow_input(q.participants, views, arena);
  if (q.model == "async") {
    core::AsyncParams params{q.processes, q.f, q.rounds};
    return core::async_protocol_complex_orbit(input, params, views, arena,
                                              cache);
  }
  if (q.model == "sync") {
    core::SyncParams params{q.processes, /*total_failures=*/q.rounds * q.k,
                            /*failures_per_round=*/q.k, q.rounds};
    return core::sync_protocol_complex_orbit(input, params, views, arena,
                                             cache);
  }
  core::SemiSyncParams params{q.processes, /*total_failures=*/q.rounds * q.k,
                              /*failures_per_round=*/q.k, q.mu, q.rounds};
  return core::semisync_protocol_complex_orbit(input, params, views, arena,
                                               cache);
}

/// Builds the complex a connectivity check of the same parameters measures
/// — the identical construction path theorems.cpp uses, so homology and
/// complex_stats queries describe the same object the checks certify.
topology::SimplicialComplex build_model_complex(const Query& q,
                                                core::ViewRegistry& views,
                                                topology::VertexArena& arena) {
  if (q.model == "pseudosphere") {
    std::vector<core::ProcessId> pids;
    std::vector<std::vector<core::StateId>> value_sets;
    core::StateId next_value = 0;
    for (std::size_t i = 0; i < q.sizes.size(); ++i) {
      pids.push_back(static_cast<core::ProcessId>(i));
      std::vector<core::StateId> values;
      for (int v = 0; v < q.sizes[i]; ++v) values.push_back(next_value++);
      value_sets.push_back(std::move(values));
    }
    return core::pseudosphere(pids, value_sets, arena);
  }
  const topology::Simplex input =
      core::rainbow_input(q.participants, views, arena);
  if (q.model == "async") {
    core::AsyncParams params{q.processes, q.f, q.rounds};
    return core::async_protocol_complex(input, params, views, arena);
  }
  if (q.model == "sync") {
    core::SyncParams params{q.processes, /*total_failures=*/q.rounds * q.k,
                            /*failures_per_round=*/q.k, q.rounds};
    return core::sync_protocol_complex(input, params, views, arena);
  }
  core::SemiSyncParams params{q.processes, /*total_failures=*/q.rounds * q.k,
                              /*failures_per_round=*/q.k, q.mu, q.rounds};
  return core::semisync_protocol_complex(input, params, views, arena);
}

std::vector<std::uint8_t> compute_connectivity(const Query& q) {
  core::ConnectivityCheck check;
  if (q.model == "pseudosphere") {
    check = core::check_pseudosphere_connectivity(q.sizes);
  } else if (q.model == "async") {
    check = core::check_async_connectivity(q.processes, q.participants, q.f,
                                           q.rounds);
  } else if (q.model == "sync") {
    check = core::check_sync_connectivity(q.processes, q.participants, q.k,
                                          q.rounds);
  } else {
    check = core::check_semisync_connectivity(q.processes, q.participants,
                                              q.k, q.mu, q.rounds);
  }
  return store::serialize_connectivity_check(check);
}

std::vector<std::uint8_t> compute_homology(const Query& q) {
  core::ViewRegistry views;
  topology::VertexArena arena;
  topology::HomologyOptions options;
  options.max_dim = q.max_dim;
  options.exact = q.exact;
  if (q.construction == "orbit") {
    // Homology needs the chain complex, so the full object is materialized
    // from orbit data; the saving is in the construction, not the algebra.
    const core::OrbitComplexResult orbit = build_orbit_result(q, views, arena);
    return store::serialize_homology_report(topology::reduced_homology(
        core::reconstitute_full(orbit, views, arena), options));
  }
  const topology::SimplicialComplex complex =
      build_model_complex(q, views, arena);
  return store::serialize_homology_report(
      topology::reduced_homology(complex, options));
}

std::vector<std::uint8_t> compute_complex_stats(const Query& q) {
  core::ViewRegistry views;
  topology::VertexArena arena;
  store::ByteWriter out;
  if (q.construction == "orbit") {
    // Counting-only path: the full complex is never materialized. Facet
    // count comes from orbit–stabilizer, the f-vector from face-orbit
    // counting; both are bit-identical to the full pipeline's.
    const core::OrbitComplexResult orbit = build_orbit_result(q, views, arena);
    const std::vector<std::size_t> fvec =
        core::orbit_full_f_vector(orbit, views, arena);
    std::int64_t euler = 0;
    for (std::size_t d = 0; d < fvec.size(); ++d) {
      const auto count = static_cast<std::int64_t>(fvec[d]);
      euler += (d % 2 == 0) ? count : -count;
    }
    out.u64(orbit.full_facet_count);
    out.u64(fvec.empty() ? 0 : fvec[0]);
    out.i32(static_cast<std::int32_t>(fvec.size()) - 1);
    out.i64(euler);
    out.u32(static_cast<std::uint32_t>(fvec.size()));
    for (const std::size_t count : fvec) out.u64(count);
    out.u64(orbit.group.size());
    out.u64(orbit.orbits.size());
    out.u64(orbit.reduced.facet_count());
    return store::seal(store::PayloadKind::kRawBytes, out.bytes());
  }
  const topology::SimplicialComplex complex =
      build_model_complex(q, views, arena);
  out.u64(complex.facet_count());
  out.u64(complex.vertex_ids().size());
  out.i32(complex.dimension());
  out.i64(complex.euler_characteristic());
  const std::vector<std::size_t> fvec = complex.f_vector();
  out.u32(static_cast<std::uint32_t>(fvec.size()));
  for (const std::size_t count : fvec) out.u64(count);
  return store::seal(store::PayloadKind::kRawBytes, out.bytes());
}

std::vector<std::uint8_t> compute_decide(const Query& q,
                                         store::ResultStore* store) {
  const auto model = solve::parse_model(q.model);
  if (!model.has_value()) {
    throw std::logic_error("compute_decide: unvalidated model " + q.model);
  }
  solve::DecideRequest request;
  request.model = *model;
  request.processes = q.processes;
  request.f = q.f;
  request.k = q.k;
  request.mu = q.mu;
  request.rounds = q.rounds;
  return solve::decide_sealed(request, solve::EngineOptions{}, store);
}

Json render_connectivity(const std::vector<std::uint8_t>& sealed) {
  const core::ConnectivityCheck check =
      store::deserialize_connectivity_check(sealed);
  Json body = Json::object();
  body.set("expected", Json::integer(check.expected));
  body.set("measured", Json::integer(check.measured));
  body.set("satisfied", Json::boolean(check.satisfied));
  body.set("facets", Json::integer(static_cast<std::int64_t>(check.facet_count)));
  body.set("vertices",
           Json::integer(static_cast<std::int64_t>(check.vertex_count)));
  body.set("dimension", Json::integer(check.dimension));
  return body;
}

Json render_homology(const std::vector<std::uint8_t>& sealed) {
  const topology::HomologyReport report =
      store::deserialize_homology_report(sealed);
  Json body = Json::object();
  body.set("nonempty", Json::boolean(report.nonempty));
  Json betti = Json::array();
  for (const long long rank : report.reduced_betti) {
    betti.push(Json::integer(rank));
  }
  body.set("reduced_betti", std::move(betti));
  body.set("exact", Json::boolean(report.exact));
  if (report.exact) {
    Json torsion = Json::array();
    for (const std::vector<std::string>& dim : report.torsion) {
      Json coefficients = Json::array();
      for (const std::string& coefficient : dim) {
        coefficients.push(Json::string(coefficient));
      }
      torsion.push(std::move(coefficients));
    }
    body.set("torsion", std::move(torsion));
  }
  return body;
}

Json render_complex_stats(const std::vector<std::uint8_t>& sealed) {
  const std::vector<std::uint8_t> payload =
      store::unseal(sealed, store::PayloadKind::kRawBytes);
  store::ByteReader in(payload);
  Json body = Json::object();
  body.set("facets", Json::integer(static_cast<std::int64_t>(in.u64())));
  body.set("vertices", Json::integer(static_cast<std::int64_t>(in.u64())));
  body.set("dimension", Json::integer(in.i32()));
  body.set("euler", Json::integer(in.i64()));
  Json fvec = Json::array();
  const std::uint32_t dims = in.u32();
  for (std::uint32_t d = 0; d < dims; ++d) {
    fvec.push(Json::integer(static_cast<std::int64_t>(in.u64())));
  }
  body.set("f_vector", std::move(fvec));
  if (!in.done()) {
    // Orbit-mode payloads carry the quotient's shape after the shared
    // fields; full-mode payloads end here.
    Json orbit = Json::object();
    orbit.set("group_order", Json::integer(static_cast<std::int64_t>(in.u64())));
    orbit.set("orbit_reps", Json::integer(static_cast<std::int64_t>(in.u64())));
    orbit.set("reduced_facets",
              Json::integer(static_cast<std::int64_t>(in.u64())));
    body.set("orbit", std::move(orbit));
  }
  in.expect_done("complex_stats payload");
  return body;
}

Json render_decide(const std::vector<std::uint8_t>& sealed) {
  const store::DecisionRecord record = store::deserialize_decision(sealed);
  Json body = Json::object();
  body.set("impossible", Json::boolean(record.exhausted && !record.solvable));
  body.set("possible", Json::boolean(record.solvable));
  body.set("search_exhausted", Json::boolean(record.exhausted));
  // No node counts here: the record holds only deterministic fields, so a
  // cache hit and a fresh search render byte-identically.
  body.set("protocol_facets",
           Json::integer(static_cast<std::int64_t>(record.protocol_facets)));
  body.set("protocol_vertices",
           Json::integer(static_cast<std::int64_t>(record.protocol_vertices)));
  body.set("witness_vertices",
           Json::integer(static_cast<std::int64_t>(record.witness.size())));
  body.set("engine_version",
           Json::integer(static_cast<std::int64_t>(record.engine_version)));
  return body;
}

}  // namespace

std::vector<std::uint8_t> compute_sealed(const Query& q,
                                         store::ResultStore* store) {
  switch (q.kind) {
    case QueryKind::kConnectivity: return compute_connectivity(q);
    case QueryKind::kHomology: return compute_homology(q);
    case QueryKind::kComplexStats: return compute_complex_stats(q);
    case QueryKind::kDecide: return compute_decide(q, store);
  }
  throw std::logic_error("compute_sealed: bad kind");
}

Json render_result(const Query& q, const std::vector<std::uint8_t>& sealed) {
  switch (q.kind) {
    case QueryKind::kConnectivity: return render_connectivity(sealed);
    case QueryKind::kHomology: return render_homology(sealed);
    case QueryKind::kComplexStats: return render_complex_stats(sealed);
    case QueryKind::kDecide: return render_decide(sealed);
  }
  throw std::logic_error("render_result: bad kind");
}

QueryResult execute_query(const Query& q, store::ResultStore* store) {
  const store::CacheKeyBuilder key = cache_key(q);
  QueryResult out;
  if (store != nullptr) {
    try {
      if (auto cached = store->load(key)) {
        out.sealed = std::move(*cached);
        out.cache_hit = true;
      }
    } catch (const util::DeadlineExceeded&) {
      throw;
    } catch (const std::exception&) {
      // An injected (or real) I/O fault during lookup is just a miss.
    }
  }
  if (!out.cache_hit) {
    out.sealed = compute_sealed(q, store);
    if (store != nullptr) {
      try {
        store->save(key, out.sealed);
      } catch (const util::DeadlineExceeded&) {
        throw;
      } catch (const std::exception&) {
        // A failed publish degrades to "computed but not cached".
      }
    }
  }
  out.body = render_result(q, out.sealed);
  return out;
}

}  // namespace psph::serve
