#include "solve/decide.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/async_complex.h"
#include "core/construction.h"
#include "core/iis_complex.h"
#include "core/pseudosphere.h"
#include "core/semisync_complex.h"
#include "core/sync_complex.h"
#include "obs/obs.h"

namespace psph::solve {

namespace {

obs::Counter g_decides("solve.decides");
obs::Counter g_decide_hits("solve.decide_cache_hits");

std::vector<std::int64_t> value_range(int count) {
  std::vector<std::int64_t> values;
  for (int v = 0; v < count; ++v) values.push_back(v);
  return values;
}

void validate(const DecideRequest& request) {
  if (request.processes < 1) {
    throw std::invalid_argument("decide: processes must be >= 1");
  }
  if (request.k < 1) throw std::invalid_argument("decide: k must be >= 1");
  if (request.rounds < 1) {
    throw std::invalid_argument("decide: rounds must be >= 1");
  }
  if (request.f < 0 || request.mu < 0) {
    throw std::invalid_argument("decide: f and mu must be >= 0");
  }
  if (request.k + 1 > kMaxValues) {
    throw std::invalid_argument("decide: k exceeds the engine's value cap");
  }
}

store::DecisionRecord make_record(const DecideRequest& request) {
  store::DecisionRecord record;
  record.engine_version = kDecisionEngineVersion;
  record.model = model_name(request.model);
  record.processes = request.processes;
  record.f = request.f;
  record.k = request.k;
  record.mu = request.mu;
  record.rounds = request.rounds;
  return record;
}

bool record_matches(const store::DecisionRecord& record,
                    const DecideRequest& request) {
  return record.engine_version == kDecisionEngineVersion &&
         record.model == model_name(request.model) &&
         record.processes == request.processes && record.f == request.f &&
         record.k == request.k && record.mu == request.mu &&
         record.rounds == request.rounds;
}

}  // namespace

const char* model_name(Model model) {
  switch (model) {
    case Model::kAsync: return "async";
    case Model::kSync: return "sync";
    case Model::kSemiSync: return "semisync";
    case Model::kIis: return "iis";
  }
  return "?";
}

std::optional<Model> parse_model(std::string_view name) {
  if (name == "async") return Model::kAsync;
  if (name == "sync") return Model::kSync;
  if (name == "semisync") return Model::kSemiSync;
  if (name == "iis") return Model::kIis;
  return std::nullopt;
}

DecideRequest normalize(DecideRequest request) {
  if (request.model != Model::kSemiSync) request.mu = 0;
  if (request.model == Model::kIis) request.f = 0;
  return request;
}

store::CacheKeyBuilder decide_cache_key(const DecideRequest& request) {
  store::CacheKeyBuilder key("decide");
  key.param(kDecisionEngineVersion);
  key.param_string(model_name(request.model));
  key.param(request.processes)
      .param(request.f)
      .param(request.k)
      .param(request.mu)
      .param(request.rounds);
  return key;
}

std::unique_ptr<Instance> build_instance(const DecideRequest& raw, bool) {
  const DecideRequest request = normalize(raw);
  validate(request);
  auto instance = std::make_unique<Instance>();
  core::ViewRegistry& views = instance->views;
  topology::VertexArena& arena = instance->arena;
  const topology::SimplicialComplex inputs = core::input_complex(
      request.processes, value_range(request.k + 1), views, arena);
  switch (request.model) {
    case Model::kAsync:
      instance->protocol = core::async_protocol_complex_over(
          inputs, {request.processes, request.f, request.rounds}, views,
          arena);
      break;
    case Model::kSync:
      instance->protocol = core::sync_protocol_complex_over(
          inputs, {request.processes, request.f, request.k, request.rounds},
          views, arena);
      break;
    case Model::kSemiSync:
      instance->protocol = core::semisync_protocol_complex_over(
          inputs,
          {request.processes, request.f, request.k, request.mu,
           request.rounds},
          views, arena);
      break;
    case Model::kIis:
      instance->protocol = core::iis_protocol_complex_over(
          inputs, request.rounds, views, arena);
      break;
  }
  obs::SpanTimer span("solve.compile");
  instance->problem = compile_csp(instance->protocol, request.k, views, arena);
  return instance;
}

DecideResult decide(const DecideRequest& raw, const EngineOptions& options,
                    store::ResultStore* store) {
  const DecideRequest request = normalize(raw);
  validate(request);
  g_decides.add();

  if (store != nullptr) {
    const store::CacheKeyBuilder key = decide_cache_key(request);
    if (const auto bytes = store->load(key)) {
      try {
        store::DecisionRecord record = store::deserialize_decision(*bytes);
        if (record_matches(record, request)) {
          g_decide_hits.add();
          DecideResult result;
          result.record = std::move(record);
          result.cache_hit = true;
          return result;
        }
      } catch (const store::SerializationError&) {
        // Fall through to recompute; the store already counted the entry
        // as corrupt on a checksum failure, and a decodable-but-mismatched
        // record must never satisfy this query.
      }
    }
  }

  const std::unique_ptr<Instance> instance = build_instance(request);
  const SolveOutcome outcome = solve(instance->problem, options);

  DecideResult result;
  result.stats = outcome.stats;
  result.record = make_record(request);
  result.record.protocol_facets = instance->problem.facets.size();
  result.record.protocol_vertices = instance->problem.vertex_ids.size();
  result.record.exhausted = outcome.exhausted;
  result.record.solvable = outcome.exhausted && outcome.solvable;
  if (result.record.solvable) {
    const WitnessCheck check =
        verify_witness(instance->problem, outcome.witness);
    if (!check.ok) {
      throw std::logic_error("decide: engine witness failed verification: " +
                             check.reason);
    }
    const CspProblem& problem = instance->problem;
    result.record.witness.reserve(outcome.witness.size());
    for (std::size_t i = 0; i < outcome.witness.size(); ++i) {
      result.record.witness.emplace_back(
          static_cast<std::uint64_t>(problem.vertex_ids[i]),
          problem.value_of[static_cast<std::size_t>(outcome.witness[i])]);
    }
    std::sort(result.record.witness.begin(), result.record.witness.end());
  }

  if (store != nullptr && result.record.exhausted) {
    try {
      store->save(decide_cache_key(request),
                  store::serialize_decision(result.record));
    } catch (const std::exception&) {
      // A failed publish costs only the cache entry: the verdict is already
      // verified, and the next query recomputes it.
    }
  }
  return result;
}

std::vector<std::uint8_t> decide_sealed(const DecideRequest& request,
                                        const EngineOptions& options,
                                        store::ResultStore* store) {
  return store::serialize_decision(decide(request, options, store).record);
}

}  // namespace psph::solve
