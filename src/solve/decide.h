#pragma once

// End-to-end solvability queries (DESIGN §5.17): "can (model, n+1, f, k,
// mu, r) solve k-set agreement?" This layer builds the protocol complex,
// compiles it into a CSP (csp.h), runs the engine (engine.h), verifies any
// witness against the original complex, and memoizes the decided verdict
// in a ResultStore as a sealed kDecision record — so parameter sweeps and
// psph_serve's decide path never re-decide an instance the store has seen.
//
// Only *exhausted* verdicts are cached (a node-limited abort is not a
// fact about the instance), and a cached record is re-validated against
// the request's parameters on load: a corrupted or aliased entry degrades
// to a miss plus recomputation, never a wrong answer.
//
// This is the one way the shipped code decides solvability: the paper
// benches, the examples, sweeps and psph_serve all call decide(). A
// hand-built complex goes through compile_csp + solve directly. The seed
// backtracker the differential suite compares against lives in tests/.

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/view.h"
#include "solve/csp.h"
#include "solve/engine.h"
#include "store/serialize.h"
#include "store/store.h"
#include "topology/arena.h"
#include "topology/complex.h"

namespace psph::solve {

/// Bumped when the engine's decided semantics change (e.g. a different
/// canonical witness order); part of the cache key, so stale records from
/// an older engine can never satisfy a new query.
inline constexpr std::uint32_t kDecisionEngineVersion = 1;

enum class Model { kAsync, kSync, kSemiSync, kIis };

const char* model_name(Model model);
std::optional<Model> parse_model(std::string_view name);

struct DecideRequest {
  Model model = Model::kAsync;
  int processes = 3;  ///< n+1
  int f = 1;          ///< failure budget (ignored by iis)
  int k = 1;          ///< k-set agreement
  int mu = 0;         ///< semisync synchrony bound (ignored elsewhere)
  int rounds = 1;
};

/// Canonical form: parameters the model ignores are zeroed so equivalent
/// requests share one cache entry.
DecideRequest normalize(DecideRequest request);

/// The cache key for a normalized request (format version, "decide",
/// engine version, model, parameters).
store::CacheKeyBuilder decide_cache_key(const DecideRequest& request);

/// A built instance: the protocol complex plus its compiled CSP, with the
/// registries that own the vertex views. Tests use this to verify witnesses
/// against the same structures the engine saw.
struct Instance {
  core::ViewRegistry views;
  topology::VertexArena arena;
  topology::SimplicialComplex protocol;
  CspProblem problem;
};

/// Builds the protocol complex for `request` and compiles it. The span
/// solve.compile times compile_csp; the protocol build reports its own
/// construction spans. The bool parameter is retired (it once selected
/// lowering the input symmetry group into the CSP) and is ignored; only
/// the ledger still passes it.
std::unique_ptr<Instance> build_instance(const DecideRequest& request,
                                         bool /*retired*/ = false);

struct DecideResult {
  store::DecisionRecord record;
  /// Engine statistics; all zeros on a pure cache hit.
  EngineStats stats;
  bool cache_hit = false;
};

/// Decides the instance, store-first when `store` is non-null. A hit costs
/// one load — no complex is built. On compute, the witness (when solvable)
/// is independently re-verified against the protocol complex before the
/// record is returned or cached. A store that fails to publish the record
/// costs only the cache entry, never the answer.
DecideResult decide(const DecideRequest& request,
                    const EngineOptions& options = {},
                    store::ResultStore* store = nullptr);

/// The decided record as a sealed kDecision envelope (what serve renders
/// and sweeps archive). Deterministic bytes for a deterministic record.
std::vector<std::uint8_t> decide_sealed(const DecideRequest& request,
                                        const EngineOptions& options = {},
                                        store::ResultStore* store = nullptr);

}  // namespace psph::solve
