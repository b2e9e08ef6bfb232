// The serve workload: an in-process serve::Server on a fresh store per
// pass, driven as a closed loop by kClients client connections with one
// request in flight each.
//
//   cold phase — every distinct query twice, in a seeded order drawn
//                afresh for every pass: each distinct query is computed
//                once (the repeat is a store hit or a coalesced wait), so
//                this phase exercises compute, store writes and coalescing.
//   warm phase — the distinct set replayed kWarmReps times against the now
//                warm store: store reads, render and the wire.
//
// The store is real files on disk, written without fsync (NoSyncFsOps);
// the fsyncs it skipped are counted, so a change in how often the store
// syncs still shows.
// Every reply's result body is checked against the expected digest of its
// query. The server hides its layer calls, so after the traced pass the
// distinct set is replayed once in-process through the same public calls
// execute_query makes (parse, store load, compute, store save, render),
// each under its own span.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "ledger.h"
#include "obs/obs.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/queries.h"
#include "serve/server.h"
#include "store/fs_ops.h"
#include "store/store.h"

namespace ledger {

namespace {

using namespace psph;
namespace fs = std::filesystem;

constexpr int kClients = 4;
constexpr int kWarmReps = 100;

std::string digest(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016" PRIx64, h);
  return out;
}

/// The real filesystem minus fsync. Every store operation still runs
/// (temp write, rename, read back); only the flush to the device is
/// skipped, because its latency measures the host's shared disk rather
/// than this code. skipped() counts the fsyncs FsOps::real() would have
/// made: one per file write and one per directory sync.
class NoSyncFsOps final : public store::FsOps {
 public:
  std::size_t skipped() const { return skipped_.load(); }

  std::optional<std::vector<std::uint8_t>> read_file(
      const fs::path& path) override {
    return real_->read_file(path);
  }
  void write_file(const fs::path& path, const std::uint8_t* data,
                  std::size_t size) override {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
    if (!out.flush()) {
      throw std::runtime_error("store: write failed on " + path.string());
    }
    ++skipped_;
  }
  void rename(const fs::path& from, const fs::path& to) override {
    real_->rename(from, to);
  }
  void fsync_dir(const fs::path& /*dir*/) override { ++skipped_; }

 private:
  std::shared_ptr<store::FsOps> real_ = store::FsOps::real();
  std::atomic<std::size_t> skipped_{0};
};

serve::Json query_json(const char* kind, const char* model) {
  serve::Json q = serve::Json::object();
  q.set("kind", serve::Json::string(kind));
  q.set("model", serve::Json::string(model));
  return q;
}

void set_int(serve::Json& q, const char* key, int value) {
  q.set(key, serve::Json::integer(value));
}

/// The distinct query set: all four kinds over all four models, every
/// instance small enough to answer well under a second.
std::vector<serve::Json> query_set() {
  std::vector<serve::Json> out;
  // One query per instance of a small parameter grid; `extra` adds the
  // kind-specific fields, and orbit-construction variants skip the
  // pseudosphere model, which has no round structure to quotient.
  const auto timing = [&](const char* kind, int rounds_cap,
                          const std::vector<std::pair<const char*, serve::Json>>&
                              extra,
                          bool pseudospheres) {
    const auto push = [&](serve::Json q) {
      for (const auto& [key, value] : extra) q.set(key, value);
      out.push_back(std::move(q));
    };
    for (int n1 = 2; n1 <= 4; ++n1) {
      for (int m1 = 2; m1 <= n1; ++m1) {
        for (int f = 1; f < n1; ++f) {
          for (int r = 1; r <= rounds_cap; ++r) {
            if (n1 == 4 && (r > 1 || f > 2)) continue;
            serve::Json q = query_json(kind, "async");
            set_int(q, "processes", n1);
            set_int(q, "participants", m1);
            set_int(q, "f", f);
            set_int(q, "rounds", r);
            push(std::move(q));
          }
        }
      }
    }
    for (int n1 = 3; n1 <= 5; ++n1) {
      for (int k = 1; k <= 2; ++k) {
        for (int r = 1; r <= rounds_cap; ++r) {
          if (n1 == 5 && r > 1) continue;
          serve::Json q = query_json(kind, "sync");
          set_int(q, "processes", n1);
          set_int(q, "participants", n1);
          set_int(q, "k", k);
          set_int(q, "rounds", r);
          push(std::move(q));
        }
      }
    }
    for (int n1 = 3; n1 <= 4; ++n1) {
      for (int mu = 2; mu <= 3; ++mu) {
        for (int r = 1; r <= rounds_cap; ++r) {
          if (n1 == 4 && r > 1) continue;
          serve::Json q = query_json(kind, "semisync");
          set_int(q, "processes", n1);
          set_int(q, "participants", n1);
          set_int(q, "k", 1);
          set_int(q, "mu", mu);
          set_int(q, "rounds", r);
          push(std::move(q));
        }
      }
    }
    if (!pseudospheres) return;
    for (const std::vector<int>& sizes : std::vector<std::vector<int>>{
             {2, 2}, {3, 2}, {2, 2, 2}, {3, 2, 3}, {2, 3, 2, 2}, {2, 2, 2, 2},
             {1, 3, 2}, {3, 3, 3}, {4, 3, 2}, {3, 3, 3, 3}, {2, 2, 2, 2, 2}}) {
      serve::Json q = query_json(kind, "pseudosphere");
      serve::Json array = serve::Json::array();
      for (const int size : sizes) array.items().push_back(serve::Json::integer(size));
      q.set("sizes", std::move(array));
      push(std::move(q));
    }
  };
  const serve::Json orbit = serve::Json::string("orbit");
  timing("connectivity", 2, {}, true);
  timing("homology", 2, {{"max_dim", serve::Json::integer(1)}}, true);
  timing("homology", 2, {{"max_dim", serve::Json::integer(3)}}, true);
  timing("homology", 2, {{"construction", orbit}}, false);
  timing("complex_stats", 2, {}, true);
  timing("complex_stats", 2, {{"construction", orbit}}, false);
  // decide: async/sync/semisync/iis below the decide workload's sizes.
  for (const auto& [n1, f, k] :
       std::vector<std::array<int, 3>>{{3, 1, 1}, {3, 1, 2}, {3, 2, 2},
                                       {3, 2, 3}, {4, 1, 1}, {4, 1, 2}}) {
    serve::Json q = query_json("decide", "async");
    set_int(q, "processes", n1);
    set_int(q, "f", f);
    set_int(q, "k", k);
    out.push_back(std::move(q));
  }
  for (const auto& [n1, f, r] :
       std::vector<std::array<int, 3>>{{3, 1, 1}, {3, 1, 2}, {4, 1, 1},
                                       {4, 1, 2}, {4, 2, 1}, {4, 2, 2}}) {
    serve::Json q = query_json("decide", "sync");
    set_int(q, "processes", n1);
    set_int(q, "f", f);
    set_int(q, "k", 1);
    set_int(q, "rounds", r);
    out.push_back(std::move(q));
  }
  for (const int r : {1, 2}) {
    serve::Json q = query_json("decide", "semisync");
    set_int(q, "processes", 3);
    set_int(q, "f", 1);
    set_int(q, "k", 1);
    set_int(q, "mu", 2);
    set_int(q, "rounds", r);
    out.push_back(std::move(q));
  }
  for (const auto& [k, r] :
       std::vector<std::array<int, 2>>{{2, 1}, {1, 1}, {1, 2}}) {
    serve::Json q = query_json("decide", "iis");
    set_int(q, "processes", 3);
    set_int(q, "k", k);
    set_int(q, "rounds", r);
    out.push_back(std::move(q));
  }
  return out;
}

/// One phase's client-side record.
struct Phase {
  std::vector<double> latency_ms;  // per answered request
  std::vector<int> query;          // query index per latency sample
  /// (query index, result digest) -> requests answered so.
  std::map<std::pair<int, std::string>, std::size_t> answers;
  std::size_t errors = 0;
  double wall_s = 0;
};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, std::string work_dir)
      : seed_(seed), work_dir_(std::move(work_dir)), queries_(query_set()) {
    for (const serve::Json& q : queries_) bodies_.push_back(q.dump());
    const std::size_t n = queries_.size();
    for (int rep = 0; rep < kWarmReps; ++rep) {
      for (const std::size_t i : seeded_order(n, seed + 1 + rep)) {
        warm_.push_back(static_cast<int>(i));
      }
    }
  }

  PassResult run_pass(Tracer* tracer) override {
    // Each pass sends the cold set in its own seeded order: which heavy
    // queries meet in one dispatcher batch sets the pass's peak memory, so
    // a run samples several such orders instead of one.
    const int pass_number = pass_number_++;
    std::vector<int> cold;
    const std::size_t n = queries_.size();
    const std::uint64_t order_seed =
        (seed_ << 16) + static_cast<std::uint64_t>(pass_number);
    for (const std::size_t i : seeded_order(2 * n, order_seed)) {
      cold.push_back(static_cast<int>(i % n));
    }
    const fs::path dir = fs::path(work_dir_) /
                         ("serve-" + std::to_string(::getpid()) + "-" +
                          std::to_string(pass_number));
    fs::remove_all(dir);
    fs::create_directories(dir);
    serve::ServerOptions options;
    options.socket_path = (dir / "s.sock").string();
    options.store_dir = (dir / "store").string();
    const auto fs_ops = std::make_shared<NoSyncFsOps>();
    options.fs = fs_ops;
    PassResult result;
    {
      serve::Server server(options);
      server.start();
      {
        Tracer::Scope pass(tracer, "pass");
        last_cold_ = drive(options.socket_path, cold);
        last_warm_ = drive(options.socket_path, warm_);
      }
      last_stats_ = server.stats();
      if (tracer != nullptr && server.result_store() != nullptr) {
        const store::StoreStats s = server.result_store()->stats();
        traced_store_hit_ratio_ =
            s.hits + s.misses > 0
                ? static_cast<double>(s.hits) / static_cast<double>(s.hits + s.misses)
                : 0.0;
        traced_cold_ = last_cold_;
      }
      server.stop();
      if (tracer != nullptr) traced_syncs_skipped_ = fs_ops->skipped();
    }
    fs::remove_all(dir);
    for (const Phase* phase : {&last_cold_, &last_warm_}) {
      for (const auto& [key, count] : phase->answers) {
        result.answers.push_back(
            {bodies_[static_cast<std::size_t>(key.first)], key.second, count});
      }
      result.errors += phase->errors;
    }
    return result;
  }

  void note_timed_pass() override {
    timed_.push_back({last_cold_, last_warm_, last_stats_});
  }

  void layer_metrics(const Tracer& tracer, double traced_pass_s,
                     LayerMetrics& out) override {
    // Client-side cold/warm figures from the untraced timed passes.
    std::vector<double> cold_qps, warm_qps, cold_ms, warm_ms;
    for (const Timed& t : timed_) {
      cold_qps.push_back(t.cold.latency_ms.size() / t.cold.wall_s);
      warm_qps.push_back(t.warm.latency_ms.size() / t.warm.wall_s);
      cold_ms.insert(cold_ms.end(), t.cold.latency_ms.begin(),
                     t.cold.latency_ms.end());
      warm_ms.insert(warm_ms.end(), t.warm.latency_ms.begin(),
                     t.warm.latency_ms.end());
    }
    out["serve.cold_qps"] = quantile(cold_qps, 0.5);
    out["serve.cold_p50_ms"] = quantile(cold_ms, 0.5);
    out["serve.cold_p98_ms"] = quantile(cold_ms, 0.98);
    out["serve.warm_qps"] = quantile(warm_qps, 0.5);
    out["serve.warm_p50_ms"] = quantile(warm_ms, 0.5);
    out["serve.warm_p99_ms"] = quantile(warm_ms, 0.99);
    if (!timed_.empty()) {
      const serve::ServeStats& s = timed_.back().stats;
      out["serve.computed"] = static_cast<double>(s.computed);
      out["serve.cache_hits"] = static_cast<double>(s.cache_hits);
      out["serve.coalesced"] = static_cast<double>(s.coalesced);
      out["serve.overloaded"] = static_cast<double>(s.overloaded);
    }

    // Server-side spans recorded during the traced pass.
    const obs::Snapshot snap = obs::snapshot();
    double batch_ms = 0;
    for (const obs::SpanStat& span : snap.spans) {
      const double ms = static_cast<double>(span.total_ns) / 1e6;
      if (span.name == "store.load") out["store.load_ms"] = ms;
      if (span.name == "store.save") out["store.save_ms"] = ms;
      if (span.name == "serve.batch") batch_ms = ms;
    }
    out["store.hit_ratio"] = traced_store_hit_ratio_;
    out["store.syncs_skipped"] = static_cast<double>(traced_syncs_skipped_);
    const double root_ms = tracer.root_seconds() * 1e3;
    out["trace.unattributed_share"] =
        root_ms > 0 ? std::max(0.0, 1.0 - batch_ms / root_ms) : 0.0;
    obs_layer_metrics(traced_pass_s, out);

    replay(out);
  }

 private:
  struct Timed {
    Phase cold;
    Phase warm;
    serve::ServeStats stats;
  };

  /// Closed loop: kClients connections each take the next request of
  /// `sequence` and wait for its reply before sending another.
  Phase drive(const std::string& socket, const std::vector<int>& sequence) {
    Phase phase;
    std::atomic<std::size_t> next{0};
    std::mutex merge_mutex;
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        Phase local;
        try {
          serve::Client client(socket);
          for (std::size_t i = next++; i < sequence.size(); i = next++) {
            const int query = sequence[i];
            serve::Json request = queries_[static_cast<std::size_t>(query)];
            request.set("id", serve::Json::integer(static_cast<std::int64_t>(i)));
            const Clock::time_point sent = Clock::now();
            const serve::Json reply = client.call(request);
            const double ms = seconds_since(sent) * 1e3;
            const serve::Json* ok = reply.get("ok");
            const serve::Json* body = reply.get("result");
            if (ok == nullptr || !ok->as_bool() || body == nullptr) {
              ++local.errors;
              continue;
            }
            local.latency_ms.push_back(ms);
            local.query.push_back(query);
            ++local.answers[{query, digest(body->dump())}];
          }
        } catch (const std::exception&) {
          ++local.errors;
        }
        const std::lock_guard<std::mutex> lock(merge_mutex);
        phase.latency_ms.insert(phase.latency_ms.end(),
                                local.latency_ms.begin(), local.latency_ms.end());
        phase.query.insert(phase.query.end(), local.query.begin(),
                           local.query.end());
        for (const auto& [key, count] : local.answers) {
          phase.answers[key] += count;
        }
        phase.errors += local.errors;
      });
    }
    for (std::thread& client : clients) client.join();
    phase.wall_s = seconds_since(start);
    return phase;
  }

  /// The distinct set once through execute_query's calls on a fresh store,
  /// one span per call; serve.wait_ms is the median over queries of cold
  /// client latency minus this chain.
  void replay(LayerMetrics& out) {
    const fs::path dir =
        fs::path(work_dir_) / ("replay-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    store::ResultStore store(dir, std::make_shared<NoSyncFsOps>());
    Tracer tracer;
    std::vector<double> chain_ms(queries_.size(), 0.0);
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      const Clock::time_point start = Clock::now();
      serve::ParsedRequest parsed = [&] {
        Tracer::Scope span(&tracer, "serve.parse", static_cast<int>(i));
        return serve::parse_request(queries_[i]);
      }();
      if (!parsed.query) continue;
      const serve::Query& q = *parsed.query;
      const store::CacheKeyBuilder key = serve::cache_key(q);
      {
        Tracer::Scope span(&tracer, "store.load", static_cast<int>(i));
        (void)store.load(key);
      }
      std::vector<std::uint8_t> sealed;
      {
        Tracer::Scope span(&tracer, compute_span_name(q.kind),
                           static_cast<int>(i));
        sealed = serve::compute_sealed(q);
      }
      {
        Tracer::Scope span(&tracer, "store.save", static_cast<int>(i));
        store.save(key, sealed);
      }
      {
        Tracer::Scope span(&tracer, "serve.render", static_cast<int>(i));
        (void)serve::render_result(q, sealed);
      }
      chain_ms[i] = seconds_since(start) * 1e3;
    }
    fs::remove_all(dir);

    out["serve.compute_ms.connectivity"] =
        tracer.self_ms("serve.compute.connectivity");
    out["serve.compute_ms.homology"] = tracer.self_ms("serve.compute.homology");
    out["serve.compute_ms.complex_stats"] =
        tracer.self_ms("serve.compute.complex_stats");
    out["serve.compute_ms.decide"] = tracer.self_ms("serve.compute.decide");
    out["serve.render_ms"] = tracer.self_ms("serve.render");
    out["serve.parse_us"] = tracer.self_ms("serve.parse") * 1e3;

    // The slower of each query's two cold requests in the traced pass is
    // the one that computed it (or waited on the computation).
    std::vector<double> slowest(queries_.size(), -1.0);
    for (std::size_t i = 0; i < traced_cold_.query.size(); ++i) {
      double& ms = slowest[static_cast<std::size_t>(traced_cold_.query[i])];
      ms = std::max(ms, traced_cold_.latency_ms[i]);
    }
    std::vector<double> wait;
    for (std::size_t q = 0; q < queries_.size(); ++q) {
      if (slowest[q] >= 0) {
        wait.push_back(std::max(0.0, slowest[q] - chain_ms[q]));
      }
    }
    out["serve.wait_ms"] = quantile(wait, 0.5);
  }

  static const char* compute_span_name(serve::QueryKind kind) {
    switch (kind) {
      case serve::QueryKind::kConnectivity:
        return "serve.compute.connectivity";
      case serve::QueryKind::kHomology:
        return "serve.compute.homology";
      case serve::QueryKind::kComplexStats:
        return "serve.compute.complex_stats";
      case serve::QueryKind::kDecide:
        return "serve.compute.decide";
    }
    return "serve.compute";
  }

  std::uint64_t seed_;
  std::string work_dir_;
  std::vector<serve::Json> queries_;
  std::vector<std::string> bodies_;
  std::vector<int> warm_;
  int pass_number_ = 0;
  Phase last_cold_;
  Phase last_warm_;
  serve::ServeStats last_stats_;
  Phase traced_cold_;
  double traced_store_hit_ratio_ = 0;
  std::size_t traced_syncs_skipped_ = 0;
  std::vector<Timed> timed_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_workload(std::uint64_t seed,
                                              const std::string& work_dir) {
  return std::make_unique<ServeWorkload>(seed, work_dir);
}

}  // namespace ledger
