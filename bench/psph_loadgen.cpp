// psph_loadgen — concurrent load generator for the psph_serve daemon.
//
// Drives thousands of mixed queries (connectivity / homology /
// complex_stats / decide) over N client connections with pipelined
// in-flight windows, and reports throughput plus client-side latency
// percentiles per kind, the server's coalescing counters, and the store
// hit rate. With --verify (default on) every ok response is compared
// against the batch compute path executed in-process — any byte of
// divergence is a hard failure, which is what makes the fault-injected
// soak (--fault-seed) meaningful: faults may cost misses and recomputes,
// never wrong bytes.
//
//   psph_loadgen                         # in-process server, 2000 queries
//   psph_loadgen --socket=/tmp/p.sock    # against an external daemon
//   psph_loadgen --fault-seed=7 --json-out=loadgen.json   # soak
//
// Exits nonzero on any verification mismatch, wedged connection, or if the
// run produced no successful responses.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "check/fault_fs.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/queries.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "util/cli.h"
#include "util/random.h"

namespace fs = std::filesystem;
using namespace psph;
using Clock = std::chrono::steady_clock;

namespace {

/// The workload pool: a dozen distinct query shapes across all four kinds.
/// Small instances (the daemon's sweet spot: high query rate against a warm
/// store) with a couple of heavier ones mixed in. Weights sum to 100.
struct Shape {
  const char* json;
  int weight;
};
constexpr Shape kShapes[] = {
    {"{\"kind\":\"connectivity\",\"model\":\"async\",\"processes\":3,\"f\":1}", 14},
    {"{\"kind\":\"connectivity\",\"model\":\"async\",\"processes\":4,\"f\":1}", 8},
    {"{\"kind\":\"connectivity\",\"model\":\"sync\",\"processes\":3,\"k\":1}", 10},
    {"{\"kind\":\"connectivity\",\"model\":\"semisync\",\"processes\":3,\"k\":1,\"mu\":2}", 8},
    {"{\"kind\":\"connectivity\",\"model\":\"pseudosphere\",\"sizes\":[2,2,2]}", 10},
    {"{\"kind\":\"connectivity\",\"model\":\"pseudosphere\",\"sizes\":[3,2,3]}", 5},
    {"{\"kind\":\"complex_stats\",\"model\":\"async\",\"processes\":3,\"f\":1,\"rounds\":2}", 10},
    {"{\"kind\":\"complex_stats\",\"model\":\"sync\",\"processes\":4,\"k\":1}", 8},
    {"{\"kind\":\"homology\",\"model\":\"async\",\"processes\":3,\"f\":1,\"max_dim\":2}", 8},
    {"{\"kind\":\"homology\",\"model\":\"pseudosphere\",\"sizes\":[2,2,2,2],\"max_dim\":2}", 7},
    {"{\"kind\":\"decide\",\"model\":\"async\",\"processes\":3,\"f\":1,\"k\":1}", 7},
    {"{\"kind\":\"decide\",\"model\":\"sync\",\"processes\":3,\"f\":1,\"k\":1,\"rounds\":2}", 5},
};

struct Sample {
  int shape = 0;
  std::uint64_t us = 0;
};

struct WorkerResult {
  std::vector<Sample> samples;
  std::uint64_t ok = 0;
  std::uint64_t cached = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t overloaded_retries = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t dropped = 0;     // gave up after max retries
  std::uint64_t mismatches = 0;  // verification failures (must stay 0)
  std::uint64_t errors = 0;      // unexpected error responses
  bool wedged = false;
};

std::uint64_t percentile(std::vector<std::uint64_t>& sorted_us, double p) {
  if (sorted_us.empty()) return 0;
  const std::size_t index = std::min(
      sorted_us.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted_us.size())));
  return sorted_us[index];
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket;
  std::string store_dir;
  std::string json_out;
  int queries = 2000;
  int connections = 16;
  int inflight = 8;
  std::int64_t seed = 1;
  std::int64_t deadline_ms = 0;
  std::int64_t fault_seed = 0;
  bool verify = true;

  util::Cli cli("psph_loadgen", "concurrent load generator for psph_serve");
  cli.flag("socket", &socket,
           "daemon socket; empty starts an in-process server");
  cli.flag("store-dir", &store_dir,
           "store root for the in-process server (empty: fresh temp dir)");
  cli.flag("queries", &queries, "total queries across all connections");
  cli.flag("connections", &connections, "concurrent client connections");
  cli.flag("inflight", &inflight, "pipelined requests per connection");
  cli.flag("seed", &seed, "workload shuffle seed");
  cli.flag("deadline-ms", &deadline_ms,
           "per-query deadline (0 = none); expirations are counted, not "
           "failures");
  cli.flag("fault-seed", &fault_seed,
           "nonzero: in-process server runs its store over an injected-"
           "fault filesystem (soak mode)");
  cli.flag("verify", &verify,
           "compare every response against the in-process batch path");
  cli.flag("json-out", &json_out, "write the report JSON here");
  cli.parse(argc, argv);

  bench::warn_if_unoptimized_build();

  // Parse + normalize the shape pool once; precompute expected bodies for
  // verification through the exact batch path.
  std::vector<serve::Query> shape_queries;
  std::vector<serve::Json> shape_requests;
  std::vector<std::string> expected_body;
  for (const Shape& shape : kShapes) {
    serve::Json request = serve::Json::parse(shape.json);
    if (deadline_ms > 0) {
      request.set("deadline_ms", serve::Json::integer(deadline_ms));
    }
    const serve::ParsedRequest parsed = serve::parse_request(request);
    if (!parsed.query.has_value()) {
      std::fprintf(stderr, "bad shape %s: %s\n", shape.json,
                   parsed.error->message.c_str());
      return 2;
    }
    shape_queries.push_back(*parsed.query);
    shape_requests.push_back(std::move(request));
    expected_body.push_back(
        verify ? serve::render_result(*parsed.query,
                                      serve::compute_sealed(*parsed.query))
                     .dump()
               : std::string());
  }

  // Optional in-process server.
  fs::path temp_root;
  std::unique_ptr<serve::Server> server;
  if (socket.empty()) {
    temp_root = fs::temp_directory_path() /
                ("psph_loadgen_" + std::to_string(::getpid()));
    fs::create_directories(temp_root);
    serve::ServerOptions options;
    options.socket_path = (temp_root / "serve.sock").string();
    options.store_dir =
        store_dir.empty() ? (temp_root / "store").string() : store_dir;
    if (fault_seed != 0) {
      options.fs = std::make_shared<check::FaultyFsOps>(
          check::plan_from_seed(static_cast<std::uint64_t>(fault_seed),
                                100'000));
    }
    server = std::make_unique<serve::Server>(options);
    server->start();
    socket = options.socket_path;
  } else if (fault_seed != 0) {
    std::fprintf(stderr,
                 "--fault-seed needs the in-process server (omit --socket)\n");
    return 2;
  }

  const int per_connection = std::max(1, queries / std::max(1, connections));
  const int window = std::max(1, inflight);
  std::vector<WorkerResult> results(static_cast<std::size_t>(connections));
  std::vector<std::thread> workers;

  const Clock::time_point wall_start = Clock::now();
  for (int c = 0; c < connections; ++c) {
    workers.emplace_back([&, c] {
      WorkerResult& out = results[static_cast<std::size_t>(c)];
      util::Rng rng(static_cast<std::uint64_t>(seed) * 1000003u +
                    static_cast<std::uint64_t>(c));
      // Weighted shape sequence for this connection.
      std::vector<int> plan;
      plan.reserve(static_cast<std::size_t>(per_connection));
      for (int i = 0; i < per_connection; ++i) {
        std::uint64_t pick = rng.next_below(100);
        int chosen = 0;
        for (std::size_t s = 0; s < std::size(kShapes); ++s) {
          if (pick < static_cast<std::uint64_t>(kShapes[s].weight)) {
            chosen = static_cast<int>(s);
            break;
          }
          pick -= static_cast<std::uint64_t>(kShapes[s].weight);
        }
        plan.push_back(chosen);
      }

      try {
        serve::Client client(socket);
        struct InFlight {
          int shape;
          int attempts;
          Clock::time_point sent;
        };
        std::map<std::int64_t, InFlight> pending;
        std::int64_t next_id = 1;
        std::size_t cursor = 0;
        constexpr int kMaxAttempts = 6;

        const auto send_shape = [&](int shape, int attempts) {
          serve::Json request = shape_requests[static_cast<std::size_t>(shape)];
          request.set("id", serve::Json::integer(next_id));
          client.send(request);
          pending[next_id] = InFlight{shape, attempts, Clock::now()};
          ++next_id;
        };

        while (cursor < plan.size() && pending.size() <
                                           static_cast<std::size_t>(window)) {
          send_shape(plan[cursor++], 1);
        }
        while (!pending.empty()) {
          const serve::Json response = client.recv();
          const std::int64_t id = response.get("id")->as_int();
          const auto it = pending.find(id);
          if (it == pending.end()) continue;  // stray (shouldn't happen)
          const InFlight flight = it->second;
          pending.erase(it);

          if (response.get("ok")->as_bool()) {
            ++out.ok;
            const std::uint64_t us = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - flight.sent)
                    .count());
            out.samples.push_back({flight.shape, us});
            if (response.get("cached")->as_bool()) ++out.cached;
            if (response.get("coalesced")->as_bool()) ++out.coalesced;
            if (verify &&
                response.get("result")->dump() !=
                    expected_body[static_cast<std::size_t>(flight.shape)]) {
              ++out.mismatches;
            }
          } else {
            const std::string code =
                response.get("error")->get("code")->as_string();
            if (code == "overloaded" && flight.attempts < kMaxAttempts) {
              ++out.overloaded_retries;
              std::this_thread::sleep_for(
                  std::chrono::milliseconds(1 << flight.attempts));
              send_shape(flight.shape, flight.attempts + 1);
            } else if (code == "overloaded") {
              ++out.dropped;
            } else if (code == "deadline_exceeded") {
              ++out.deadline_exceeded;
            } else {
              ++out.errors;
            }
          }
          if (cursor < plan.size()) send_shape(plan[cursor++], 1);
        }
      } catch (const std::exception& error) {
        std::fprintf(stderr, "connection %d wedged: %s\n", c, error.what());
        out.wedged = true;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  // Merge.
  WorkerResult total;
  std::vector<std::uint64_t> all_us;
  std::map<int, std::vector<std::uint64_t>> per_kind_us;
  for (const WorkerResult& r : results) {
    total.ok += r.ok;
    total.cached += r.cached;
    total.coalesced += r.coalesced;
    total.overloaded_retries += r.overloaded_retries;
    total.deadline_exceeded += r.deadline_exceeded;
    total.dropped += r.dropped;
    total.mismatches += r.mismatches;
    total.errors += r.errors;
    total.wedged = total.wedged || r.wedged;
    for (const Sample& sample : r.samples) {
      all_us.push_back(sample.us);
      per_kind_us[static_cast<int>(
                      shape_queries[static_cast<std::size_t>(sample.shape)]
                          .kind)]
          .push_back(sample.us);
    }
  }
  std::sort(all_us.begin(), all_us.end());

  // Server-side counters over the wire (works for external daemons too).
  serve::Json server_stats = serve::Json::object();
  try {
    serve::Client probe(socket);
    const serve::Json response =
        probe.call(serve::Client::request(0, "stats"));
    if (response.get("ok")->as_bool()) server_stats = *response.get("result");
  } catch (const std::exception&) {
    // stats are best-effort; the client-side numbers stand alone
  }

  if (server != nullptr) server->stop();

  serve::Json report = serve::Json::object();
  {
    serve::Json context = serve::Json::object();
    for (const auto& [key, value] : bench::bench_context()) {
      context.set(key, serve::Json::string(value));
    }
    context.set("queries", serve::Json::integer(queries));
    context.set("connections", serve::Json::integer(connections));
    context.set("inflight", serve::Json::integer(window));
    context.set("seed", serve::Json::integer(seed));
    context.set("fault_seed", serve::Json::integer(fault_seed));
    context.set("deadline_ms", serve::Json::integer(deadline_ms));
    report.set("context", std::move(context));
  }
  {
    serve::Json totals = serve::Json::object();
    totals.set("ok", serve::Json::integer(static_cast<std::int64_t>(total.ok)));
    totals.set("cached",
               serve::Json::integer(static_cast<std::int64_t>(total.cached)));
    totals.set("coalesced", serve::Json::integer(
                                static_cast<std::int64_t>(total.coalesced)));
    totals.set("overloaded_retries",
               serve::Json::integer(
                   static_cast<std::int64_t>(total.overloaded_retries)));
    totals.set("deadline_exceeded",
               serve::Json::integer(
                   static_cast<std::int64_t>(total.deadline_exceeded)));
    totals.set("dropped",
               serve::Json::integer(static_cast<std::int64_t>(total.dropped)));
    totals.set("verify_mismatches", serve::Json::integer(static_cast<
                                        std::int64_t>(total.mismatches)));
    totals.set("unexpected_errors",
               serve::Json::integer(static_cast<std::int64_t>(total.errors)));
    totals.set("wall_seconds", serve::Json::number(wall_s));
    totals.set("throughput_qps",
               serve::Json::number(wall_s > 0
                                       ? static_cast<double>(total.ok) / wall_s
                                       : 0.0));
    report.set("totals", std::move(totals));
  }
  {
    serve::Json latency = serve::Json::object();
    const auto emit = [](std::vector<std::uint64_t>& us) {
      std::sort(us.begin(), us.end());
      serve::Json entry = serve::Json::object();
      entry.set("count",
                serve::Json::integer(static_cast<std::int64_t>(us.size())));
      entry.set("p50_us", serve::Json::integer(
                              static_cast<std::int64_t>(percentile(us, 0.50))));
      entry.set("p90_us", serve::Json::integer(
                              static_cast<std::int64_t>(percentile(us, 0.90))));
      entry.set("p99_us", serve::Json::integer(
                              static_cast<std::int64_t>(percentile(us, 0.99))));
      return entry;
    };
    latency.set("all", emit(all_us));
    for (auto& [kind, us] : per_kind_us) {
      latency.set(serve::kind_name(static_cast<serve::QueryKind>(kind)),
                  emit(us));
    }
    report.set("latency", std::move(latency));
  }
  report.set("server", std::move(server_stats));

  const std::string text = report.dump();
  std::printf("%s\n", text.c_str());
  if (!json_out.empty()) {
    std::FILE* file = std::fopen(json_out.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::fwrite(text.data(), 1, text.size(), file);
    std::fputc('\n', file);
    std::fclose(file);
    std::fprintf(stderr, "report -> %s\n", json_out.c_str());
  }

  if (!temp_root.empty()) {
    std::error_code ec;
    fs::remove_all(temp_root, ec);
  }

  if (total.wedged || total.mismatches != 0 || total.errors != 0 ||
      total.ok == 0) {
    std::fprintf(stderr,
                 "loadgen FAIL: wedged=%d mismatches=%llu errors=%llu ok=%llu\n",
                 total.wedged ? 1 : 0,
                 static_cast<unsigned long long>(total.mismatches),
                 static_cast<unsigned long long>(total.errors),
                 static_cast<unsigned long long>(total.ok));
    return 1;
  }
  return 0;
}
