// ledger_driver — runs one layer-ledger workload and prints its metrics.
//
//   ledger_driver --workload sweep --seed 1 --seconds 10 --trace 0
//                 --expected ledger/expected/sweep.tsv --work-dir DIR
//
// Sequence: one untimed warm-up pass (items in a fixed order), then timed
// passes (items in the seed's order) with obs recording off until
// --seconds have elapsed (pass_s is their median). With --trace 1 one more
// pass runs with tracing on and the per-layer metrics are printed instead
// of the end-to-end ones.
//
// setup_s is the median of kSetups set-ups, each timed from the spawn of a
// process (--spawned-at, CLOCK_MONOTONIC nanoseconds; else entry to main)
// to the end of its warm-up pass. This process gives the first; the others
// come from fresh processes of this binary started with --setup-probe 1,
// which run only their own start and warm-up pass and print one line.
//
// Every answer of every pass is checked against the expected table;
// --record PATH writes the observed answers as a table instead.
//
// Output: "# context {...}" and "# detail {...}" lines, then as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"}.
// Refuses to run (exit 3) from an unoptimized build.

#include <malloc.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "ledger.h"
#include "obs/obs.h"
#include "util/parallel.h"

extern char** environ;

namespace {

using ledger::Clock;

/// Set-ups per run: this process plus kSetups - 1 probe processes.
constexpr int kSetups = 3;
/// The warm-up pass runs the items in this seed's order in every run: how
/// long the first pass in a process takes depends on which items come
/// first (sweep: 1.5 s or 2.1 s by seed), and set-up should measure the
/// same work whatever the run's seed.
constexpr std::uint64_t kSetupSeed = 1;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"}, {"pass_s", "s"}, {"peak_rss_mb", "MB"}};

constexpr Metric kPerLayer[] = {
    {"core.build_ms", "ms"},
    {"core.consume_ms", "ms"},
    {"core.expand_ms", "ms"},
    {"core.remap_ms", "ms"},
    {"core.dedupe_ms", "ms"},
    {"core.facets", "count"},
    {"core.cache_hit_ratio", "ratio"},
    {"orbit.build_ms", "ms"},
    {"orbit.fvector_ms", "ms"},
    {"orbit.reconstitute_ms", "ms"},
    {"orbit.reps", "count"},
    {"topology.face_cache_ms", "ms"},
    {"topology.morse_ms", "ms"},
    {"topology.morse_kept_ratio", "ratio"},
    {"topology.homology_ms", "ms"},
    {"math.rank_ms", "ms"},
    {"solve.instance_ms", "ms"},
    {"solve.search_ms", "ms"},
    {"solve.verify_ms", "ms"},
    {"solve.nodes", "count"},
    {"solve.propagations", "count"},
    {"solve.learned_nogoods", "count"},
    {"store.load_ms", "ms"},
    {"store.save_ms", "ms"},
    {"store.hit_ratio", "ratio"},
    {"store.syncs_skipped", "count"},
    {"serve.compute_ms.connectivity", "ms"},
    {"serve.compute_ms.homology", "ms"},
    {"serve.compute_ms.complex_stats", "ms"},
    {"serve.compute_ms.decide", "ms"},
    {"serve.render_ms", "ms"},
    {"serve.parse_us", "us"},
    {"serve.wait_ms", "ms"},
    {"serve.computed", "count"},
    {"serve.cache_hits", "count"},
    {"serve.coalesced", "count"},
    {"serve.overloaded", "count"},
    {"serve.cold_qps", "1/s"},
    {"serve.cold_p50_ms", "ms"},
    {"serve.cold_p98_ms", "ms"},
    {"serve.warm_qps", "1/s"},
    {"serve.warm_p50_ms", "ms"},
    {"serve.warm_p99_ms", "ms"},
    {"pool.busy_share", "ratio"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.unattributed_share", "ratio"},
};

int usage(const char* message) {
  std::fprintf(stderr, "ledger_driver: %s\n", message);
  return 2;
}

int online_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string metrics_json(const std::vector<std::pair<Metric, double>>& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(values[i].first.name) +
           ": {\"value\": " + number(values[i].second) +
           ", \"unit\": " + json_string(values[i].first.unit) + "}";
  }
  return out + "}";
}

/// When the process was spawned: `spawned_ns` (CLOCK_MONOTONIC, which
/// steady_clock reads) if given and not after `main_entry`, else
/// `main_entry`.
Clock::time_point spawn_time(const std::string& spawned_ns,
                             Clock::time_point main_entry) {
  if (spawned_ns.empty()) return main_entry;
  const Clock::time_point spawned(std::chrono::duration_cast<Clock::duration>(
      std::chrono::nanoseconds(std::strtoll(spawned_ns.c_str(), nullptr, 10))));
  return std::min(spawned, main_entry);
}

/// Runs this binary with `args` plus --spawned-at now, and returns what it
/// printed; nullopt when it could not start or exited other than 0.
std::optional<std::string> run_probe(std::vector<std::string> args) {
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  args.push_back("--spawned-at");
  args.push_back(std::to_string(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                    Clock::now().time_since_epoch())
                                    .count()));
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  if (spawned == 0) {
    char buffer[4096];
    for (;;) {
      const ssize_t n = read(fds[0], buffer, sizeof buffer);
      if (n > 0) {
        out.append(buffer, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
  }
  close(fds[0]);
  if (spawned != 0) return std::nullopt;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return out;
}

std::string samples_json(const std::vector<double>& samples) {
  std::string out = "[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out += (i ? ", " : "") + number(samples[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point main_entry = Clock::now();
  std::map<std::string, std::string> args{
      {"workload", ""},  {"seed", "1"},       {"seconds", "10"},
      {"trace", "0"},    {"expected", ""},    {"record", ""},
      {"work-dir", "."}, {"spans-out", ""},   {"commit", "unknown"},
      {"spawned-at", ""}, {"setup-probe", "0"}};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || !args.count(flag.substr(2))) {
      return usage(("unknown argument " + flag).c_str());
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    args[flag.substr(2)] = argv[++i];
  }

  if (!psph::bench::warn_if_unoptimized_build()) {
    std::fprintf(stderr, "ledger_driver: refusing to record from a '%s' build\n",
                 psph::bench::build_type());
    return 3;
  }

  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::atof(args["seconds"].c_str());
  const bool trace = args["trace"] == "1";
  const bool probe = args["setup-probe"] == "1";
  // A fixed thread count, never PSPH_THREADS: min(nproc, 4).
  const int cpus = online_cpus();
  psph::util::set_thread_count(std::min(cpus, 4));
  psph::obs::set_enabled(false);

  ledger::Expected expected;
  const bool recording = !args["record"].empty();
  if (!recording && !expected.load(args["expected"])) {
    return usage(("cannot read expected table '" + args["expected"] + "'").c_str());
  }
  std::filesystem::create_directories(args["work-dir"]);
  std::unique_ptr<ledger::Workload> warm_up =
      ledger::make_workload(args["workload"], kSetupSeed, args["work-dir"]);
  if (!warm_up) return usage(("unknown workload '" + args["workload"] + "'").c_str());

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, std::set<std::string>> observed;
  // Counts one pass's answers, then hands freed heap back to the OS so
  // peak_rss_mb measures one pass's working set, not how much the
  // allocator's per-thread arenas kept from earlier passes.
  const auto account = [&](const ledger::PassResult& pass) {
    attempted += pass.errors;
    failed += pass.errors;
    for (const ledger::Answer& answer : pass.answers) {
      attempted += answer.count;
      if (recording) {
        observed[answer.id].insert(answer.value);
      } else if (!expected.matches(answer.id, answer.value)) {
        failed += answer.count;
      }
    }
    malloc_trim(0);
  };

  // Set-up: process start through the untimed warm-up pass.
  std::vector<double> setup_s;
  {
    const ledger::PassResult pass = warm_up->run_pass(nullptr);
    setup_s.push_back(
        ledger::seconds_since(spawn_time(args["spawned-at"], main_entry)));
    account(pass);
  }
  if (probe) {
    std::printf("{\"setup_s\": %s, \"attempted\": %zu, \"failed\": %zu}\n",
                number(setup_s[0]).c_str(), attempted, failed);
    return 0;
  }
  // The other set-ups, each in a fresh process. Recording has no table
  // to check a probe's answers against, so it takes the one sample.
  for (int i = 1; i < kSetups && !recording; ++i) {
    const std::optional<std::string> out = run_probe(
        {argv[0], "--workload", args["workload"], "--seed", args["seed"],
         "--expected", args["expected"], "--work-dir", args["work-dir"],
         "--setup-probe", "1"});
    double sample = 0;
    std::size_t probe_attempted = 0;
    std::size_t probe_failed = 0;
    if (!out || std::sscanf(out->c_str(),
                            "{\"setup_s\": %lf, \"attempted\": %zu, "
                            "\"failed\": %zu}",
                            &sample, &probe_attempted, &probe_failed) != 3) {
      std::fprintf(stderr, "ledger_driver: set-up probe %d failed\n", i);
      return 1;
    }
    setup_s.push_back(sample);
    attempted += probe_attempted;
    failed += probe_failed;
  }

  warm_up.reset();
  const std::unique_ptr<ledger::Workload> workload =
      ledger::make_workload(args["workload"], seed, args["work-dir"]);

  // Timed passes, obs recording off.
  std::vector<double> pass_s;
  const Clock::time_point timed_start = Clock::now();
  while (pass_s.empty() || ledger::seconds_since(timed_start) < seconds) {
    const Clock::time_point start = Clock::now();
    const ledger::PassResult pass = workload->run_pass(nullptr);
    pass_s.push_back(ledger::seconds_since(start));
    account(pass);
    workload->note_timed_pass();
  }
  const double pass_median = ledger::quantile(pass_s, 0.5);

  std::vector<std::pair<Metric, double>> metrics;
  if (trace) {
    psph::obs::reset();
    psph::obs::set_enabled(true);
    ledger::Tracer tracer;
    const Clock::time_point start = Clock::now();
    const ledger::PassResult pass = workload->run_pass(&tracer);
    const double traced_s = ledger::seconds_since(start);
    account(pass);
    ledger::LayerMetrics layers;
    layers["trace.overhead_ratio"] = traced_s / pass_median;
    const auto self = tracer.self_ms();
    double attributed_ms = 0;
    for (const auto& [name, ms] : self) {
      if (name != "pass" && name != "item") attributed_ms += ms;
    }
    layers["trace.unattributed_share"] =
        std::max(0.0, 1.0 - attributed_ms / (traced_s * 1e3));
    workload->layer_metrics(tracer, traced_s, layers);
    psph::obs::set_enabled(false);
    if (!args["spans-out"].empty() && !tracer.write(args["spans-out"])) {
      std::fprintf(stderr, "ledger_driver: cannot write %s\n",
                   args["spans-out"].c_str());
    }
    for (const Metric& metric : kPerLayer) {
      metrics.emplace_back(metric, layers.count(metric.name) ? layers[metric.name] : 0.0);
    }
  } else {
    struct rusage usage_info {};
    getrusage(RUSAGE_SELF, &usage_info);
    metrics.emplace_back(kEndToEnd[0], ledger::quantile(setup_s, 0.5));
    metrics.emplace_back(kEndToEnd[1], pass_median);
    metrics.emplace_back(kEndToEnd[2],
                         static_cast<double>(usage_info.ru_maxrss) / 1024.0);
  }

  if (recording) {
    std::ofstream out(args["record"]);
    out << "# expected answers for the " << args["workload"]
        << " workload: item id<TAB>answer\n";
    for (const auto& [id, answers] : observed) {
      if (answers.size() != 1) {
        std::fprintf(stderr, "ledger_driver: %s answered inconsistently\n",
                     id.c_str());
        return 1;
      }
      out << id << '\t' << *answers.begin() << '\n';
    }
    if (!out.flush()) {
      std::fprintf(stderr, "ledger_driver: cannot write %s\n",
                   args["record"].c_str());
      return 1;
    }
  }

  std::string context = "{";
  for (const auto& [key, value] : psph::bench::bench_context()) {
    context += json_string(key) + ": " + json_string(value) + ", ";
  }
  context += "\"nproc\": " + std::to_string(cpus) +
             ", \"workload\": " + json_string(args["workload"]) +
             ", \"seed\": " + std::to_string(seed) +
             ", \"commit\": " + json_string(args["commit"]) + "}";
  std::printf("# context %s\n", context.c_str());
  std::printf("# detail {\"setup_s\": %s, \"pass_s\": %s}\n",
              samples_json(setup_s).c_str(), samples_json(pass_s).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              metrics_json(metrics).c_str());
  return 0;
}
