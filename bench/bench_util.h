#pragma once

// Shared output helpers for the experiment binaries. Each binary prints a
// header, one row per configuration, and a PASS/FAIL summary; it exits
// nonzero if any checked property failed, so `for b in build/bench/*; do $b;
// done` doubles as an acceptance run.

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <utility>

#include "obs/obs.h"
#include "util/cli.h"
#include "util/parallel.h"

namespace psph::bench {

/// CMake build type this binary was compiled under ("Release",
/// "RelWithDebInfo", "Debug", ...), for stamping measured output.
inline const char* build_type() {
#ifdef PSPH_BUILD_TYPE
  return PSPH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

/// Prints an unmissable warning when timing numbers are about to come out
/// of an unoptimized binary. Release and RelWithDebInfo both compile with
/// -O2 -DNDEBUG and are fine; anything else (notably Debug, -O0) produces
/// numbers that must not be recorded as baselines. Returns true if the
/// build is optimized.
inline bool warn_if_unoptimized_build() {
  const std::string type = build_type();
  if (type == "Release" || type == "RelWithDebInfo") return true;
  std::fprintf(stderr,
               "********************************************************\n"
               "* WARNING: this benchmark binary was built as '%s'.\n"
               "* Timings from unoptimized builds are meaningless; do\n"
               "* NOT record them as baselines. Rebuild with\n"
               "*   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release\n"
               "* (the bench_json target does this automatically).\n"
               "********************************************************\n",
               type.c_str());
  return false;
}

/// The measurement context every JSON-emitting benchmark stamps into its
/// output: build type, visible CPUs and pool size. The google-benchmark
/// binaries feed these to AddCustomContext; hand-rolled emitters
/// (psph_loadgen) write them into their own JSON — one definition keeps the
/// field set in sync.
inline std::vector<std::pair<std::string, std::string>> bench_context() {
  return {
      {"build_type", build_type()},
      {"hardware_concurrency",
       std::to_string(std::thread::hardware_concurrency())},
      {"psph_threads", std::to_string(util::thread_count())},
  };
}

/// Prints a warning when the machine exposes a single hardware thread:
/// parallel speedups cannot show up, so multi-thread timings recorded here
/// describe scheduling overhead, not the engine. Returns the detected
/// count (0 when unknown, per the standard).
inline unsigned warn_if_single_cpu() {
  const unsigned cpus = std::thread::hardware_concurrency();
  if (cpus == 1) {
    std::fprintf(stderr,
                 "********************************************************\n"
                 "* WARNING: only 1 hardware thread is visible. Parallel\n"
                 "* paths will run inline; do not read thread-scaling\n"
                 "* conclusions out of timings from this machine.\n"
                 "********************************************************\n");
  }
  return cpus;
}

/// Consumes a leading-anywhere `--threads=N` / `--threads N` flag, applying
/// it via util::set_thread_count, and compacts argv. Returns the new argc.
/// The perf binaries call this before benchmark::Initialize so the flag
/// coexists with google-benchmark's own arguments. A --threads with no
/// value or a malformed count is a hard error (exit 2), not a silent
/// fallback to a default thread count.
inline int apply_threads_flag(int argc, char** argv) {
  const auto parse_count = [](const char* text) {
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(text, &end, 10);
    if (*text == '\0' || end == nullptr || *end != '\0' || errno == ERANGE ||
        value < INT_MIN || value > INT_MAX) {
      std::fprintf(stderr, "bad value for --threads: '%s'\n", text);
      std::exit(2);
    }
    return static_cast<int>(value);
  };
  int out = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      util::set_thread_count(parse_count(argv[i] + 10));
      continue;
    }
    if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "flag --threads needs a value but is last on the "
                     "command line\n");
        std::exit(2);
      }
      util::set_thread_count(parse_count(argv[++i]));
      continue;
    }
    argv[out++] = argv[i];
  }
  for (int i = out; i < argc; ++i) argv[i] = nullptr;
  return out;
}

/// Observability output requested on the command line. Every bench binary
/// accepts the same two flags: --stats prints the aggregated span/counter
/// table after the run, --trace-out=<file> writes a Chrome trace_event JSON
/// loadable in chrome://tracing or https://ui.perfetto.dev. Recording is
/// additionally gated by PSPH_OBS (PSPH_OBS=0 disables it entirely).
struct ObsOptions {
  std::string trace_out;
  bool stats = false;
};

/// Registers --trace-out / --stats on a util::Cli (the sweep binaries).
inline void add_obs_flags(util::Cli& cli, ObsOptions* options) {
  cli.flag("trace-out", &options->trace_out,
           "write Chrome trace_event JSON here (chrome://tracing)");
  cli.flag("stats", &options->stats,
           "print the observability stats table after the run");
}

/// Consumes --trace-out=<file> / --trace-out <file> / --stats from argv and
/// compacts it, same contract as apply_threads_flag. For the
/// google-benchmark binaries, whose argv must be filtered before
/// benchmark::Initialize rejects unknown flags.
inline int apply_obs_flags(int argc, char** argv, ObsOptions* options) {
  int out = 0;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      options->trace_out = argv[i] + 12;
      continue;
    }
    if (std::strcmp(argv[i], "--trace-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "flag --trace-out needs a value but is last on the "
                     "command line\n");
        std::exit(2);
      }
      options->trace_out = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--stats") == 0) {
      options->stats = true;
      continue;
    }
    argv[out++] = argv[i];
  }
  for (int i = out; i < argc; ++i) argv[i] = nullptr;
  return out;
}

/// Emits the requested observability output at the end of a run. Returns 0,
/// or 1 when a requested trace file could not be written (so callers can
/// fold it into the exit code).
inline int finish_obs(const ObsOptions& options) {
  if (options.stats) {
    std::fputs(obs::stats_table().c_str(), stdout);
  }
  if (options.trace_out.empty()) return 0;
  if (!obs::write_trace(options.trace_out)) {
    std::fprintf(stderr, "failed to write trace to %s\n",
                 options.trace_out.c_str());
    return 1;
  }
  std::printf("trace -> %s (load in chrome://tracing or ui.perfetto.dev)\n",
              options.trace_out.c_str());
  return 0;
}

class Report {
 public:
  Report(std::string experiment, std::string claim)
      : experiment_(std::move(experiment)) {
    std::printf("=== %s ===\n", experiment_.c_str());
    std::printf("claim: %s\n", claim.c_str());
  }

  void header(const std::string& columns) {
    std::printf("%s\n", columns.c_str());
  }

  template <typename... Args>
  void row(const char* format, Args... args) {
    std::printf(format, args...);
    std::printf("\n");
  }

  /// Records one checked property; prints a marker on failure.
  void check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) {
      ++failures_;
      std::printf("  CHECK FAILED: %s\n", what.c_str());
    }
  }

  /// Prints the summary; returns the process exit code.
  int finish() {
    std::printf("%s: %zu/%zu checks passed\n\n", experiment_.c_str(),
                checks_ - failures_, checks_);
    return failures_ == 0 ? 0 : 1;
  }

 private:
  std::string experiment_;
  std::size_t checks_ = 0;
  std::size_t failures_ = 0;
};

}  // namespace psph::bench
