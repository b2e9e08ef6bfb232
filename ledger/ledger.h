#pragma once

// Shared pieces of the layer-ledger driver: the span tracer, the
// expected-answer table, and the interface every workload implements.
//
// A workload is a fixed list of items (one public-library call chain each)
// run in a seeded order. The driver runs it as untraced timed passes, then
// one traced pass in which the workload decomposes each item into its
// layer calls and records one tracer span per call.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Value at quantile q (0..1) of `values`, interpolated linearly between
/// the closest ranks of a sorted copy; 0 for no values.
double quantile(std::vector<double> values, double q);

/// In-memory span recorder for the traced pass. Single-threaded: spans are
/// opened and closed on the thread that drives the pass. Each span keeps
/// its name, start, end, parent, and the item it belongs to.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;
    int item = -1;
  };

  /// RAII span; a null tracer makes it a no-op.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int item = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  /// Self time per span name in milliseconds: each span's duration minus
  /// the part its direct children cover.
  std::map<std::string, double> self_ms() const;
  /// Self time of the spans named `name`, in milliseconds (0 if none).
  double self_ms(const std::string& name) const;
  /// Total duration of root spans, in seconds.
  double root_seconds() const;
  /// Writes every span as JSON lines; false on I/O error.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Expected answers keyed by item id, one "id<TAB>answer" line each.
class Expected {
 public:
  /// Reads `path`; an unreadable file leaves the table empty.
  bool load(const std::string& path);
  /// True when `answer` matches the table; a missing id does not match.
  bool matches(const std::string& id, const std::string& answer) const;

 private:
  std::map<std::string, std::string> answers_;
};

/// Per-layer metrics: name -> value (units live in BENCHMARK.json).
using LayerMetrics = std::map<std::string, double>;

struct Answer {
  std::string id;
  std::string value;
  /// Operations that gave this answer (serve folds repeated requests).
  std::size_t count = 1;
};

struct PassResult {
  /// The answers of every operation the pass ran.
  std::vector<Answer> answers;
  /// Operations that raised instead of answering.
  std::size_t errors = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs every item once, in this workload's seeded order. With a tracer,
  /// each layer call gets its own span.
  virtual PassResult run_pass(Tracer* tracer) = 0;
  /// Called after each timed (untraced) pass, so a workload can keep
  /// figures from timed passes only.
  virtual void note_timed_pass() {}
  /// Per-layer metrics measured by the traced pass (plus anything the
  /// workload collected in its timed passes). Every name the workload does
  /// not measure is filled with 0 by the driver.
  virtual void layer_metrics(const Tracer& tracer, double traced_pass_s,
                             LayerMetrics& out) = 0;
};

/// Layer metrics read from the library's own obs spans and counters
/// recorded during the traced pass (construction sub-phases, Morse, rank,
/// pool busy share), so composite calls are never re-run to split them.
void obs_layer_metrics(double traced_pass_s, LayerMetrics& out);

/// Factory: "sweep", "wall", "decide", "serve"; null for an unknown name.
/// `work_dir` is a writable directory inside the checkout.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir);
std::unique_ptr<Workload> make_serve_workload(std::uint64_t seed,
                                              const std::string& work_dir);

/// Deterministic Fisher-Yates permutation of 0..n-1 from `seed`.
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed);

}  // namespace ledger
