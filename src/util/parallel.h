#pragma once

// Deterministic fork-join parallelism across independent jobs.
//
// A process-wide pool of worker threads executes index ranges:
//
//   util::parallel_for(n, [&](std::size_t i) { results[i] = f(i); });
//
// Each index is a whole job: a sweep's uncached grid points, or a serve
// batch's query groups. One query's compute path (construction, homology,
// decision search) never fans out; it runs on the thread that calls it.
//
// The calling thread participates, so thread_count() == 1 means "run
// inline" and the pool holds thread_count() - 1 workers. Work is handed out
// as bare indices from an atomic counter and each index must write only its
// own output slot, which keeps results bit-identical at every thread count:
// parallelism changes *when* slot i is computed, never *what* it contains.
// The count comes from set_thread_count() (e.g. a --threads flag), else the
// PSPH_THREADS environment variable, else 1.
//
// parallel_for called from inside a parallel_for body runs inline on the
// calling worker (no nested fan-out, no deadlock).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace psph::util {

/// Number of threads parallel_for may use (including the caller), >= 1.
int thread_count();

/// Overrides the thread count; n <= 0 selects hardware_concurrency().
void set_thread_count(int n);

/// A fixed-size fork-join pool. Most code should use parallel_for (which
/// shares one pool sized by thread_count()); direct construction is for
/// tests and callers that need an isolated pool.
class ThreadPool {
 public:
  /// Spawns `workers` threads (0 is valid: run() then executes inline).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(0)..fn(n-1) on the workers plus the calling thread and blocks
  /// until every index completes. The first exception thrown by fn is
  /// rethrown in the caller once the batch has drained. One run() at a
  /// time per pool.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  void work_off(const std::function<void(std::size_t)>& fn, std::size_t n);

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_size_ = 0;
  std::atomic<std::size_t> next_index_{0};
  std::size_t busy_ = 0;
  std::uint64_t epoch_ = 0;
  std::exception_ptr first_error_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn(0)..fn(n-1) across the shared pool; blocks until done. Inline
/// when thread_count() == 1, n <= 1, or already inside a parallel_for.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace psph::util
