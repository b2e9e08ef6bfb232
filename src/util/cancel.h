#pragma once

// Cooperative per-thread deadlines for long-running queries.
//
// The serving layer (src/serve) gives each query a wall-clock budget; the
// engines honour it by calling poll_deadline() at natural safe points — the
// construction pipeline's level boundaries, the homology engine's
// per-dimension elimination boundaries, and the solvability engine's
// search and propagation loops. When the budget is exhausted the poll throws
// DeadlineExceeded, which unwinds the computation without leaving shared
// state behind (the engines build into local structures until they return).
//
// The deadline is thread-local: a worker sets it with a DeadlineScope before
// running a query, and a query computes entirely on the thread that runs
// it, so every poll in it sees the deadline. With no scope active,
// poll_deadline() is a single thread-local load and compare — the batch
// binaries pay nothing for the hook.
//
// Cancellation never changes results: a query either completes with bytes
// identical to an undeadlined run, or throws and produces no result at all.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace psph::util {

/// Thrown by poll_deadline() when the active deadline has passed.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error("deadline exceeded") {}
};

namespace detail {
// constinit lets other translation units access the variable directly
// instead of through GCC's TLS wrapper function.
// Absolute steady-clock deadline in nanoseconds since epoch; 0 = none.
extern constinit thread_local std::int64_t t_deadline_ns;
[[noreturn]] void throw_deadline_exceeded();
std::int64_t steady_now_ns();
}  // namespace detail

/// True while a DeadlineScope is active on this thread.
inline bool deadline_active() { return detail::t_deadline_ns != 0; }

/// Throws DeadlineExceeded if this thread's deadline has passed; no-op (one
/// thread-local load) when no deadline is set. Safe to call from hot-ish
/// loops — the clock is only read while a deadline is active.
inline void poll_deadline() {
  const std::int64_t deadline = detail::t_deadline_ns;
  if (deadline != 0 && detail::steady_now_ns() >= deadline) {
    detail::throw_deadline_exceeded();
  }
}

/// RAII: sets this thread's deadline to an absolute steady-clock time point,
/// restoring the previous deadline (usually none) on destruction. Nested
/// scopes keep the *earlier* of the two deadlines, so an outer budget can
/// never be extended by an inner one.
class DeadlineScope {
 public:
  explicit DeadlineScope(std::chrono::steady_clock::time_point deadline)
      : previous_(detail::t_deadline_ns) {
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline.time_since_epoch())
            .count();
    // 0 is the "no deadline" sentinel; never install it.
    if (ns != 0) {
      detail::t_deadline_ns = previous_ == 0 ? ns : std::min(previous_, ns);
    }
  }
  ~DeadlineScope() { detail::t_deadline_ns = previous_; }

  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

 private:
  std::int64_t previous_;
};

}  // namespace psph::util
