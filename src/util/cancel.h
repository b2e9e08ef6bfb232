#pragma once

// Cooperative per-thread deadlines for long-running queries.
//
// The serving layer (src/serve) gives each query a wall-clock budget; the
// engines honour it by calling poll_deadline() at natural safe points — the
// construction pipeline's level boundaries, the homology engine's
// per-dimension elimination boundaries, and every few thousand
// decision-search nodes. When the budget is exhausted the poll throws
// DeadlineExceeded, which unwinds the computation without leaving shared
// state behind (the engines build into local structures until they return).
//
// The deadline is thread-local: a worker sets it with a DeadlineScope before
// running a query, and a query computes on the thread that runs it, so every
// poll in it sees the deadline (the one fan-out inside a query, the solve
// portfolio, re-installs it on each racer). With no scope active,
// poll_deadline() is a single thread-local load and compare — the batch
// binaries pay nothing for the hook.
//
// Cancellation never changes results: a query either completes with bytes
// identical to an undeadlined run, or throws and produces no result at all.
//
// Alongside deadlines there is a second, flag-based cooperative mechanism:
// a CancelScope installs a shared atomic flag on the thread, and
// poll_deadline() throws OperationCancelled once the flag is raised. The
// solvability engine's portfolio (src/solve) uses it for first-finisher-
// wins: the winning worker raises the flag and every other worker unwinds
// at its next poll. The two mechanisms compose — a deadline outranks a
// cancellation, so a query that is both late and raced still reports
// deadline_exceeded.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>

namespace psph::util {

/// Thrown by poll_deadline() when the active deadline has passed.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error("deadline exceeded") {}
};

/// Thrown by poll_deadline() when the active CancelScope's flag is raised.
/// Internal control flow (a portfolio worker losing the race), not an
/// error: the raiser catches it and carries on with the winner's result.
class OperationCancelled : public std::runtime_error {
 public:
  OperationCancelled() : std::runtime_error("operation cancelled") {}
};

namespace detail {
// constinit lets other translation units access both directly instead of
// through GCC's TLS wrapper function, on which -fsanitize=undefined reports
// a null-pointer load in CancelScope.
// Absolute steady-clock deadline in nanoseconds since epoch; 0 = none.
extern constinit thread_local std::int64_t t_deadline_ns;
// Cooperative cancellation flag installed by a CancelScope; null = none.
extern constinit thread_local const std::atomic<bool>* t_cancel_flag;
[[noreturn]] void throw_deadline_exceeded();
[[noreturn]] void throw_operation_cancelled();
std::int64_t steady_now_ns();
}  // namespace detail

/// True while a DeadlineScope is active on this thread.
inline bool deadline_active() { return detail::t_deadline_ns != 0; }

/// This thread's absolute deadline in steady-clock nanoseconds (0 = none).
/// Lets a fork-join fan-out re-establish the caller's budget on pool
/// threads, which have their own (empty) thread-local deadline.
inline std::int64_t current_deadline_ns() { return detail::t_deadline_ns; }

/// Throws DeadlineExceeded if this thread's deadline has passed, then
/// OperationCancelled if an active CancelScope's flag is raised; no-op (two
/// thread-local loads) when neither is set. Safe to call from hot-ish
/// loops — the clock is only read while a deadline is active.
inline void poll_deadline() {
  const std::int64_t deadline = detail::t_deadline_ns;
  if (deadline != 0 && detail::steady_now_ns() >= deadline) {
    detail::throw_deadline_exceeded();
  }
  const std::atomic<bool>* flag = detail::t_cancel_flag;
  if (flag != nullptr && flag->load(std::memory_order_relaxed)) {
    detail::throw_operation_cancelled();
  }
}

/// RAII: sets this thread's deadline to an absolute steady-clock time point,
/// restoring the previous deadline (usually none) on destruction. Nested
/// scopes keep the *earlier* of the two deadlines, so an outer budget can
/// never be extended by an inner one.
class DeadlineScope {
 public:
  explicit DeadlineScope(std::chrono::steady_clock::time_point deadline)
      : DeadlineScope(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          deadline.time_since_epoch())
                          .count()) {}

  /// Raw-nanosecond form, for re-installing a deadline captured with
  /// current_deadline_ns() on another thread (portfolio workers). ns == 0
  /// installs nothing (keeps the previous deadline, usually none).
  explicit DeadlineScope(std::int64_t ns) : previous_(detail::t_deadline_ns) {
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

/// RAII: installs a cooperative cancellation flag on this thread, restoring
/// the previous flag (usually none) on destruction. The flag object must
/// outlive the scope; raising it makes every poll_deadline() on this thread
/// throw OperationCancelled until the scope ends. Nested scopes shadow the
/// outer flag for their extent.
class CancelScope {
 public:
  explicit CancelScope(const std::atomic<bool>& flag)
      : previous_(detail::t_cancel_flag) {
    detail::t_cancel_flag = &flag;
  }
  ~CancelScope() { detail::t_cancel_flag = previous_; }

  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  const std::atomic<bool>* previous_;
};

}  // namespace psph::util
