#include "util/cancel.h"

namespace psph::util::detail {

constinit thread_local std::int64_t t_deadline_ns = 0;
constinit thread_local const std::atomic<bool>* t_cancel_flag = nullptr;

void throw_deadline_exceeded() { throw DeadlineExceeded(); }

void throw_operation_cancelled() { throw OperationCancelled(); }

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace psph::util::detail
