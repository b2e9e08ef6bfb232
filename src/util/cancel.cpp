#include "util/cancel.h"

namespace psph::util::detail {

constinit thread_local std::int64_t t_deadline_ns = 0;

void throw_deadline_exceeded() { throw DeadlineExceeded(); }

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace psph::util::detail
