#pragma once

// An α-style synchronizer (Related Work, Awerbuch [Awe85]): run a
// synchronous round-based protocol on top of an asynchronous/timed network
// *in the absence of faults* by advancing rounds on message counts instead
// of timeouts — a process enters round r+1 once it holds all n+1 round-r
// messages.
//
// The paper contrasts this "translation" school of unification with its own
// "common concepts" approach; having both in one codebase makes the
// trade-off concrete:
//   * the synchronizer's decision time tracks actual message delays (no
//     C = c2/c1 penalty, unlike the timeout emulation in semisync_kset.h),
//   * but one crash stalls every round thereafter — the fault-free
//     assumption is essential, as the tests demonstrate.
//
// Test-only: it carries the Related Work comparison, and no shipped path
// runs it.

#include <cstdint>
#include <map>
#include <set>

#include "sim/semisync_executor.h"

namespace psph::oracle {

struct SynchronizerConfig {
  int num_processes = 3;
  int rounds = 2;  // synchronous rounds to emulate before deciding min
};

/// Protocol factory: FloodMin driven by an α-synchronizer (message-count
/// round advance). Runs on the discrete-event executor with *any* delays —
/// correctness never depends on c1, c2, or d.
sim::ProtocolFactory make_synchronized_floodmin(
    const SynchronizerConfig& config);

}  // namespace psph::oracle
