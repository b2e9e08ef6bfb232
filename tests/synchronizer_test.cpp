// Tests for the α-synchronizer extension: synchronous FloodMin runs
// correctly over arbitrary delays without failures, its decision time
// tracks message delay (no C penalty), and a single crash stalls it —
// the fault-free assumption Awerbuch's translation needs.

#include <gtest/gtest.h>

#include "oracle/synchronizer.h"
#include "protocols/semisync_kset.h"
#include "sim/semisync_executor.h"
#include "util/random.h"

namespace psph::protocols {
namespace {

using oracle::make_synchronized_floodmin;

TEST(Synchronizer, DecidesMinWithoutFailures) {
  sim::SemiSyncConfig timing{.c1 = 1, .c2 = 3, .d = 7, .num_processes = 4};
  sim::ScriptedSemiSyncAdversary adversary(/*step=*/2, /*delay=*/7);
  const sim::SemiSyncResult result = sim::run_semisync(
      {9, 2, 5, 8}, timing, make_synchronized_floodmin({4, 2}), adversary);
  ASSERT_TRUE(result.all_alive_decided);
  for (const auto& [pid, decision] : result.decisions) {
    (void)pid;
    EXPECT_EQ(decision.value, 2);
  }
}

TEST(Synchronizer, CorrectUnderRandomTimings) {
  util::Rng rng(909);
  sim::SemiSyncConfig timing{.c1 = 1, .c2 = 5, .d = 9, .num_processes = 4};
  for (int trial = 0; trial < 50; ++trial) {
    sim::RandomSemiSyncAdversary adversary(util::Rng(rng.next()), timing,
                                           /*max_crashes=*/0, 0.0, 1);
    std::vector<std::int64_t> inputs;
    std::int64_t min_input = 1 << 20;
    for (int p = 0; p < 4; ++p) {
      inputs.push_back(rng.next_in(0, 100));
      min_input = std::min(min_input, inputs.back());
    }
    const sim::SemiSyncResult result = sim::run_semisync(
        inputs, timing, make_synchronized_floodmin({4, 3}), adversary);
    ASSERT_TRUE(result.all_alive_decided) << "trial " << trial;
    for (const auto& [pid, decision] : result.decisions) {
      (void)pid;
      EXPECT_EQ(decision.value, min_input) << "trial " << trial;
    }
  }
}

TEST(Synchronizer, DecisionTimeTracksDelayNotTimingRatio) {
  // With fast delivery the synchronizer beats the timeout emulation even
  // when C is large: its rounds end on message arrival, not on worst-case
  // schedules.
  sim::SemiSyncConfig timing{.c1 = 1, .c2 = 10, .d = 50, .num_processes = 3};
  sim::ScriptedSemiSyncAdversary fast(/*step=*/1, /*delay=*/1);

  const sim::SemiSyncResult sync_result = sim::run_semisync(
      {3, 1, 2}, timing, make_synchronized_floodmin({3, 2}), fast);
  ASSERT_TRUE(sync_result.all_alive_decided);
  sim::Time synchronizer_last = 0;
  for (const auto& [pid, d] : sync_result.decisions) {
    (void)pid;
    synchronizer_last = std::max(synchronizer_last, d.time);
  }

  SemiSyncKSetConfig timeout_config;
  timeout_config.timing = timing;
  timeout_config.max_failures = 1;
  timeout_config.k = 1;
  sim::ScriptedSemiSyncAdversary fast2(/*step=*/1, /*delay=*/1);
  const sim::SemiSyncResult timeout_result = sim::run_semisync(
      {3, 1, 2}, timing, make_semisync_kset(timeout_config), fast2);
  ASSERT_TRUE(timeout_result.all_alive_decided);
  sim::Time timeout_last = 0;
  for (const auto& [pid, d] : timeout_result.decisions) {
    (void)pid;
    timeout_last = std::max(timeout_last, d.time);
  }
  EXPECT_LT(synchronizer_last, timeout_last);
}

TEST(Synchronizer, OneCrashStallsEveryone) {
  sim::SemiSyncConfig timing{
      .c1 = 1, .c2 = 2, .d = 4, .num_processes = 3, .max_time = 2000};
  sim::ScriptedSemiSyncAdversary adversary(1, 4);
  adversary.set_crash(2, /*when=*/0);
  const sim::SemiSyncResult result = sim::run_semisync(
      {4, 5, 6}, timing, make_synchronized_floodmin({3, 2}), adversary);
  // The survivors wait forever for P2's round-1 message.
  EXPECT_FALSE(result.all_alive_decided);
  EXPECT_TRUE(result.decisions.empty());
}

}  // namespace
}  // namespace psph::protocols
