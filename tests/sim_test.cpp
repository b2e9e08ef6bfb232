// Tests for the executors, adversaries, the trace→complex bridge (the
// cross-validation that exhaustively simulated executions regenerate the
// theoretical protocol complexes exactly), and the semi-synchronous
// discrete-event engine.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/async_complex.h"
#include "core/sync_complex.h"
#include "core/theorems.h"
#include "core/view.h"
#include "sim/adversary.h"
#include "sim/async_executor.h"
#include "sim/bridge.h"
#include "sim/semisync_executor.h"
#include "sim/semisync_round_enum.h"
#include "sim/sync_executor.h"
#include "util/random.h"

namespace psph::sim {
namespace {

using core::ViewRegistry;
using topology::VertexArena;

/// The inputs a state has seen, as a vector.
std::vector<std::int64_t> seen(const ViewRegistry& views, core::StateId state) {
  const std::span<const std::int64_t> values = views.inputs_seen(state);
  return {values.begin(), values.end()};
}

// ----------------------------------------------------------- sync runs ----

class NoFailureSyncAdversary : public SyncAdversary {
 public:
  SyncRoundPlan plan_round(int, const std::vector<ProcessId>&) override {
    return {};
  }
};

// Crashes one scripted process in one scripted round with scripted
// deliveries.
class OneCrashSyncAdversary : public SyncAdversary {
 public:
  OneCrashSyncAdversary(ProcessId victim, int round,
                        std::set<ProcessId> delivered_to)
      : victim_(victim), round_(round), delivered_(std::move(delivered_to)) {}

  SyncRoundPlan plan_round(int round,
                           const std::vector<ProcessId>& alive) override {
    SyncRoundPlan plan;
    if (round == round_ &&
        std::find(alive.begin(), alive.end(), victim_) != alive.end()) {
      plan.crash.push_back(victim_);
      plan.delivered_to[victim_] = delivered_;
    }
    return plan;
  }

 private:
  ProcessId victim_;
  int round_;
  std::set<ProcessId> delivered_;
};

TEST(SyncExecutor, FailureFreeEveryoneHearsEveryone) {
  ViewRegistry views;
  NoFailureSyncAdversary adversary;
  const Trace trace = run_sync({10, 20, 30}, {3, 2}, adversary, views);
  EXPECT_EQ(trace.rounds(), 2);
  ASSERT_EQ(trace.states.back().size(), 3u);
  for (const auto& [pid, state] : trace.states.back()) {
    EXPECT_EQ(seen(views, state), (std::vector<std::int64_t>{10, 20, 30}))
        << "P" << pid;
    EXPECT_EQ(views.round(state), 2);
  }
}

TEST(SyncExecutor, CrashedProcessHasNoFinalState) {
  ViewRegistry views;
  OneCrashSyncAdversary adversary(/*victim=*/2, /*round=*/1,
                                  /*delivered_to=*/{0});
  const Trace trace = run_sync({10, 20, 30}, {3, 1}, adversary, views);
  EXPECT_EQ(trace.states.back().size(), 2u);
  EXPECT_FALSE(trace.final_state(2).has_value());
  // P0 received the crasher's message, P1 did not.
  EXPECT_EQ(seen(views, *trace.final_state(0)),
            (std::vector<std::int64_t>{10, 20, 30}));
  EXPECT_EQ(seen(views, *trace.final_state(1)),
            (std::vector<std::int64_t>{10, 20}));
  EXPECT_EQ(trace.crashed_in[1], (std::vector<ProcessId>{2}));
}

TEST(SyncExecutor, RandomAdversaryRespectsBudget) {
  util::Rng rng(31337);
  for (int trial = 0; trial < 50; ++trial) {
    ViewRegistry views;
    RandomSyncAdversary adversary(rng.split(), /*max_total_failures=*/2,
                                  /*crash_probability=*/0.5);
    const Trace trace = run_sync({1, 2, 3, 4}, {4, 3}, adversary, views);
    std::size_t total_crashed = 0;
    for (const auto& crashed : trace.crashed_in) {
      total_crashed += crashed.size();
    }
    EXPECT_LE(total_crashed, 2u);
    EXPECT_GE(trace.states.back().size(), 2u);
  }
}

// -------------------------------------------- plan validation: sync -------

// Emits a scripted plan in round 1, then runs failure-free.
class ScriptedPlanSyncAdversary : public SyncAdversary {
 public:
  explicit ScriptedPlanSyncAdversary(SyncRoundPlan first) : first_(first) {}
  SyncRoundPlan plan_round(int round,
                           const std::vector<ProcessId>&) override {
    return round == 1 ? first_ : SyncRoundPlan{};
  }

 private:
  SyncRoundPlan first_;
};

TEST(SyncExecutor, RejectsCrashOfDeadProcess) {
  // P0 crashes in round 1; a second crash of P0 in round 2 names a dead pid.
  class CrashTwice : public SyncAdversary {
   public:
    SyncRoundPlan plan_round(int round,
                             const std::vector<ProcessId>&) override {
      SyncRoundPlan plan;
      if (round <= 2) plan.crash = {0};
      return plan;
    }
  } adversary;
  ViewRegistry views;
  EXPECT_THROW(run_sync({0, 1, 2}, {3, 2}, adversary, views),
               std::logic_error);
}

TEST(SyncExecutor, RejectsDuplicateCrashInOnePlan) {
  SyncRoundPlan plan;
  plan.crash = {1, 1};
  ScriptedPlanSyncAdversary adversary(plan);
  ViewRegistry views;
  EXPECT_THROW(run_sync({0, 1, 2}, {3, 1}, adversary, views),
               std::logic_error);
}

TEST(SyncExecutor, RejectsDeliveryPlanForNonCrasher) {
  SyncRoundPlan plan;
  plan.crash = {0};
  plan.delivered_to[1] = {2};  // P1 is not crashing this round
  ScriptedPlanSyncAdversary adversary(plan);
  ViewRegistry views;
  EXPECT_THROW(run_sync({0, 1, 2}, {3, 1}, adversary, views),
               std::logic_error);
}

TEST(SyncExecutor, RejectsDeliveryToNonSurvivor) {
  // A crasher's message delivered to a process crashing the same round.
  SyncRoundPlan plan;
  plan.crash = {0, 1};
  plan.delivered_to[0] = {1};
  ScriptedPlanSyncAdversary adversary(plan);
  ViewRegistry views;
  EXPECT_THROW(run_sync({0, 1, 2, 3}, {4, 1}, adversary, views),
               std::logic_error);
}

TEST(SyncExecutor, AcceptsLegalCrashPlan) {
  SyncRoundPlan plan;
  plan.crash = {0};
  plan.delivered_to[0] = {1};
  ScriptedPlanSyncAdversary adversary(plan);
  ViewRegistry views;
  const Trace trace = run_sync({0, 1, 2}, {3, 2}, adversary, views);
  EXPECT_EQ(trace.states.back().size(), 2u);
}

// ------------------------------------------------------ bridge: sync ------

TEST(Bridge, SyncOneRoundMatchesTheory) {
  // Exhaustive one-round executions with <= 1 crash == S¹(S), literally.
  ViewRegistry views;
  VertexArena arena;
  const topology::Simplex input =
      core::rainbow_input(3, views, arena);
  const topology::SimplicialComplex theory = core::sync_round_complex(
      input, {3, 1, 1, 1}, views, arena);

  TraceComplexBuilder builder(arena);
  enumerate_sync_executions({0, 1, 2}, /*rounds=*/1, /*total_failures=*/1,
                            /*failures_per_round=*/1, views,
                            [&](const Trace& trace) { builder.add(trace); });
  EXPECT_EQ(builder.complex(), theory);
}

TEST(Bridge, SyncTwoRoundsMatchesTheory) {
  ViewRegistry views;
  VertexArena arena;
  const topology::Simplex input = core::rainbow_input(3, views, arena);
  const topology::SimplicialComplex theory = core::sync_protocol_complex(
      input, {3, 2, 1, 2}, views, arena);

  TraceComplexBuilder builder(arena);
  enumerate_sync_executions({0, 1, 2}, /*rounds=*/2, /*total_failures=*/2,
                            /*failures_per_round=*/1, views,
                            [&](const Trace& trace) { builder.add(trace); });
  EXPECT_EQ(builder.complex(), theory);
}

TEST(Bridge, SyncTwoFailuresPerRoundMatchesTheory) {
  ViewRegistry views;
  VertexArena arena;
  const topology::Simplex input = core::rainbow_input(4, views, arena);
  const topology::SimplicialComplex theory = core::sync_round_complex(
      input, {4, 2, 2, 1}, views, arena);

  TraceComplexBuilder builder(arena);
  enumerate_sync_executions({0, 1, 2, 3}, /*rounds=*/1, /*total_failures=*/2,
                            /*failures_per_round=*/2, views,
                            [&](const Trace& trace) { builder.add(trace); });
  EXPECT_EQ(builder.complex(), theory);
}

// ----------------------------------------------------- bridge: async ------

TEST(Bridge, AsyncOneRoundMatchesTheory) {
  ViewRegistry views;
  VertexArena arena;
  const topology::Simplex input = core::rainbow_input(3, views, arena);
  const topology::SimplicialComplex theory =
      core::async_round_complex(input, {3, 1, 1}, views, arena);

  TraceComplexBuilder builder(arena);
  AsyncRunConfig config{3, 1, 1, {}};
  enumerate_async_executions({0, 1, 2}, config, views,
                             [&](const Trace& trace) { builder.add(trace); });
  EXPECT_EQ(builder.complex(), theory);
  EXPECT_EQ(builder.traces_added(), 27u);
}

TEST(Bridge, AsyncTwoRoundsMatchesTheory) {
  ViewRegistry views;
  VertexArena arena;
  const topology::Simplex input = core::rainbow_input(3, views, arena);
  const topology::SimplicialComplex theory =
      core::async_protocol_complex(input, {3, 1, 2}, views, arena);

  TraceComplexBuilder builder(arena);
  AsyncRunConfig config{3, 1, 2, {}};
  enumerate_async_executions({0, 1, 2}, config, views,
                             [&](const Trace& trace) { builder.add(trace); });
  EXPECT_EQ(builder.complex(), theory);
}

TEST(Bridge, AsyncParticipantSubsetIsSubcomplex) {
  // Executions in which only {0, 1} participate must land inside the full
  // complex's A¹(face) subcomplex.
  ViewRegistry views;
  VertexArena arena;
  AsyncRunConfig small{3, 2, 1, {0, 1}};
  TraceComplexBuilder builder(arena);
  enumerate_async_executions({0, 1, 2}, small, views,
                             [&](const Trace& trace) { builder.add(trace); });

  const topology::Simplex full_input = core::rainbow_input(3, views, arena);
  const topology::SimplicialComplex full =
      core::async_round_complex(full_input, {3, 2, 1}, views, arena);
  EXPECT_TRUE(builder.complex().is_subcomplex_of(full));
  EXPECT_FALSE(builder.complex().empty());
}

TEST(AsyncExecutor, RejectsTooFewParticipants) {
  ViewRegistry views;
  RandomAsyncAdversary adversary{util::Rng(7)};
  AsyncRunConfig config{4, 1, 1, {0}};
  EXPECT_THROW(run_async({0, 1, 2, 3}, config, adversary, views),
               std::invalid_argument);
}

TEST(AsyncExecutor, RandomRunsSatisfyHeardBounds) {
  util::Rng rng(555);
  for (int trial = 0; trial < 30; ++trial) {
    ViewRegistry views;
    RandomAsyncAdversary adversary{util::Rng(rng.next())};
    const Trace trace =
        run_async({4, 5, 6}, {3, 1, 2, {}}, adversary, views);
    for (const auto& [pid, state] : trace.states.back()) {
      // Every round view heard from >= n+1-f = 2 processes incl. self.
      const auto senders = views.direct_senders(state);
      EXPECT_GE(senders.size(), 2u);
      EXPECT_TRUE(senders.count(pid) != 0);
    }
  }
}

// ------------------------------------------- plan validation: async -------

// Starts from a legal everyone-hears-everyone plan, then applies a
// test-supplied mutation before handing it to the executor.
class MutatedAsyncAdversary : public AsyncAdversary {
 public:
  using Mutate = std::function<void(AsyncRoundPlan&)>;
  explicit MutatedAsyncAdversary(Mutate mutate) : mutate_(std::move(mutate)) {}

  AsyncRoundPlan plan_round(int, const std::vector<ProcessId>& participants,
                            int) override {
    AsyncRoundPlan plan;
    const std::set<ProcessId> all(participants.begin(), participants.end());
    for (ProcessId p : participants) plan.heard[p] = all;
    mutate_(plan);
    return plan;
  }

 private:
  Mutate mutate_;
};

TEST(AsyncExecutor, RejectsMissingParticipantEntry) {
  MutatedAsyncAdversary adversary(
      [](AsyncRoundPlan& plan) { plan.heard.erase(1); });
  ViewRegistry views;
  EXPECT_THROW(run_async({0, 1, 2}, {3, 1, 1, {}}, adversary, views),
               std::logic_error);
}

TEST(AsyncExecutor, RejectsUndersizedHeardSet) {
  MutatedAsyncAdversary adversary(
      [](AsyncRoundPlan& plan) { plan.heard[1] = {1}; });  // |heard| < n+1-f
  ViewRegistry views;
  EXPECT_THROW(run_async({0, 1, 2}, {3, 1, 1, {}}, adversary, views),
               std::logic_error);
}

TEST(AsyncExecutor, RejectsMissingSelfDelivery) {
  MutatedAsyncAdversary adversary(
      [](AsyncRoundPlan& plan) { plan.heard[1] = {0, 2}; });
  ViewRegistry views;
  EXPECT_THROW(run_async({0, 1, 2}, {3, 1, 1, {}}, adversary, views),
               std::logic_error);
}

TEST(AsyncExecutor, RejectsNonParticipantSender) {
  MutatedAsyncAdversary adversary(
      [](AsyncRoundPlan& plan) { plan.heard[0].insert(2); });
  ViewRegistry views;
  // Only {0, 1} participate; hearing from P2 is hearing from a ghost.
  EXPECT_THROW(run_async({0, 1, 2}, {3, 1, 1, {0, 1}}, adversary, views),
               std::logic_error);
}

// -------------------------------------------------- bridge: semi-sync -----

TEST(Bridge, SemiSyncOneRoundMatchesTheory) {
  // Microround-level message simulation regenerates M¹(S) exactly.
  for (const auto& [n1, k, mu] : std::vector<std::array<int, 3>>{
           {3, 1, 2}, {3, 1, 3}, {3, 2, 2}, {4, 1, 2}}) {
    ViewRegistry views;
    VertexArena arena;
    const topology::Simplex input = core::rainbow_input(n1, views, arena);
    const topology::SimplicialComplex theory = core::semisync_round_complex(
        input, {n1, k, k, mu, 1}, views, arena);

    TraceComplexBuilder builder(arena);
    std::vector<std::int64_t> inputs;
    for (int p = 0; p < n1; ++p) inputs.push_back(p);
    enumerate_semisync_round_executions(
        inputs, k, mu, views,
        [&](const Trace& trace) { builder.add(trace); });
    EXPECT_EQ(builder.complex(), theory)
        << "n+1=" << n1 << " k=" << k << " mu=" << mu;
  }
}

// ------------------------------------------------------- semi-sync --------

// A protocol that decides its input at its first step.
class DecideOwnInput final : public SemiSyncProtocol {
 public:
  void on_start(ProcessApi&) override {}
  void on_message(ProcessApi&, const SemiSyncMessage&) override {}
  void on_step(ProcessApi& api) override { api.decide(api.input()); }
};

// Broadcasts once, then decides the smallest value seen after `wait_steps`.
class GossipMin final : public SemiSyncProtocol {
 public:
  explicit GossipMin(int wait_steps) : wait_steps_(wait_steps) {}

  void on_start(ProcessApi& api) override {
    known_[api.self()] = api.input();
    api.broadcast(known_, 0);
  }
  void on_message(ProcessApi&, const SemiSyncMessage& msg) override {
    for (const auto& [pid, value] : msg.values) known_[pid] = value;
  }
  void on_step(ProcessApi& api) override {
    if (++steps_ < wait_steps_ || api.has_decided()) return;
    std::int64_t best = known_.begin()->second;
    for (const auto& [pid, value] : known_) {
      (void)pid;
      best = std::min(best, value);
    }
    api.decide(best);
  }

 private:
  int wait_steps_;
  int steps_ = 0;
  std::map<ProcessId, std::int64_t> known_;
};

TEST(SemiSyncExecutor, ImmediateDecisionHappensAtFirstStep) {
  SemiSyncConfig config{.c1 = 2, .c2 = 3, .d = 5, .num_processes = 3};
  ScriptedSemiSyncAdversary adversary(/*step=*/2, /*delay=*/5);
  const SemiSyncResult result = run_semisync(
      {7, 8, 9}, config, [] { return std::make_unique<DecideOwnInput>(); },
      adversary);
  EXPECT_TRUE(result.all_alive_decided);
  ASSERT_EQ(result.decisions.size(), 3u);
  for (const auto& [pid, decision] : result.decisions) {
    EXPECT_EQ(decision.value, 7 + pid);
    EXPECT_EQ(decision.time, 2);  // first step at t = c1-scripted spacing
  }
}

TEST(SemiSyncExecutor, MessagesArriveWithinD) {
  // With delay d and step spacing c1, a GossipMin that waits long enough
  // must see every input.
  SemiSyncConfig config{.c1 = 1, .c2 = 2, .d = 4, .num_processes = 3};
  ScriptedSemiSyncAdversary adversary(/*step=*/1, /*delay=*/4);
  const SemiSyncResult result = run_semisync(
      {30, 10, 20}, config, [] { return std::make_unique<GossipMin>(6); },
      adversary);
  EXPECT_TRUE(result.all_alive_decided);
  for (const auto& [pid, decision] : result.decisions) {
    (void)pid;
    EXPECT_EQ(decision.value, 10);
  }
}

TEST(SemiSyncExecutor, CrashedProcessNeverDecides) {
  SemiSyncConfig config{.c1 = 1, .c2 = 2, .d = 3, .num_processes = 3};
  ScriptedSemiSyncAdversary adversary(1, 3);
  adversary.set_crash(1, /*when=*/0);
  const SemiSyncResult result = run_semisync(
      {5, 6, 7}, config, [] { return std::make_unique<GossipMin>(8); },
      adversary);
  EXPECT_TRUE(result.all_alive_decided);
  EXPECT_EQ(result.decisions.count(1), 0u);
  EXPECT_EQ(result.crashes.count(1), 1u);
  // P1 crashed before sending anything: survivors decide min(5, 7) = 5.
  EXPECT_EQ(result.decisions.at(0).value, 5);
  EXPECT_EQ(result.decisions.at(2).value, 5);
}

TEST(SemiSyncExecutor, SlowProcessDelaysItsOwnDecision) {
  SemiSyncConfig config{.c1 = 1, .c2 = 4, .d = 2, .num_processes = 2};
  ScriptedSemiSyncAdversary adversary(/*step=*/1, /*delay=*/2);
  adversary.set_step_spacing(1, 4);  // P1 runs at c2 = 4
  const SemiSyncResult result = run_semisync(
      {1, 2}, config, [] { return std::make_unique<GossipMin>(3); },
      adversary);
  ASSERT_TRUE(result.all_alive_decided);
  EXPECT_LT(result.decisions.at(0).time, result.decisions.at(1).time);
  EXPECT_EQ(result.decisions.at(1).time, 12);  // 3 steps * 4 ticks
}

TEST(SemiSyncExecutor, ValidatesTimingConstants) {
  SemiSyncConfig bad{.c1 = 3, .c2 = 2, .d = 1, .num_processes = 2};
  ScriptedSemiSyncAdversary adversary(1, 1);
  EXPECT_THROW(run_semisync({0, 1}, bad,
                            [] { return std::make_unique<DecideOwnInput>(); },
                            adversary),
               std::invalid_argument);
}

TEST(SemiSyncExecutor, RandomAdversaryStaysInBounds) {
  util::Rng rng(4242);
  SemiSyncConfig config{.c1 = 2, .c2 = 5, .d = 7, .num_processes = 4};
  for (int trial = 0; trial < 20; ++trial) {
    RandomSemiSyncAdversary adversary(util::Rng(rng.next()), config,
                                      /*max_crashes=*/1, 0.3, 50);
    const SemiSyncResult result = run_semisync(
        {3, 1, 4, 1}, config, [] { return std::make_unique<GossipMin>(10); },
        adversary);
    EXPECT_TRUE(result.all_alive_decided);
    EXPECT_LE(result.crashes.size(), 1u);
  }
}

}  // namespace
}  // namespace psph::sim
