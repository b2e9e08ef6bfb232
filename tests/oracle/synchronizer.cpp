#include "oracle/synchronizer.h"

#include <algorithm>
#include <memory>

namespace psph::oracle {

namespace {

class SynchronizedFloodMin final : public sim::SemiSyncProtocol {
 public:
  explicit SynchronizedFloodMin(const SynchronizerConfig& config)
      : config_(config) {}

  void on_start(sim::ProcessApi& api) override {
    known_[api.self()] = api.input();
    api.broadcast(known_, /*tag=*/1);
  }

  void on_message(sim::ProcessApi& api, const sim::SemiSyncMessage& msg)
      override {
    for (const auto& [pid, value] : msg.values) {
      const auto it = known_.find(pid);
      if (it == known_.end() || value < it->second) known_[pid] = value;
    }
    received_[msg.tag].insert(msg.from);
    advance_if_round_complete(api);
  }

  void on_step(sim::ProcessApi& api) override {
    // Fully message-driven; steps only matter because the executor
    // delivers the inbox at step boundaries.
    advance_if_round_complete(api);
  }

 private:
  void advance_if_round_complete(sim::ProcessApi& api) {
    if (api.has_decided()) return;
    // The synchronizer condition: all round-`round_` messages are in.
    while (static_cast<int>(received_[round_].size()) ==
           config_.num_processes) {
      ++round_;
      if (round_ > config_.rounds) {
        std::int64_t best = known_.begin()->second;
        for (const auto& [pid, value] : known_) {
          (void)pid;
          best = std::min(best, value);
        }
        api.decide(best);
        return;
      }
      api.broadcast(known_, /*tag=*/round_);
    }
  }

  SynchronizerConfig config_;
  std::map<sim::ProcessId, std::int64_t> known_;
  std::map<int, std::set<sim::ProcessId>> received_;  // round -> senders
  int round_ = 1;
};

}  // namespace

sim::ProtocolFactory make_synchronized_floodmin(
    const SynchronizerConfig& config) {
  return [config]() {
    return std::make_unique<SynchronizedFloodMin>(config);
  };
}

}  // namespace psph::oracle
