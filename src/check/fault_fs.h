#pragma once

// Fault-injecting store::FsOps.
//
// Wraps a real (or otherwise inner) FsOps and injects the classic storage
// failure modes at chosen operation indices:
//
//   * failed write      — write_file throws (ENOSPC / I/O error);
//   * short write       — write_file persists only a prefix, then reports
//                         success (torn file on disk, caller unaware);
//   * failed rename     — publish step throws, temp file stays;
//   * failed dir fsync  — the durability barrier itself fails;
//   * bit-rot read      — read_file returns the bytes with one bit flipped;
//   * truncated read    — read_file returns only a prefix.
//
// Operation indices count per category from 0 in call order, so a test can
// say "fail the second rename" deterministically. Counters are mutex-
// protected: sweeps call the store from the parallel pool.
//
// The properties under test (fault_test.cpp): a fault during save degrades
// to a miss + recompute on the next run, and a fault during load degrades
// to a miss — the store must *never* return plausible-but-wrong bytes.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>

#include "store/fs_ops.h"

namespace psph::check {

struct FaultPlan {
  /// write_file calls (0-based) that throw after writing nothing.
  std::set<std::size_t> fail_writes;
  /// write_file calls that silently persist only the first half.
  std::set<std::size_t> short_writes;
  /// rename calls that throw.
  std::set<std::size_t> fail_renames;
  /// fsync_dir calls that throw.
  std::set<std::size_t> fail_dir_syncs;
  /// read_file calls whose result comes back with bit 0 of byte
  /// size/2 flipped (empty files are returned unchanged).
  std::set<std::size_t> corrupt_reads;
  /// read_file calls whose result is truncated to the first half.
  std::set<std::size_t> truncate_reads;
};

/// Deterministic sprinkle of faults across the first `horizon` operations
/// of each category: density 1/16 per category, drawn from one seeded
/// stream category after category, so faults do not line up. The same seed
/// always gives the same plan (the daemon's and the load generator's
/// --fault-seed).
FaultPlan plan_from_seed(std::uint64_t seed, std::size_t horizon);

class FaultyFsOps : public store::FsOps {
 public:
  /// `inner` defaults to the real filesystem.
  explicit FaultyFsOps(FaultPlan plan,
                       std::shared_ptr<store::FsOps> inner = nullptr);

  std::optional<std::vector<std::uint8_t>> read_file(
      const std::filesystem::path& path) override;
  void write_file(const std::filesystem::path& path, const std::uint8_t* data,
                  std::size_t size) override;
  void rename(const std::filesystem::path& from,
              const std::filesystem::path& to) override;
  void fsync_dir(const std::filesystem::path& dir) override;

  std::size_t reads_seen() const;
  std::size_t writes_seen() const;
  std::size_t renames_seen() const;
  std::size_t dir_syncs_seen() const;
  /// Total faults actually injected so far.
  std::size_t faults_injected() const;

 private:
  FaultPlan plan_;
  std::shared_ptr<store::FsOps> inner_;
  mutable std::mutex mutex_;
  std::size_t reads_ = 0;
  std::size_t writes_ = 0;
  std::size_t renames_ = 0;
  std::size_t dir_syncs_ = 0;
  std::size_t injected_ = 0;
};

}  // namespace psph::check
