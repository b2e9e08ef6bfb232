#include "check/fault_fs.h"

#include <stdexcept>

#include "util/random.h"

namespace psph::check {

FaultPlan plan_from_seed(std::uint64_t seed, std::size_t horizon) {
  util::Rng rng(seed);
  FaultPlan plan;
  std::set<std::size_t>* categories[] = {
      &plan.fail_writes,    &plan.short_writes,  &plan.fail_renames,
      &plan.fail_dir_syncs, &plan.corrupt_reads, &plan.truncate_reads,
  };
  for (std::set<std::size_t>* category : categories) {
    for (std::size_t op = 0; op < horizon; ++op) {
      if (rng.next_below(16) == 0) category->insert(op);
    }
  }
  return plan;
}

FaultyFsOps::FaultyFsOps(FaultPlan plan, std::shared_ptr<store::FsOps> inner)
    : plan_(std::move(plan)),
      inner_(inner ? std::move(inner) : store::FsOps::real()) {}

std::optional<std::vector<std::uint8_t>> FaultyFsOps::read_file(
    const std::filesystem::path& path) {
  bool corrupt = false;
  bool truncate = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t index = reads_++;
    corrupt = plan_.corrupt_reads.count(index) != 0;
    truncate = plan_.truncate_reads.count(index) != 0;
    if (corrupt || truncate) ++injected_;
  }
  std::optional<std::vector<std::uint8_t>> bytes = inner_->read_file(path);
  if (!bytes.has_value() || bytes->empty()) return bytes;
  if (truncate) bytes->resize(bytes->size() / 2);
  if (corrupt && !bytes->empty()) (*bytes)[bytes->size() / 2] ^= 0x01;
  return bytes;
}

void FaultyFsOps::write_file(const std::filesystem::path& path,
                             const std::uint8_t* data, std::size_t size) {
  bool fail = false;
  bool tear = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t index = writes_++;
    fail = plan_.fail_writes.count(index) != 0;
    tear = plan_.short_writes.count(index) != 0;
    if (fail || tear) ++injected_;
  }
  if (fail) {
    throw std::runtime_error("injected write failure: " + path.string());
  }
  if (tear) {
    // The torn prefix reaches disk and the caller is told all is well —
    // the worst honest-but-failing disk behavior.
    inner_->write_file(path, data, size / 2);
    return;
  }
  inner_->write_file(path, data, size);
}

void FaultyFsOps::rename(const std::filesystem::path& from,
                         const std::filesystem::path& to) {
  bool fail = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t index = renames_++;
    fail = plan_.fail_renames.count(index) != 0;
    if (fail) ++injected_;
  }
  if (fail) {
    throw std::runtime_error("injected rename failure: " + to.string());
  }
  inner_->rename(from, to);
}

void FaultyFsOps::fsync_dir(const std::filesystem::path& dir) {
  bool fail = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t index = dir_syncs_++;
    fail = plan_.fail_dir_syncs.count(index) != 0;
    if (fail) ++injected_;
  }
  if (fail) {
    throw std::runtime_error("injected dir fsync failure: " + dir.string());
  }
  inner_->fsync_dir(dir);
}

std::size_t FaultyFsOps::reads_seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reads_;
}

std::size_t FaultyFsOps::writes_seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return writes_;
}

std::size_t FaultyFsOps::renames_seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return renames_;
}

std::size_t FaultyFsOps::dir_syncs_seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dir_syncs_;
}

std::size_t FaultyFsOps::faults_injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return injected_;
}

}  // namespace psph::check
