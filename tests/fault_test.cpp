// Fault-injection tests: storage failures against the real ResultStore and
// sweep-engine logic. The property throughout: a fault during save degrades
// to a recompute on the next run, a fault during load degrades to a miss —
// the store never surfaces plausible-but-wrong bytes, and a faulted sweep
// still returns every result.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/fault_fs.h"
#include "solve/decide.h"
#include "store/serialize.h"
#include "store/store.h"
#include "sweep/sweep.h"

namespace psph {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("psph_fault_test." + std::to_string(::getpid()) + "." +
             std::to_string(counter.fetch_add(1)));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

store::CacheKeyBuilder test_key(std::int64_t tag) {
  store::CacheKeyBuilder key("fault_test/entry");
  key.param(tag);
  return key;
}

std::vector<std::uint8_t> test_bytes(std::int64_t tag) {
  store::ByteWriter out;
  out.i64(tag * 1000 + 7);
  return store::seal(store::PayloadKind::kRawBytes, out.bytes());
}

// ------------------------------------------------------ seeded plans -----

TEST(FaultPlan, SeedFixesThePlanAndEveryIndexIsBelowTheHorizon) {
  // The daemon and the load generator both turn --fault-seed into a plan
  // through plan_from_seed, so one seed must name one plan.
  constexpr std::size_t kHorizon = 1000;
  const check::FaultPlan plan = check::plan_from_seed(20260808, kHorizon);
  const check::FaultPlan again = check::plan_from_seed(20260808, kHorizon);
  const auto categories = [](const check::FaultPlan& p) {
    return std::vector<std::set<std::size_t>>{
        p.fail_writes,    p.short_writes,  p.fail_renames,
        p.fail_dir_syncs, p.corrupt_reads, p.truncate_reads};
  };
  EXPECT_EQ(categories(plan), categories(again));
  for (const std::set<std::size_t>& category : categories(plan)) {
    // Density 1/16 over 1000 operations: some faults, far from all.
    ASSERT_GT(category.size(), 20u);
    EXPECT_LT(category.size(), 200u);
    EXPECT_LT(*category.rbegin(), kHorizon);
  }
  EXPECT_NE(categories(plan), categories(check::plan_from_seed(7, kHorizon)));
  for (const std::set<std::size_t>& category :
       categories(check::plan_from_seed(20260808, 0))) {
    EXPECT_TRUE(category.empty());
  }
}

// ------------------------------------------------- faults during save -----

TEST(StoreFaults, FailedWriteThrowsAndLeavesNoEntry) {
  TempDir dir;
  auto faulty =
      std::make_shared<check::FaultyFsOps>(check::FaultPlan{.fail_writes = {0}});
  store::ResultStore store(dir.str(), faulty);
  EXPECT_THROW(store.save(test_key(1), test_bytes(1)), std::runtime_error);
  EXPECT_EQ(faulty->faults_injected(), 1u);
  EXPECT_FALSE(store.load(test_key(1)).has_value());
  EXPECT_FALSE(fs::exists(store.entry_path(test_key(1).key())));
}

TEST(StoreFaults, FailedRenameThrowsAndLeavesNoEntry) {
  TempDir dir;
  auto faulty = std::make_shared<check::FaultyFsOps>(
      check::FaultPlan{.fail_renames = {0}});
  store::ResultStore store(dir.str(), faulty);
  EXPECT_THROW(store.save(test_key(2), test_bytes(2)), std::runtime_error);
  // The temp file was written but never published.
  EXPECT_FALSE(fs::exists(store.entry_path(test_key(2).key())));
  EXPECT_FALSE(store.load(test_key(2)).has_value());
  // A later save of the same key succeeds and round-trips.
  store.save(test_key(2), test_bytes(2));
  EXPECT_EQ(store.load(test_key(2)), test_bytes(2));
}

TEST(StoreFaults, FailedDirSyncThrowsButNeverCorrupts) {
  TempDir dir;
  auto faulty = std::make_shared<check::FaultyFsOps>(
      check::FaultPlan{.fail_dir_syncs = {0}});
  store::ResultStore store(dir.str(), faulty);
  // The entry was renamed into place before the durability barrier failed,
  // so the save reports failure while a *valid* entry may exist — the one
  // acceptable outcome. Wrong bytes are not.
  EXPECT_THROW(store.save(test_key(3), test_bytes(3)), std::runtime_error);
  const auto loaded = store.load(test_key(3));
  if (loaded.has_value()) EXPECT_EQ(*loaded, test_bytes(3));
}

TEST(StoreFaults, ShortWriteDegradesToMissNotWrongBytes) {
  TempDir dir;
  auto faulty = std::make_shared<check::FaultyFsOps>(
      check::FaultPlan{.short_writes = {0}});
  store::ResultStore store(dir.str(), faulty);
  // The torn write reports success, so the save "succeeds" and publishes a
  // truncated entry — the worst honest-but-failing disk behavior.
  store.save(test_key(4), test_bytes(4));
  EXPECT_TRUE(fs::exists(store.entry_path(test_key(4).key())));
  EXPECT_FALSE(store.load(test_key(4)).has_value());
  EXPECT_EQ(store.stats().corrupt_entries, 1u);
  // A fresh store on the real filesystem sees the same torn file: miss.
  store::ResultStore clean(dir.str());
  EXPECT_FALSE(clean.load(test_key(4)).has_value());
  // Re-saving heals the entry.
  clean.save(test_key(4), test_bytes(4));
  EXPECT_EQ(clean.load(test_key(4)), test_bytes(4));
}

// ------------------------------------------------- faults during load -----

TEST(StoreFaults, BitRotReadDegradesToMiss) {
  TempDir dir;
  {
    store::ResultStore writer(dir.str());
    writer.save(test_key(5), test_bytes(5));
  }
  auto faulty = std::make_shared<check::FaultyFsOps>(
      check::FaultPlan{.corrupt_reads = {0}});
  store::ResultStore store(dir.str(), faulty);
  EXPECT_FALSE(store.load(test_key(5)).has_value());
  EXPECT_EQ(store.stats().corrupt_entries, 1u);
  // The rot was transient (in the read path, not on disk): the next read is
  // clean and returns the original bytes.
  EXPECT_EQ(store.load(test_key(5)), test_bytes(5));
}

TEST(StoreFaults, TruncatedReadDegradesToMiss) {
  TempDir dir;
  {
    store::ResultStore writer(dir.str());
    writer.save(test_key(6), test_bytes(6));
  }
  auto faulty = std::make_shared<check::FaultyFsOps>(
      check::FaultPlan{.truncate_reads = {0}});
  store::ResultStore store(dir.str(), faulty);
  EXPECT_FALSE(store.load(test_key(6)).has_value());
  EXPECT_EQ(store.load(test_key(6)), test_bytes(6));
}

TEST(StoreFaults, EveryReadFaultYieldsMissOrExactBytes) {
  TempDir dir;
  {
    store::ResultStore writer(dir.str());
    writer.save(test_key(7), test_bytes(7));
  }
  // Whatever single read fault fires, a load returns nullopt or the exact
  // saved bytes — never a third possibility.
  for (int mode = 0; mode < 2; ++mode) {
    check::FaultPlan plan;
    if (mode == 0) {
      plan.corrupt_reads = {0, 1, 2};
    } else {
      plan.truncate_reads = {0, 1, 2};
    }
    store::ResultStore store(dir.str(),
                             std::make_shared<check::FaultyFsOps>(plan));
    for (int attempt = 0; attempt < 4; ++attempt) {
      const auto loaded = store.load(test_key(7));
      if (loaded.has_value()) EXPECT_EQ(*loaded, test_bytes(7));
    }
  }
}

// ------------------------------------------------- faults during sweeps ---

std::vector<sweep::JobSpec> grid_jobs(int count) {
  std::vector<sweep::JobSpec> jobs;
  for (int i = 0; i < count; ++i) {
    jobs.push_back({"fault_test/square", {i}, {}});
  }
  return jobs;
}

std::vector<std::uint8_t> square_job(const sweep::JobSpec& spec,
                                     std::size_t /*index*/) {
  store::ByteWriter out;
  out.i64(spec.params[0] * spec.params[0]);
  return store::seal(store::PayloadKind::kRawBytes, out.bytes());
}

std::int64_t unseal_i64(const std::vector<std::uint8_t>& bytes) {
  const std::vector<std::uint8_t> payload =
      store::unseal(bytes, store::PayloadKind::kRawBytes);
  store::ByteReader in(payload);
  const std::int64_t value = in.i64();
  in.expect_done("fault_test payload");
  return value;
}

TEST(SweepFaults, FailedSavesAreCountedAndResultsStillReturned) {
  TempDir dir;
  const std::vector<sweep::JobSpec> jobs = grid_jobs(5);

  // Each save performs exactly one rename; failing renames 0 and 1 loses
  // exactly two entries, whichever jobs they belong to.
  sweep::SweepOptions options;
  options.cache_dir = dir.str();
  options.fs = std::make_shared<check::FaultyFsOps>(
      check::FaultPlan{.fail_renames = {0, 1}});
  sweep::SweepEngine faulted(options);
  const auto results = faulted.run(jobs, square_job);
  ASSERT_EQ(results.size(), jobs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(unseal_i64(results[i]),
              static_cast<std::int64_t>(i) * static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(faulted.stats().computed, 5u);
  EXPECT_EQ(faulted.stats().cache_hits, 0u);
  EXPECT_EQ(faulted.stats().save_failures, 2u);

  // A clean re-run recomputes only the two lost jobs and returns
  // byte-identical results.
  sweep::SweepEngine resumed({.cache_dir = dir.str()});
  const auto again = resumed.run(jobs, square_job);
  EXPECT_EQ(again, results);
  EXPECT_EQ(resumed.stats().cache_hits, 3u);
  EXPECT_EQ(resumed.stats().computed, 2u);
  EXPECT_EQ(resumed.stats().save_failures, 0u);
}

TEST(SweepFaults, TornEntriesRecomputeInsteadOfPoisoningResults) {
  TempDir dir;
  const std::vector<sweep::JobSpec> jobs = grid_jobs(4);

  sweep::SweepOptions options;
  options.cache_dir = dir.str();
  options.fs = std::make_shared<check::FaultyFsOps>(
      check::FaultPlan{.short_writes = {0}});
  sweep::SweepEngine torn(options);
  const auto results = torn.run(jobs, square_job);
  // The torn save *looked* successful, so the engine counts no failure —
  // the defense is on the load side.
  EXPECT_EQ(torn.stats().computed, 4u);

  std::atomic<int> recomputed{0};
  sweep::SweepEngine rerun({.cache_dir = dir.str()});
  const auto again =
      rerun.run(jobs, [&recomputed](const sweep::JobSpec& spec, std::size_t i) {
        ++recomputed;
        return square_job(spec, i);
      });
  EXPECT_EQ(again, results);
  // Exactly the torn entry misses (degraded, not served wrong) and is
  // recomputed; the other three hit.
  EXPECT_EQ(recomputed.load(), 1);
  EXPECT_EQ(rerun.stats().cache_hits, 3u);
  EXPECT_EQ(rerun.stats().computed, 1u);
}

// --------------------------------------------- decision-record faults -----
//
// The solvability engine memoizes decided verdicts as sealed kDecision
// entries (src/solve/decide). The store-level property specializes here to:
// a damaged or aliased cached verdict degrades to a miss plus recompute —
// a decide() with a store NEVER returns a different answer than one
// without.

store::DecisionRecord sample_decision() {
  store::DecisionRecord record;
  record.model = "async";
  record.processes = 3;
  record.f = 1;
  record.k = 2;
  record.mu = 0;
  record.rounds = 1;
  record.solvable = true;
  record.exhausted = true;
  record.protocol_facets = 12;
  record.protocol_vertices = 9;
  record.witness = {{4, 0}, {7, 1}, {9, 2}};
  return record;
}

TEST(DecisionFaults, SealedRecordRoundTripsExactly) {
  const store::DecisionRecord record = sample_decision();
  const std::vector<std::uint8_t> bytes = store::serialize_decision(record);
  EXPECT_EQ(store::deserialize_decision(bytes), record);
  // Unsolvable records carry no witness and round-trip too.
  store::DecisionRecord unsat = sample_decision();
  unsat.solvable = false;
  unsat.witness.clear();
  EXPECT_EQ(store::deserialize_decision(store::serialize_decision(unsat)),
            unsat);
}

TEST(DecisionFaults, EveryTruncationIsRejectedNeverMisread) {
  const std::vector<std::uint8_t> bytes =
      store::serialize_decision(sample_decision());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(len));
    EXPECT_THROW(store::deserialize_decision(cut), store::SerializationError)
        << "truncation to " << len << " bytes decoded";
  }
}

TEST(DecisionFaults, EverySingleByteFlipIsRejectedOrHarmless) {
  // The sealed envelope checksums its payload, so any one-byte flip either
  // fails to decode (the expected outcome) or — if it lands in framing that
  // re-validates, which does not happen today — decodes to the original.
  const store::DecisionRecord record = sample_decision();
  const std::vector<std::uint8_t> bytes = store::serialize_decision(record);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> evil = bytes;
    evil[i] ^= 0x40;
    try {
      EXPECT_EQ(store::deserialize_decision(evil), record)
          << "flip at byte " << i << " decoded to a DIFFERENT record";
    } catch (const store::SerializationError&) {
      // Rejected: the safe outcome.
    }
  }
}

TEST(DecisionFaults, TamperedCacheEntryRecomputesNeverLies) {
  TempDir dir;
  store::ResultStore store(dir.str());
  const solve::DecideRequest request{solve::Model::kAsync, 3, 1, 2, 0, 1};

  const solve::DecideResult first = solve::decide(request, {}, &store);
  ASSERT_FALSE(first.cache_hit);
  ASSERT_TRUE(first.record.exhausted);

  // Corrupt the published entry on disk (flip one payload byte).
  const std::string path =
      store.entry_path(solve::decide_cache_key(solve::normalize(request)).key());
  ASSERT_TRUE(fs::exists(path));
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(file.tellg());
    ASSERT_GT(size, 16);
    file.seekp(size / 2);
    char byte = 0;
    file.seekg(size / 2);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(size / 2);
    file.write(&byte, 1);
  }

  // The tampered entry degrades to a miss; the recomputed verdict matches
  // the original and re-heals the cache.
  const solve::DecideResult second = solve::decide(request, {}, &store);
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(second.record, first.record);
  const solve::DecideResult third = solve::decide(request, {}, &store);
  EXPECT_TRUE(third.cache_hit);
  EXPECT_EQ(third.record, first.record);
}

TEST(DecisionFaults, FailedPublishStillReturnsTheVerdict) {
  // A store whose publish fails (here at the durability barrier) must cost
  // only the cache entry: decide still answers, with the verified verdict.
  TempDir dir;
  auto faulty = std::make_shared<check::FaultyFsOps>(
      check::FaultPlan{.fail_dir_syncs = {0}});
  store::ResultStore store(dir.str(), faulty);
  const solve::DecideRequest request{solve::Model::kAsync, 3, 1, 2, 0, 1};
  const solve::DecideResult result = solve::decide(request, {}, &store);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_TRUE(result.record.exhausted);
  EXPECT_EQ(result.record, solve::decide(request).record);
}

TEST(DecisionFaults, AliasedEntryWithWrongParametersIsIgnored) {
  // A decodable record for DIFFERENT parameters planted under this query's
  // key (a key collision, or a buggy writer) must not satisfy the query:
  // decide() re-validates the loaded record against the request.
  TempDir dir;
  store::ResultStore store(dir.str());
  const solve::DecideRequest request{solve::Model::kAsync, 3, 1, 2, 0, 1};

  store::DecisionRecord alien = sample_decision();
  alien.k = 1;           // claims to answer a different question
  alien.solvable = false;
  alien.witness.clear();
  store.save(solve::decide_cache_key(solve::normalize(request)),
             store::serialize_decision(alien));

  const solve::DecideResult result = solve::decide(request, {}, &store);
  EXPECT_FALSE(result.cache_hit);
  EXPECT_TRUE(result.record.exhausted);
  // (3 processes, f=1, k=2, 1 round) is solvable — the planted "unsolvable"
  // answer for k=1 must not leak through.
  EXPECT_TRUE(result.record.solvable);
}

}  // namespace
}  // namespace psph
