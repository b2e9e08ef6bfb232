// Unit tests for the utility layer: PRNG determinism and distribution
// sanity, hash combinators, the flat index, CLI parsing, timers.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "util/flat_index.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/timer.h"

namespace psph::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowZeroThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextInCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_in(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, NextInBadRangeThrows) {
  Rng rng(3);
  EXPECT_THROW(rng.next_in(1, 0), std::invalid_argument);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(19);
  int heads = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) heads += rng.next_bool(0.5) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.5, 0.03);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(23);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(items, shuffled);
}

TEST(Rng, SampleWithoutReplacementBasics) {
  Rng rng(29);
  const std::vector<int> sample = rng.sample_without_replacement(10, 4);
  ASSERT_EQ(sample.size(), 4u);
  EXPECT_TRUE(std::is_sorted(sample.begin(), sample.end()));
  EXPECT_TRUE(std::adjacent_find(sample.begin(), sample.end()) ==
              sample.end());
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
  }
}

TEST(Rng, SampleWithoutReplacementEdges) {
  Rng rng(31);
  EXPECT_TRUE(rng.sample_without_replacement(5, 0).empty());
  EXPECT_EQ(rng.sample_without_replacement(5, 5).size(), 5u);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, PickThrowsOnEmpty) {
  Rng rng(37);
  std::vector<int> empty;
  EXPECT_THROW(rng.pick(empty), std::invalid_argument);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(41);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next() == child.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

// Golden values pin the exact xoshiro256++/splitmix64 streams. Recorded
// adversary schedules are only portable repros if these never drift — a
// standard-library change or a "harmless" Rng refactor must fail here,
// not silently invalidate every saved schedule's seed metadata.

TEST(Rng, GoldenNextStream) {
  Rng rng(12345);
  EXPECT_EQ(rng.next(), 10201931350592234856ull);
  EXPECT_EQ(rng.next(), 3780764549115216544ull);
  EXPECT_EQ(rng.next(), 1570246627180645737ull);
  EXPECT_EQ(rng.next(), 3237956550421933520ull);
}

TEST(Rng, GoldenNextBelow) {
  Rng rng(999);
  const std::vector<std::uint64_t> expected{343, 720, 603, 532, 340, 50};
  for (const std::uint64_t value : expected) {
    EXPECT_EQ(rng.next_below(1000), value);
  }
}

TEST(Rng, GoldenNextIn) {
  Rng rng(3);
  const std::vector<std::int64_t> expected{-1, 3, -5, 0, 4, 1};
  for (const std::int64_t value : expected) {
    EXPECT_EQ(rng.next_in(-5, 5), value);
  }
}

TEST(Rng, GoldenShuffle) {
  Rng rng(7);
  std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(items);
  EXPECT_EQ(items, (std::vector<int>{7, 9, 3, 6, 0, 4, 5, 2, 8, 1}));
}

TEST(Rng, GoldenSplit) {
  Rng parent(42);
  Rng child = parent.split();
  EXPECT_EQ(parent.next(), 5881210131331364753ull);
  EXPECT_EQ(child.next(), 5745406364259058299ull);
}

TEST(Rng, SeedAccessorReturnsConstructionSeed) {
  EXPECT_EQ(Rng(42).seed(), 42ull);
  EXPECT_EQ(Rng(20260808).seed(), 20260808ull);
  Rng drained(42);
  for (int i = 0; i < 10; ++i) drained.next();
  EXPECT_EQ(drained.seed(), 42ull);
}

TEST(Rng, LabeledSplitSameLabelSameStream) {
  Rng parent(41);
  Rng a = parent.split("adversary");
  Rng b = parent.split("adversary");
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, LabeledSplitDistinctLabelsDiverge) {
  Rng parent(41);
  Rng a = parent.split("adversary");
  Rng b = parent.split("oracle");
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, LabeledSplitIndependentOfParentDrawPosition) {
  // The property the Byzantine adversary's per-component streams rely on:
  // however many values the parent (or a sibling stream) has produced, the
  // labeled sub-stream is identical — so adding draws to one component
  // never shifts another component's schedule.
  Rng fresh(42);
  Rng drained(42);
  for (int i = 0; i < 1000; ++i) drained.next();
  Rng a = fresh.split("net");
  Rng b = drained.split("net");
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next(), b.next());
}

// Pin the exact labeled sub-streams, like GoldenSplit above: recorded
// Byzantine schedules name only (seed, label) pairs, so any drift here
// silently detaches every saved quorum schedule from its seed metadata.

TEST(Rng, GoldenLabeledSplit) {
  Rng parent(42);
  Rng net = parent.split("net");
  EXPECT_EQ(net.next(), 11552001902302259109ull);
  EXPECT_EQ(net.next(), 1227428005018418537ull);
  EXPECT_EQ(net.next(), 9955318765519601925ull);
  Rng crash = parent.split("crash");
  EXPECT_EQ(crash.next(), 2861851109264108858ull);
  EXPECT_EQ(crash.next(), 5150915152732232862ull);
  EXPECT_EQ(crash.next(), 16531265491926979579ull);
  Rng byz = parent.split("byz/3");
  EXPECT_EQ(byz.next(), 8115133450442858300ull);
  EXPECT_EQ(byz.next(), 5989800560130029232ull);
  EXPECT_EQ(byz.next(), 15259304932942162159ull);
}

TEST(Rng, GoldenLabeledSplitSoakLabels) {
  Rng parent(20260808);
  Rng inputs = parent.split("inputs");
  EXPECT_EQ(inputs.next(), 5495999990669941859ull);
  EXPECT_EQ(inputs.next(), 10810785691411696024ull);
  EXPECT_EQ(inputs.next(), 5017956288540005255ull);
  Rng fd = parent.split("fd");
  EXPECT_EQ(fd.next(), 2112008911782284429ull);
  EXPECT_EQ(fd.next(), 14745862159166575594ull);
  EXPECT_EQ(fd.next(), 14204405154681287555ull);
}

TEST(Hash, CombineOrderSensitive) {
  const std::size_t a = hash_combine(hash_combine(0, 1), 2);
  const std::size_t b = hash_combine(hash_combine(0, 2), 1);
  EXPECT_NE(a, b);
}

TEST(Hash, RangeLengthSensitive) {
  const std::vector<int> one{1};
  const std::vector<int> two{1, 0};
  EXPECT_NE(hash_range(one), hash_range(two));
}

// ------------------------------------------------------------ flat index --

/// Keys the caller stores, interned through a FlatIndex the way the
/// registries do: a new key gets the next dense id. The hash handed to the
/// index is the key itself unless a test forces one.
struct Interner {
  std::vector<std::uint64_t> keys;
  FlatIndex index;

  std::size_t intern(std::uint64_t key) { return intern(key, key); }
  std::size_t intern(std::uint64_t key, std::uint64_t hash) {
    const std::size_t id = index.find_or_insert(
        hash, keys.size(), [&](std::size_t i) { return keys[i] == key; });
    if (id == keys.size()) keys.push_back(key);
    return id;
  }
  std::size_t find(std::uint64_t key) const { return find(key, key); }
  std::size_t find(std::uint64_t key, std::uint64_t hash) const {
    return index.find(hash, [&](std::size_t i) { return keys[i] == key; });
  }
};

TEST(FlatIndex, EqualKeysReturnTheFirstId) {
  Interner interner;
  EXPECT_EQ(interner.find(7), FlatIndex::kAbsent);
  EXPECT_EQ(interner.intern(7), 0u);
  EXPECT_EQ(interner.intern(9), 1u);
  EXPECT_EQ(interner.intern(7), 0u);
  EXPECT_EQ(interner.intern(9), 1u);
  EXPECT_EQ(interner.keys.size(), 2u);
  EXPECT_EQ(interner.index.size(), 2u);
  EXPECT_EQ(interner.find(9), 1u);
  EXPECT_EQ(interner.find(8), FlatIndex::kAbsent);
}

TEST(FlatIndex, KeysSharingOneHashStayDistinctAcrossTheWrap) {
  // Every key gets one raw hash whose finalised value (mix64, as the index
  // applies it) has its low 16 bits set: its home is the last slot at every
  // capacity up to 2^16, so each probe run starts at the end and wraps to
  // slot 0.
  constexpr std::uint64_t kHomeBits = 0xffff;
  std::uint64_t one_hash = 0;
  while ((mix64(one_hash) & kHomeBits) != kHomeBits) ++one_hash;
  constexpr std::uint64_t kKeys = 1200;
  Interner interner;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(interner.intern(3 * k, one_hash), k);
  }
  ASSERT_LE(interner.index.capacity(), kHomeBits + 1);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(interner.find(3 * k, one_hash), k);
    EXPECT_EQ(interner.intern(3 * k, one_hash), k);
    EXPECT_EQ(interner.find(3 * k + 1, one_hash), FlatIndex::kAbsent);
  }
  EXPECT_EQ(interner.keys.size(), kKeys);
}

TEST(FlatIndex, StaysWithinItsLoadAcrossGrows) {
  for (const unsigned quarters : {2u, 3u}) {
    Interner interner;
    interner.index = FlatIndex(quarters);
    std::size_t grows = 0;
    std::size_t capacity = 0;
    for (std::uint64_t k = 0; k < 5000; ++k) {
      interner.intern(k);
      ASSERT_LE(interner.index.size() * 4, interner.index.capacity() * quarters)
          << "quarters " << quarters << " key " << k;
      if (interner.index.capacity() != capacity) {
        ++grows;
        capacity = interner.index.capacity();
      }
    }
    EXPECT_GE(grows, 8u);
    for (std::uint64_t k = 0; k < 5000; ++k) {
      EXPECT_EQ(interner.find(k), k);
    }
  }
}

TEST(Logging, ParseLevels) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::debug);
  EXPECT_EQ(parse_log_level("off"), LogLevel::off);
  EXPECT_THROW(parse_log_level("bogus"), std::invalid_argument);
}

TEST(Logging, FilteringIsCheap) {
  set_log_level(LogLevel::off);
  int evaluations = 0;
  const auto expensive = [&]() {
    ++evaluations;
    return std::string("x");
  };
  PSPH_LOG(debug) << expensive();
  EXPECT_EQ(evaluations, 0);
  set_log_level(LogLevel::info);
}

TEST(Timer, MonotoneNonNegative) {
  Timer timer;
  const double t1 = timer.seconds();
  const double t2 = timer.seconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
  EXPECT_FALSE(timer.pretty().empty());
}

}  // namespace
}  // namespace psph::util
