// Robustness tests for the psph_store serialization layer and the
// content-addressed result store: exact round-trips (including BigInt
// torsion), loud rejection of truncated / corrupted / version-skewed
// envelopes, key derivation, and concurrent writers sharing one cache dir.

#include <gtest/gtest.h>

#include <sys/select.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pseudosphere.h"
#include "core/sync_complex.h"
#include "core/theorems.h"
#include "core/view.h"
#include "store/serialize.h"
#include "store/store.h"
#include "topology/homology.h"
#include "util/hash.h"

namespace psph {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("psph_store_test." + std::to_string(::getpid()) + "." +
             std::to_string(counter.fetch_add(1)));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// The three figure complexes from the paper (Figures 1-3), rebuilt the way
// the fig* bench binaries build them.
topology::SimplicialComplex figure1() {
  topology::VertexArena arena;
  return core::pseudosphere_uniform({0, 1, 2}, {0, 1}, arena);
}

topology::SimplicialComplex figure2() {
  topology::VertexArena arena;
  return core::pseudosphere({0, 1}, {{0, 1, 2}, {5, 6}}, arena);
}

topology::SimplicialComplex figure3() {
  core::ViewRegistry views;
  topology::VertexArena arena;
  const topology::Simplex input = core::rainbow_input(3, views, arena);
  return core::sync_round_complex(input, {3, 1, 1, 1}, views, arena);
}

TEST(Serialize, PrimitiveRoundTrip) {
  store::ByteWriter out;
  out.u8(0xab);
  out.u16(0xbeef);
  out.u32(0xdeadbeefu);
  out.u64(0x0123456789abcdefULL);
  out.i32(-42);
  out.i64(-1234567890123456789LL);
  out.str("hello");
  store::ByteReader in(out.bytes());
  EXPECT_EQ(in.u8(), 0xab);
  EXPECT_EQ(in.u16(), 0xbeef);
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(in.i32(), -42);
  EXPECT_EQ(in.i64(), -1234567890123456789LL);
  EXPECT_EQ(in.str(), "hello");
  EXPECT_TRUE(in.done());
}

TEST(Serialize, BigIntRoundTripIsExact) {
  const std::vector<std::string> decimals{
      "0", "1", "-1", "4294967295", "4294967296", "-4294967296",
      "9223372036854775807", "-9223372036854775808",
      "123456789012345678901234567890123456789012345678901234567890",
      "-99999999999999999999999999999999999999999999999999"};
  for (const std::string& decimal : decimals) {
    const math::BigInt value(decimal);
    store::ByteWriter out;
    store::encode_bigint(out, value);
    store::ByteReader in(out.bytes());
    const math::BigInt back = store::decode_bigint(in);
    EXPECT_TRUE(in.done());
    EXPECT_EQ(back, value) << decimal;
    EXPECT_EQ(back.to_string(), decimal);
  }
}

TEST(Serialize, SimplexRoundTrip) {
  const topology::Simplex s{3, 1, 4, 15, 9, 2, 6};
  const topology::Simplex back =
      store::deserialize_simplex(store::serialize_simplex(s));
  EXPECT_EQ(back, s);
  const topology::Simplex empty;
  EXPECT_EQ(store::deserialize_simplex(store::serialize_simplex(empty)),
            empty);
}

TEST(Serialize, FigureComplexesRoundTrip) {
  for (const topology::SimplicialComplex& k :
       {figure1(), figure2(), figure3()}) {
    const std::vector<std::uint8_t> bytes = store::serialize_complex(k);
    const topology::SimplicialComplex back = store::deserialize_complex(bytes);
    EXPECT_EQ(back, k);
    EXPECT_EQ(back.facet_count(), k.facet_count());
    EXPECT_EQ(back.dimension(), k.dimension());
    // Canonical: re-serializing the decoded complex is byte-identical.
    EXPECT_EQ(store::serialize_complex(back), bytes);
  }
}

TEST(Serialize, HomologyReportRoundTripIncludingBigTorsion) {
  // A measured report from a real complex...
  const topology::HomologyReport measured = topology::reduced_homology(
      figure1(), {.max_dim = 2, .exact = true});
  const topology::HomologyReport back = store::deserialize_homology_report(
      store::serialize_homology_report(measured));
  EXPECT_EQ(back.nonempty, measured.nonempty);
  EXPECT_EQ(back.exact, measured.exact);
  EXPECT_EQ(back.reduced_betti, measured.reduced_betti);
  EXPECT_EQ(back.torsion, measured.torsion);

  // ...and a synthetic one whose torsion coefficients exceed any fixed
  // width, exercising the BigInt limb encoding.
  topology::HomologyReport synthetic;
  synthetic.nonempty = true;
  synthetic.exact = true;
  synthetic.reduced_betti = {0, 3, -1};
  synthetic.torsion = {
      {}, {"2", "2", "6"},
      {"340282366920938463463374607431768211457",
       "123456789012345678901234567890123456789012345678901234567890"}};
  const topology::HomologyReport synthetic_back =
      store::deserialize_homology_report(
          store::serialize_homology_report(synthetic));
  EXPECT_EQ(synthetic_back.reduced_betti, synthetic.reduced_betti);
  EXPECT_EQ(synthetic_back.torsion, synthetic.torsion);
}

TEST(Serialize, VerdictRoundTrips) {
  core::ConnectivityCheck check;
  check.expected = -1;
  check.measured = 2;
  check.satisfied = true;
  check.facet_count = 123456;
  check.vertex_count = 789;
  check.dimension = 4;
  const core::ConnectivityCheck check_back =
      store::deserialize_connectivity_check(
          store::serialize_connectivity_check(check));
  EXPECT_EQ(check_back.expected, check.expected);
  EXPECT_EQ(check_back.measured, check.measured);
  EXPECT_EQ(check_back.satisfied, check.satisfied);
  EXPECT_EQ(check_back.facet_count, check.facet_count);
  EXPECT_EQ(check_back.vertex_count, check.vertex_count);
  EXPECT_EQ(check_back.dimension, check.dimension);
}

TEST(Serialize, RejectsTruncatedEnvelope) {
  const std::vector<std::uint8_t> bytes = store::serialize_complex(figure1());
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{15}, bytes.size() / 2,
        bytes.size() - 1}) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + keep);
    EXPECT_THROW(store::deserialize_complex(cut), store::SerializationError)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
}

TEST(Serialize, RejectsEveryFlippedByte) {
  const std::vector<std::uint8_t> bytes = store::serialize_simplex(
      topology::Simplex{1, 2, 3});
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::uint8_t> tampered = bytes;
    tampered[i] ^= 0x40;
    EXPECT_THROW(store::deserialize_simplex(tampered),
                 store::SerializationError)
        << "flip at byte " << i << " went undetected";
  }
}

TEST(Serialize, RejectsWrongVersionLoudly) {
  // Build an envelope that is valid in every way except its version field,
  // by resealing with a patched version and a recomputed checksum.
  std::vector<std::uint8_t> bytes = store::serialize_simplex(
      topology::Simplex{1, 2});
  bytes[4] = 0x63;  // version 99 (LE)
  bytes[5] = 0x00;
  const std::uint64_t checksum =
      util::hash_bytes(bytes.data() + 4, bytes.size() - 4 - 8);
  for (int b = 0; b < 8; ++b) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(checksum >> (8 * b));
  }
  try {
    store::deserialize_simplex(bytes);
    FAIL() << "version 99 envelope was accepted";
  } catch (const store::SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(Serialize, RejectsKindMismatch) {
  const std::vector<std::uint8_t> bytes =
      store::serialize_simplex(topology::Simplex{1, 2});
  try {
    store::deserialize_complex(bytes);
    FAIL() << "simplex envelope decoded as a complex";
  } catch (const store::SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find("kind"), std::string::npos);
  }
}

TEST(CacheKey, DistinguishesKindParamsAndComplex) {
  store::CacheKeyBuilder a("lemma12");
  a.param(3).param(3).param(1).param(1);
  store::CacheKeyBuilder same("lemma12");
  same.param(3).param(3).param(1).param(1);
  EXPECT_EQ(a.key().hex(), same.key().hex());
  EXPECT_EQ(a.key().hex().size(), 32u);

  store::CacheKeyBuilder other_kind("lemma16");
  other_kind.param(3).param(3).param(1).param(1);
  EXPECT_NE(a.key().hex(), other_kind.key().hex());

  store::CacheKeyBuilder other_params("lemma12");
  other_params.param(3).param(3).param(1).param(2);
  EXPECT_NE(a.key().hex(), other_params.key().hex());

  store::CacheKeyBuilder with_fig1("conn");
  with_fig1.complex(figure1());
  store::CacheKeyBuilder with_fig2("conn");
  with_fig2.complex(figure2());
  store::CacheKeyBuilder with_fig1_again("conn");
  with_fig1_again.complex(figure1());
  EXPECT_EQ(with_fig1.key().hex(), with_fig1_again.key().hex());
  EXPECT_NE(with_fig1.key().hex(), with_fig2.key().hex());
}

TEST(ResultStore, SaveLoadRoundTrip) {
  TempDir dir;
  store::ResultStore cache(dir.path());
  store::CacheKeyBuilder key("test/roundtrip");
  key.param(7);
  EXPECT_FALSE(cache.load(key).has_value());

  const std::vector<std::uint8_t> result =
      store::serialize_complex(figure3());
  cache.save(key, result);
  const auto loaded = cache.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, result);
  EXPECT_EQ(store::deserialize_complex(*loaded), figure3());

  const store::StoreStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_GT(stats.bytes_written, 0u);

  // Fan-out layout: objects/ab/cd/<32 hex>.psph.
  const fs::path entry = cache.entry_path(key.key());
  EXPECT_TRUE(fs::exists(entry));
  EXPECT_EQ(entry.parent_path().filename().string(),
            key.key().hex().substr(2, 2));
  EXPECT_EQ(entry.parent_path().parent_path().filename().string(),
            key.key().hex().substr(0, 2));
}

TEST(ResultStore, CorruptAndTruncatedEntriesDegradeToMisses) {
  TempDir dir;
  store::ResultStore cache(dir.path());
  store::CacheKeyBuilder key("test/corrupt");
  cache.save(key, store::serialize_simplex(topology::Simplex{1, 2, 3}));
  const fs::path entry = cache.entry_path(key.key());

  // Flip a payload byte in place.
  {
    std::fstream file(entry, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(20);
    char byte = 0;
    file.seekg(20);
    file.get(byte);
    file.seekp(20);
    byte = static_cast<char>(byte ^ 0x10);
    file.put(byte);
  }
  EXPECT_FALSE(cache.load(key).has_value());
  EXPECT_EQ(cache.stats().corrupt_entries, 1u);

  // Truncate the entry.
  cache.save(key, store::serialize_simplex(topology::Simplex{1, 2, 3}));
  ASSERT_TRUE(cache.load(key).has_value());
  fs::resize_file(entry, 10);
  EXPECT_FALSE(cache.load(key).has_value());

  // Replace with garbage that is not even an envelope.
  {
    std::ofstream file(entry, std::ios::binary | std::ios::trunc);
    file << "not a psph blob";
  }
  EXPECT_FALSE(cache.load(key).has_value());
}

TEST(ResultStore, ConcurrentWritersToOneCacheDir) {
  TempDir dir;
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 16;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dir, t] {
      store::ResultStore cache(dir.path());
      for (int i = 0; i < kKeysPerThread; ++i) {
        // Half the keys are shared across all threads (same payload), half
        // are private — both must publish atomically.
        const int owner = i % 2 == 0 ? -1 : t;
        store::CacheKeyBuilder key("test/concurrent");
        key.param(owner).param(i);
        store::ByteWriter payload;
        payload.i64(owner);
        payload.i64(i);
        cache.save(key, store::seal(store::PayloadKind::kRawBytes,
                                    payload.bytes()));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  store::ResultStore cache(dir.path());
  for (int t = -1; t < kThreads; ++t) {
    for (int i = 0; i < kKeysPerThread; ++i) {
      const bool shared = i % 2 == 0;
      if ((shared && t != -1) || (!shared && t == -1)) continue;
      store::CacheKeyBuilder key("test/concurrent");
      key.param(t).param(i);
      const auto loaded = cache.load(key);
      ASSERT_TRUE(loaded.has_value()) << "owner " << t << " index " << i;
      const std::vector<std::uint8_t> payload =
          store::unseal(*loaded, store::PayloadKind::kRawBytes);
      store::ByteReader in(payload);
      EXPECT_EQ(in.i64(), t);
      EXPECT_EQ(in.i64(), i);
    }
  }
  // No temp-file droppings left behind.
  EXPECT_TRUE(fs::is_empty(dir.path() / "tmp"));
}

// The publish step takes an advisory flock on <root>/lock. With the lock
// held by this process, a forked child's save must block at publish; after
// release it completes and the entry is valid. The assertions are one-sided
// so scheduler jitter can never produce a false failure: a slow child
// passes the "not yet" window trivially, and the final reads are blocking.
TEST(ResultStore, CrossProcessPublishLockSerializes) {
  TempDir dir;
  store::ResultStore parent_store(dir.path());  // creates root layout
  const std::shared_ptr<store::FsOps> fs = store::FsOps::real();
  const int lock_handle = fs->lock_file(dir.path() / "lock");

  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: no gtest, no exceptions escaping, _exit only.
    ::close(pipe_fds[0]);
    int code = 0;
    try {
      store::ResultStore child_store(dir.path());
      store::CacheKeyBuilder key("test/flock");
      key.param(1);
      const char entered = 'a';
      (void)!::write(pipe_fds[1], &entered, 1);
      child_store.save(
          key, store::seal(store::PayloadKind::kRawBytes, {0x42}));
      const char done = 'b';
      (void)!::write(pipe_fds[1], &done, 1);
    } catch (...) {
      code = 1;
    }
    ::close(pipe_fds[1]);
    ::_exit(code);
  }
  ::close(pipe_fds[1]);

  char byte = 0;
  ASSERT_EQ(::read(pipe_fds[0], &byte, 1), 1);  // child reached save()
  EXPECT_EQ(byte, 'a');
  // While we hold the lock, "save done" must not arrive. Poll briefly;
  // seeing nothing is the pass condition, so a slow child cannot flake.
  ::timeval window{0, 200 * 1000};
  fd_set readable;
  FD_ZERO(&readable);
  FD_SET(pipe_fds[0], &readable);
  const int ready = ::select(pipe_fds[0] + 1, &readable, nullptr, nullptr,
                             &window);
  EXPECT_EQ(ready, 0) << "child published while the flock was held";

  fs->unlock_file(lock_handle);
  ASSERT_EQ(::read(pipe_fds[0], &byte, 1), 1);  // blocks until child saves
  EXPECT_EQ(byte, 'b');
  ::close(pipe_fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

  store::CacheKeyBuilder key("test/flock");
  key.param(1);
  const auto loaded = parent_store.load(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(store::unseal(*loaded, store::PayloadKind::kRawBytes),
            std::vector<std::uint8_t>{0x42});
}

// Two writer *processes* hammering one root: every entry must come back
// valid and the tmp dir clean — the cross-process analogue of the threaded
// ConcurrentWriters test above.
TEST(ResultStore, TwoProcessContention) {
  TempDir dir;
  constexpr int kProcs = 2;
  constexpr int kKeysPerProc = 24;
  std::vector<pid_t> children;
  for (int p = 0; p < kProcs; ++p) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      int code = 0;
      try {
        store::ResultStore cache(dir.path());
        for (int i = 0; i < kKeysPerProc; ++i) {
          // Even indices collide across processes (same key, same bytes);
          // odd ones are per-process.
          const bool shared = i % 2 == 0;
          store::CacheKeyBuilder key("test/two-process");
          key.param(shared ? -1 : p).param(i);
          store::ByteWriter payload;
          payload.i64(shared ? -1 : p);
          payload.i64(i);
          cache.save(key, store::seal(store::PayloadKind::kRawBytes,
                                      payload.bytes()));
        }
      } catch (...) {
        code = 1;
      }
      ::_exit(code);
    }
    children.push_back(pid);
  }
  for (const pid_t pid : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  store::ResultStore cache(dir.path());
  for (int p = -1; p < kProcs; ++p) {
    for (int i = 0; i < kKeysPerProc; ++i) {
      const bool shared = i % 2 == 0;
      if ((shared && p != -1) || (!shared && p == -1)) continue;
      store::CacheKeyBuilder key("test/two-process");
      key.param(p).param(i);
      const auto loaded = cache.load(key);
      ASSERT_TRUE(loaded.has_value()) << "proc " << p << " index " << i;
      const std::vector<std::uint8_t> payload =
          store::unseal(*loaded, store::PayloadKind::kRawBytes);
      store::ByteReader in(payload);
      EXPECT_EQ(in.i64(), p);
      EXPECT_EQ(in.i64(), i);
    }
  }
  EXPECT_TRUE(fs::is_empty(dir.path() / "tmp"));
}

}  // namespace
}  // namespace psph
