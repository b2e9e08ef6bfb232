// Tests for the serving layer (src/serve): JSON strictness, wire framing
// under torn/oversized/garbage input, request validation, and the daemon
// core — bit-identical responses vs the batch compute path, coalescing of
// identical in-flight queries, bounded-queue admission control, and
// per-query deadlines (expired-in-queue and cancelled-while-running).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/queries.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "store/store.h"
#include "util/hash.h"
#include "util/random.h"

namespace psph::serve {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("psph_serve_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

// ---------------------------------------------------------------- json --

TEST(Json, RoundTripsTypesExactly) {
  const std::string text =
      "{\"a\":1,\"b\":-2.5,\"c\":\"x\\n\",\"d\":[true,false,null],"
      "\"e\":{\"nested\":9223372036854775807}}";
  const Json value = Json::parse(text);
  EXPECT_EQ(value.get("a")->as_int(), 1);
  EXPECT_TRUE(value.get("b")->is_double());
  EXPECT_EQ(value.get("c")->as_string(), "x\n");
  EXPECT_EQ(value.get("d")->items().size(), 3u);
  EXPECT_EQ(value.get("e")->get("nested")->as_int(),
            std::numeric_limits<std::int64_t>::max());
  // dump → parse → dump is a fixed point (deterministic rendering).
  const std::string once = value.dump();
  EXPECT_EQ(Json::parse(once).dump(), once);
}

TEST(Json, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",          "{",        "[1,",       "{\"a\":}",  "tru",
      "01",        "1.",       "\"\\q\"",   "\"\x01\"",  "{\"a\":1}x",
      "nan",       "[1]]",     "{\"a\" 1}", "--1",       "\"\\ud800\"",
  };
  for (const char* text : bad) {
    EXPECT_THROW(Json::parse(text), JsonError) << "input: " << text;
  }
}

TEST(Json, DepthLimitStopsAdversarialNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW(Json::parse(deep), JsonError);
}

// ---------------------------------------------------------------- wire --

TEST(Wire, FramesRoundTripAndCleanCloseIsDistinct) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  write_frame(fds[0], "{\"x\":1}");
  write_frame(fds[0], "");
  std::string payload;
  EXPECT_EQ(read_frame(fds[1], &payload), FrameStatus::kFrame);
  EXPECT_EQ(payload, "{\"x\":1}");
  EXPECT_EQ(read_frame(fds[1], &payload), FrameStatus::kFrame);
  EXPECT_EQ(payload, "");
  ::close(fds[0]);
  EXPECT_EQ(read_frame(fds[1], &payload), FrameStatus::kClosed);
  ::close(fds[1]);
}

TEST(Wire, OversizedAnnouncementIsRejectedWithoutAllocation) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint8_t header[4] = {0xFF, 0xFF, 0xFF, 0xFF};  // ~4 GiB claim
  ASSERT_EQ(::write(fds[0], header, 4), 4);
  std::string payload;
  EXPECT_THROW(read_frame(fds[1], &payload), WireError);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Wire, TornFramesThrowInsteadOfHanging) {
  // Torn header.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint8_t half_header[2] = {10, 0};
  ASSERT_EQ(::write(fds[0], half_header, 2), 2);
  ::close(fds[0]);
  std::string payload;
  EXPECT_THROW(read_frame(fds[1], &payload), WireError);
  ::close(fds[1]);

  // Torn payload: header promises 100 bytes, 3 arrive.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint8_t header[4] = {100, 0, 0, 0};
  ASSERT_EQ(::write(fds[0], header, 4), 4);
  ASSERT_EQ(::write(fds[0], "abc", 3), 3);
  ::close(fds[0]);
  EXPECT_THROW(read_frame(fds[1], &payload), WireError);
  ::close(fds[1]);
}

// ------------------------------------------------------------ protocol --

Json make_request(std::int64_t id, const std::string& kind,
                  const std::string& model) {
  Json request = Client::request(id, kind);
  request.set("model", Json::string(model));
  return request;
}

TEST(Protocol, ValidatesAndNormalizes) {
  Json request = make_request(1, "connectivity", "async");
  request.set("processes", Json::integer(4));
  request.set("f", Json::integer(1));
  request.set("k", Json::integer(3));   // irrelevant for async connectivity
  request.set("mu", Json::integer(5));  // irrelevant too
  const ParsedRequest a = parse_request(request);
  ASSERT_TRUE(a.query.has_value()) << a.error->message;
  request.set("k", Json::integer(1));
  request.set("mu", Json::integer(9));
  const ParsedRequest b = parse_request(request);
  ASSERT_TRUE(b.query.has_value());
  // Normalization zeroes unused fields, so the cache keys — and therefore
  // coalescing — agree.
  EXPECT_EQ(cache_key(*a.query).key().hex(), cache_key(*b.query).key().hex());

  const char* rejected[] = {
      "{\"kind\":\"connectivity\",\"model\":\"byzantine\"}",
      "{\"kind\":\"warp\"}",
      "{\"kind\":\"decide\",\"model\":\"pseudosphere\"}",
      "{\"kind\":\"connectivity\",\"processes\":99}",
      "{\"kind\":\"connectivity\",\"processes\":3,\"participants\":5}",
      "{\"kind\":\"connectivity\",\"f\":3,\"processes\":3}",
      "{\"kind\":\"connectivity\",\"model\":\"pseudosphere\"}",
      "{\"kind\":\"homology\",\"deadline_ms\":-5}",
      "{\"id\":\"seven\",\"kind\":\"ping\"}",
      "[1,2,3]",
  };
  for (const char* text : rejected) {
    const ParsedRequest parsed = parse_request(Json::parse(text));
    EXPECT_TRUE(parsed.error.has_value()) << text;
    EXPECT_EQ(parsed.error->code, "bad_request") << text;
  }
}

TEST(Protocol, ConstructionBackendIsValidatedAndScoped) {
  const ParsedRequest bad_value = parse_request(Json::parse(
      R"({"kind":"complex_stats","model":"async","construction":"fast"})"));
  ASSERT_TRUE(bad_value.error.has_value());
  EXPECT_EQ(bad_value.error->code, "bad_request");

  // Kinds that never consume the backend normalize it away, so a stray
  // construction field cannot split the cache key or defeat coalescing.
  const auto connectivity = [](const char* construction) {
    Json request = make_request(1, "connectivity", "async");
    request.set("processes", Json::integer(3)).set("f", Json::integer(1));
    if (construction != nullptr) {
      request.set("construction", Json::string(construction));
    }
    const ParsedRequest parsed = parse_request(request);
    EXPECT_TRUE(parsed.query.has_value());
    return cache_key(*parsed.query).key().hex();
  };
  EXPECT_EQ(connectivity(nullptr), connectivity("orbit"));

  // complex_stats does consume it: full and orbit must cache separately.
  const auto stats = [](const char* construction) {
    Json request = make_request(1, "complex_stats", "async");
    request.set("processes", Json::integer(3)).set("f", Json::integer(1));
    if (construction != nullptr) {
      request.set("construction", Json::string(construction));
    }
    const ParsedRequest parsed = parse_request(request);
    EXPECT_TRUE(parsed.query.has_value());
    return cache_key(*parsed.query).key().hex();
  };
  EXPECT_EQ(stats(nullptr), stats("full"));
  EXPECT_NE(stats("full"), stats("orbit"));

  // Pseudospheres have no round structure to quotient: orbit normalizes
  // back to full rather than erroring.
  Json request = make_request(1, "complex_stats", "pseudosphere");
  Json sizes = Json::array();
  sizes.push(Json::integer(2)).push(Json::integer(2));
  request.set("sizes", std::move(sizes));
  request.set("construction", Json::string("orbit"));
  const ParsedRequest parsed = parse_request(request);
  ASSERT_TRUE(parsed.query.has_value());
  EXPECT_EQ(parsed.query->construction, "full");
}

std::string digest_hex(std::uint64_t digest) {
  char text[19];
  std::snprintf(text, sizeof text, "0x%016llx",
                static_cast<unsigned long long>(digest));
  return text;
}

Query model_query(QueryKind kind, const std::string& model, int processes,
                  int participants, int fk, int mu, int rounds) {
  Query q;
  q.kind = kind;
  q.model = model;
  q.processes = processes;
  q.participants = participants;
  q.f = fk;
  q.k = fk;
  q.mu = mu;
  q.rounds = rounds;
  return q;
}

TEST(Queries, SealedRecordsMatchPinnedDigests) {
  // Sealed records are stored and served as they are, so their bytes are
  // part of the contract: a change to how connectivity or homology is
  // computed must leave every digest below as it is. Connectivity covers
  // expected -1, 0, 1 and 2 on every model (sync (3,3,1,2) and semisync
  // (3,3,1,2,2) measure -1: disconnected); homology covers max_dim 0..3,
  // exact on and off, both construction backends.
  struct Pinned {
    Query query;
    std::uint64_t digest;
  };
  const auto connectivity = [](const std::string& model, int n1, int m1,
                               int fk, int mu, int r) {
    return model_query(QueryKind::kConnectivity, model, n1, m1, fk, mu, r);
  };
  const auto pseudosphere = [](std::vector<int> sizes) {
    Query q;
    q.kind = QueryKind::kConnectivity;
    q.model = "pseudosphere";
    q.sizes = std::move(sizes);
    return q;
  };
  std::vector<Pinned> pinned = {
      {connectivity("async", 3, 2, 1, 0, 1),  // -1
       0x5b29e96778b6c9bbULL},
      {connectivity("async", 3, 3, 1, 0, 2),  // 0
       0xb0512511a5d145b5ULL},
      {connectivity("async", 3, 3, 2, 0, 1),  // 1
       0x7bf787d11d3220e5ULL},
      {connectivity("async", 4, 4, 3, 0, 1),  // 2
       0x40cd1c8bfc26d023ULL},
      {connectivity("sync", 3, 2, 1, 0, 1),  // -1
       0xcdd207514603bd0fULL},
      {connectivity("sync", 3, 3, 1, 0, 2),  // 0
       0x2bbf60e38c3fb9a5ULL},
      {connectivity("sync", 4, 4, 2, 0, 1),  // 1
       0x19c69aba210883bdULL},
      {connectivity("sync", 4, 4, 3, 0, 1),  // 2
       0x71e35ad4e0ef89e9ULL},
      {connectivity("semisync", 3, 2, 1, 2, 1),  // -1
       0x486cf371aaa62006ULL},
      {connectivity("semisync", 3, 3, 1, 2, 2),  // 0
       0x5ed65606e6188697ULL},
      {connectivity("semisync", 4, 4, 2, 2, 1),  // 1
       0x96b1464e29627bf0ULL},
      {connectivity("semisync", 4, 4, 3, 2, 1),  // 2
       0xca44f78f857579c7ULL},
      {pseudosphere({2}),  // -1
       0x9580c4d5dd269da2ULL},
      {pseudosphere({2, 2}),  // 0
       0x7d75a982b8d05bf6ULL},
      {pseudosphere({2, 3, 2}),  // 1
       0xcb3c4c3e3d91d08dULL},
      {pseudosphere({2, 3, 2, 2}),  // 2
       0xdbe147a5bbf724a9ULL},
  };
  // Homology: the pseudospheres are a circle and a 3-sphere (full only);
  // sync (3,3,1,2) is disconnected; async (4,4,1,1) is 3-dimensional.
  const auto homology = [](const std::string& model, int n1, int m1, int fk,
                           int mu, int r) {
    return model_query(QueryKind::kHomology, model, n1, m1, fk, mu, r);
  };
  Query circle;
  circle.kind = QueryKind::kHomology;
  circle.model = "pseudosphere";
  circle.sizes = {2, 2};
  Query sphere3 = circle;
  sphere3.sizes = {2, 2, 2, 2};
  const std::vector<Query> homology_bases = {
      circle,
      sphere3,
      homology("async", 3, 3, 1, 0, 1),
      homology("sync", 3, 3, 1, 0, 2),
      homology("semisync", 3, 3, 1, 2, 1),
      homology("async", 4, 4, 1, 0, 1),
  };
  // Per base: full then orbit (timing models only); exact off then on;
  // max_dim 0..3.
  const std::vector<std::uint64_t> homology_digests = {
      0xaa586766057b57a3ULL, 0xfa6706fb090a1e62ULL, 0x1e6447c54c6d46c3ULL,
      0x9ffce20fcedcdca3ULL, 0x6459082b1bf0b6a5ULL, 0x95cb005e3fde7e85ULL,
      0x306bf9526d59a5d2ULL, 0x212a16b420a7a853ULL, 0xaa586766057b57a3ULL,
      0xe173bff652f9b7d7ULL, 0x189bd244030fdc96ULL, 0xb6461cf3fe80f67aULL,
      0x6459082b1bf0b6a5ULL, 0xc0d4318a1914f0d8ULL, 0x6eba47327c1ad07cULL,
      0xf732de5fd278bb66ULL, 0xaa586766057b57a3ULL, 0xe173bff652f9b7d7ULL,
      0x913bcc22d5fba55bULL, 0x8ae7d5e168bd83d7ULL, 0x6459082b1bf0b6a5ULL,
      0xc0d4318a1914f0d8ULL, 0xee5598af12b97e7cULL, 0x2080903c41ed0f30ULL,
      0xaa586766057b57a3ULL, 0xe173bff652f9b7d7ULL, 0x913bcc22d5fba55bULL,
      0x8ae7d5e168bd83d7ULL, 0x6459082b1bf0b6a5ULL, 0xc0d4318a1914f0d8ULL,
      0xee5598af12b97e7cULL, 0x2080903c41ed0f30ULL, 0x8151f61803bfc265ULL,
      0x184d2a42682ff080ULL, 0xeeee4d2942690b0bULL, 0x614d0f74b6d94647ULL,
      0x071e59004f3cc4b2ULL, 0xf9b966ba163e663bULL, 0x1ed3f9ff7938e63cULL,
      0xe6affb7e74f8aaddULL, 0x8151f61803bfc265ULL, 0x184d2a42682ff080ULL,
      0xeeee4d2942690b0bULL, 0x614d0f74b6d94647ULL, 0x071e59004f3cc4b2ULL,
      0xf9b966ba163e663bULL, 0x1ed3f9ff7938e63cULL, 0xe6affb7e74f8aaddULL,
      0xaa586766057b57a3ULL, 0x5cf2127c412d384bULL, 0x6b61feae748ffaddULL,
      0x667ffc452f5c3bc5ULL, 0x6459082b1bf0b6a5ULL, 0xdbcbadbe9c9cba50ULL,
      0x988137a1bcc2c981ULL, 0x4a20ccb7af34743cULL, 0xaa586766057b57a3ULL,
      0x5cf2127c412d384bULL, 0x6b61feae748ffaddULL, 0x667ffc452f5c3bc5ULL,
      0x6459082b1bf0b6a5ULL, 0xdbcbadbe9c9cba50ULL, 0x988137a1bcc2c981ULL,
      0x4a20ccb7af34743cULL, 0xaa586766057b57a3ULL, 0xe173bff652f9b7d7ULL,
      0x189bd244030fdc96ULL, 0xa99b43e193f903dcULL, 0x6459082b1bf0b6a5ULL,
      0xc0d4318a1914f0d8ULL, 0x6eba47327c1ad07cULL, 0xd93e1dbfe815b248ULL,
      0xaa586766057b57a3ULL, 0xe173bff652f9b7d7ULL, 0x189bd244030fdc96ULL,
      0xa99b43e193f903dcULL, 0x6459082b1bf0b6a5ULL, 0xc0d4318a1914f0d8ULL,
      0x6eba47327c1ad07cULL, 0xd93e1dbfe815b248ULL,
  };
  std::size_t next = 0;
  for (const Query& base : homology_bases) {
    for (const char* construction : {"full", "orbit"}) {
      if (base.model == "pseudosphere" && construction[0] == 'o') continue;
      for (const bool exact : {false, true}) {
        for (int max_dim = 0; max_dim <= 3; ++max_dim) {
          Query q = base;
          q.construction = construction;
          q.exact = exact;
          q.max_dim = max_dim;
          pinned.push_back({q, homology_digests.at(next++)});
        }
      }
    }
  }
  ASSERT_EQ(next, homology_digests.size());
  for (const Pinned& p : pinned) {
    const Query& q = p.query;
    SCOPED_TRACE(cache_key(q).key().hex() + " " + q.model + " " +
                 q.construction + " exact=" + std::to_string(q.exact) +
                 " max_dim=" + std::to_string(q.max_dim));
    const std::vector<std::uint8_t> sealed = compute_sealed(q);
    EXPECT_EQ(digest_hex(util::hash_bytes(sealed.data(), sealed.size())),
              digest_hex(p.digest));
  }
}

TEST(Queries, OrbitBackendMatchesFullBackendValueForValue) {
  for (const std::string model : {"async", "sync", "semisync"}) {
    Query full;
    full.kind = QueryKind::kComplexStats;
    full.model = model;
    full.processes = 3;
    full.participants = 3;
    full.f = 1;
    full.k = 1;
    full.mu = 2;
    full.rounds = 2;
    Query orbit = full;
    orbit.construction = "orbit";

    const Json a = execute_query(full, nullptr).body;
    const Json b = execute_query(orbit, nullptr).body;
    for (const char* field : {"facets", "vertices", "dimension", "euler"}) {
      ASSERT_TRUE(a.get(field) != nullptr && b.get(field) != nullptr) << field;
      EXPECT_EQ(a.get(field)->as_int(), b.get(field)->as_int())
          << model << " " << field;
    }
    EXPECT_EQ(a.get("f_vector")->dump(), b.get("f_vector")->dump()) << model;
    ASSERT_TRUE(b.get("orbit") != nullptr) << model;
    EXPECT_EQ(b.get("orbit")->get("group_order")->as_int(), 6) << model;
    EXPECT_GT(b.get("orbit")->get("orbit_reps")->as_int(), 0) << model;
    EXPECT_LE(b.get("orbit")->get("reduced_facets")->as_int(),
              a.get("facets")->as_int())
        << model;
    EXPECT_EQ(a.get("orbit"), nullptr) << model;

    // max_dim 0 takes the orbit backend's union-find over the images (no
    // reconstitution); max_dim 2 reconstitutes. Both must match full mode
    // byte for byte, exact on and off.
    for (const int max_dim : {0, 2}) {
      for (const bool exact : {false, true}) {
        Query hfull = full;
        hfull.kind = QueryKind::kHomology;
        hfull.max_dim = max_dim;
        hfull.exact = exact;
        Query horbit = hfull;
        horbit.construction = "orbit";
        const QueryResult a_result = execute_query(hfull, nullptr);
        const QueryResult b_result = execute_query(horbit, nullptr);
        EXPECT_EQ(a_result.body.dump(), b_result.body.dump())
            << model << " max_dim=" << max_dim << " exact=" << exact;
        EXPECT_EQ(a_result.sealed, b_result.sealed)
            << model << " max_dim=" << max_dim << " exact=" << exact;
      }
    }
  }
}

// -------------------------------------------------------------- server --

class ServeTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    options.socket_path = (dir_.path / "serve.sock").string();
    if (options.store_dir.empty()) {
      options.store_dir = (dir_.path / "store").string();
    }
    server_ = std::make_unique<Server>(std::move(options));
    server_->start();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->stop();
  }

  std::string socket_path() const { return (dir_.path / "serve.sock").string(); }

  /// Polls until the compute queue holds `depth` requests (staged tests
  /// pause the dispatcher first, so the depth can only grow).
  void WaitForQueueDepth(std::size_t depth) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server_->stats().queue_depth < depth) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "queue never reached depth " << depth;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  TempDir dir_;
  std::unique_ptr<Server> server_;
};

/// The seven query shapes the protocol serves, one per (kind, model) family.
std::vector<Json> canonical_queries() {
  std::vector<Json> queries;
  {
    Json q = make_request(0, "connectivity", "async");
    q.set("processes", Json::integer(3)).set("f", Json::integer(1));
    queries.push_back(q);
  }
  {
    Json q = make_request(0, "connectivity", "sync");
    q.set("processes", Json::integer(3)).set("k", Json::integer(1));
    queries.push_back(q);
  }
  {
    Json q = make_request(0, "connectivity", "semisync");
    q.set("processes", Json::integer(3))
        .set("k", Json::integer(1))
        .set("mu", Json::integer(2));
    queries.push_back(q);
  }
  {
    Json q = make_request(0, "connectivity", "pseudosphere");
    Json sizes = Json::array();
    sizes.push(Json::integer(2)).push(Json::integer(2)).push(Json::integer(2));
    q.set("sizes", std::move(sizes));
    queries.push_back(q);
  }
  {
    Json q = make_request(0, "homology", "async");
    q.set("processes", Json::integer(3))
        .set("f", Json::integer(1))
        .set("max_dim", Json::integer(2))
        .set("exact", Json::boolean(true));
    queries.push_back(q);
  }
  {
    Json q = make_request(0, "complex_stats", "sync");
    q.set("processes", Json::integer(3)).set("k", Json::integer(1));
    queries.push_back(q);
  }
  {
    Json q = make_request(0, "decide", "async");
    q.set("processes", Json::integer(3))
        .set("f", Json::integer(1))
        .set("k", Json::integer(1));
    queries.push_back(q);
  }
  return queries;
}

TEST_F(ServeTest, ResponsesAreBitIdenticalToTheBatchPath) {
  StartServer();
  Client client(socket_path());
  std::int64_t next_id = 1;
  for (Json& request : canonical_queries()) {
    const ParsedRequest parsed = parse_request(request);
    ASSERT_TRUE(parsed.query.has_value()) << request.dump();

    request.set("id", Json::integer(next_id));
    const Json first = client.call(request);
    ASSERT_TRUE(first.get("ok")->as_bool()) << first.dump();
    EXPECT_EQ(first.get("id")->as_int(), next_id);
    EXPECT_FALSE(first.get("cached")->as_bool());

    // The batch path: same check_*/reduced_homology calls, same encoders.
    const std::vector<std::uint8_t> batch_sealed = compute_sealed(*parsed.query);
    EXPECT_EQ(first.get("result")->dump(),
              render_result(*parsed.query, batch_sealed).dump())
        << request.dump();

    // The store holds exactly the batch bytes.
    store::ResultStore mirror(server_->options().store_dir);
    const auto stored = mirror.load(cache_key(*parsed.query));
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(*stored, batch_sealed);

    // Second ask: served from the store, rendered identically.
    request.set("id", Json::integer(++next_id));
    const Json second = client.call(request);
    ASSERT_TRUE(second.get("ok")->as_bool());
    EXPECT_TRUE(second.get("cached")->as_bool());
    EXPECT_EQ(second.get("result")->dump(), first.get("result")->dump());
    ++next_id;
  }
}

TEST_F(ServeTest, IdenticalInFlightQueriesCoalesceIntoOneComputation) {
  StartServer();
  server_->pause_dispatch();

  constexpr int kClients = 6;
  std::vector<std::unique_ptr<Client>> clients;
  Json request = make_request(0, "connectivity", "async");
  request.set("processes", Json::integer(3)).set("f", Json::integer(1));
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(socket_path()));
    request.set("id", Json::integer(i + 1));
    clients.back()->send(request);
  }
  WaitForQueueDepth(kClients);
  server_->resume_dispatch();

  int coalesced_responses = 0;
  std::string body;
  for (int i = 0; i < kClients; ++i) {
    const Json response = clients[i]->recv();
    ASSERT_TRUE(response.get("ok")->as_bool()) << response.dump();
    EXPECT_EQ(response.get("id")->as_int(), i + 1);
    if (body.empty()) {
      body = response.get("result")->dump();
    } else {
      EXPECT_EQ(response.get("result")->dump(), body);
    }
    if (response.get("coalesced")->as_bool()) ++coalesced_responses;
  }
  EXPECT_EQ(coalesced_responses, kClients - 1);

  const ServeStats stats = server_->stats();
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kClients - 1));
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST_F(ServeTest, FullQueueRejectsWithTypedOverloadedError) {
  ServerOptions options;
  options.queue_limit = 3;
  StartServer(std::move(options));
  server_->pause_dispatch();

  Client client(socket_path());
  for (int i = 1; i <= 5; ++i) {
    Json request = make_request(i, "connectivity", "pseudosphere");
    Json sizes = Json::array();
    // Distinct sizes per request: five different queries, no coalescing.
    sizes.push(Json::integer(1 + (i % 2))).push(Json::integer(i % 5 + 1));
    request.set("sizes", std::move(sizes));
    client.send(request);
  }

  // Requests 4 and 5 bounce immediately; 1..3 answer after the resume.
  std::vector<Json> responses;
  for (int i = 0; i < 2; ++i) responses.push_back(client.recv());
  server_->resume_dispatch();
  for (int i = 0; i < 3; ++i) responses.push_back(client.recv());

  int overloaded = 0, ok = 0;
  for (const Json& response : responses) {
    if (response.get("ok")->as_bool()) {
      ++ok;
    } else {
      EXPECT_EQ(response.get("error")->get("code")->as_string(), "overloaded");
      EXPECT_GE(response.get("id")->as_int(), 4);
      ++overloaded;
    }
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(overloaded, 2);
  EXPECT_EQ(server_->stats().overloaded, 2u);
}

TEST_F(ServeTest, DeadlineExpiredWhileQueuedIsRejectedBeforeComputing) {
  StartServer();
  server_->pause_dispatch();
  Client client(socket_path());
  Json request = make_request(7, "connectivity", "async");
  request.set("processes", Json::integer(3))
      .set("f", Json::integer(1))
      .set("deadline_ms", Json::integer(40));
  client.send(request);
  WaitForQueueDepth(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  server_->resume_dispatch();
  const Json response = client.recv();
  ASSERT_FALSE(response.get("ok")->as_bool());
  EXPECT_EQ(response.get("error")->get("code")->as_string(),
            "deadline_exceeded");
  EXPECT_EQ(server_->stats().computed, 0u);
}

TEST_F(ServeTest, RunningComputationIsCancelledCooperatively) {
  StartServer();
  Client client(socket_path());
  // Heavy enough that it cannot finish inside 1 ms; the engines' deadline
  // polls unwind it instead.
  Json request = make_request(8, "homology", "async");
  request.set("processes", Json::integer(5))
      .set("f", Json::integer(2))
      .set("rounds", Json::integer(2))
      .set("max_dim", Json::integer(3))
      .set("deadline_ms", Json::integer(1));
  const Json response = client.call(request);
  ASSERT_FALSE(response.get("ok")->as_bool()) << response.dump();
  EXPECT_EQ(response.get("error")->get("code")->as_string(),
            "deadline_exceeded");
}

TEST_F(ServeTest, OrbitDeadlineFiresInsideAConstructionLevel) {
  StartServer();
  Client client(socket_path());
  // Orbit async (6,1,1) is one construction level whose CONSUME phase
  // canonicalizes for seconds. The pipeline polls the deadline per facet,
  // so the query must be cancelled mid-level, not finish and be refused as
  // late. Like OrbitDeadlineTest, this needs a point slower than the
  // deadline.
  Json request = make_request(11, "complex_stats", "async");
  request.set("processes", Json::integer(6))
      .set("f", Json::integer(1))
      .set("rounds", Json::integer(1))
      .set("construction", Json::string("orbit"))
      .set("deadline_ms", Json::integer(200));
  const Json response = client.call(request);
  ASSERT_FALSE(response.get("ok")->as_bool()) << response.dump();
  EXPECT_EQ(response.get("error")->get("code")->as_string(),
            "deadline_exceeded");
  EXPECT_EQ(response.get("error")->get("message")->as_string(),
            "computation exceeded deadline");
}

TEST_F(ServeTest, DecideDeadlineFiresMidPropagationNotAsInternalError) {
  StartServer();
  Client client(socket_path());
  // The solvability engine's propagation loop polls the cooperative
  // deadline (the seed backtracker only polled every few thousand search
  // nodes), so a 1 ms budget on a heavy decide query must surface as
  // deadline_exceeded — never as an internal error, and never as a served
  // verdict.
  Json request = make_request(9, "decide", "async");
  request.set("processes", Json::integer(4))
      .set("f", Json::integer(2))
      .set("k", Json::integer(2))
      .set("deadline_ms", Json::integer(1));
  const Json response = client.call(request);
  ASSERT_FALSE(response.get("ok")->as_bool()) << response.dump();
  EXPECT_EQ(response.get("error")->get("code")->as_string(),
            "deadline_exceeded");
  // The abort left no cached verdict behind: the same query with no budget
  // computes the real answer (4 processes, f=2, k=2 is impossible by
  // Corollary 13 — k <= f — and the verdict must say so).
  request.set("id", Json::integer(10)).set("deadline_ms", Json::integer(0));
  const Json full = client.call(request);
  ASSERT_TRUE(full.get("ok")->as_bool()) << full.dump();
  EXPECT_TRUE(full.get("result")->get("impossible")->as_bool());
  EXPECT_TRUE(full.get("result")->get("search_exhausted")->as_bool());
}

TEST_F(ServeTest, AdminRequestsAnswerInline) {
  StartServer();
  Client client(socket_path());
  const Json pong = client.call(Client::request(1, "ping"));
  EXPECT_TRUE(pong.get("ok")->as_bool());

  Json request = make_request(2, "connectivity", "async");
  request.set("processes", Json::integer(3)).set("f", Json::integer(1));
  ASSERT_TRUE(client.call(request).get("ok")->as_bool());
  client.call(request.set("id", Json::integer(3)));

  const Json stats = client.call(Client::request(4, "stats"));
  ASSERT_TRUE(stats.get("ok")->as_bool());
  const Json* result = stats.get("result");
  EXPECT_EQ(result->get("computed")->as_int(), 1);
  EXPECT_EQ(result->get("store")->get("writes")->as_int(), 1);
  EXPECT_EQ(result->get("store")->get("hits")->as_int(), 1);
  EXPECT_GE(result->get("latency_us")->get("connectivity")->get("count")
                ->as_int(),
            2);

  const Json bye = client.call(Client::request(5, "shutdown"));
  EXPECT_TRUE(bye.get("ok")->as_bool());
  EXPECT_TRUE(server_->wait_for_shutdown(/*poll_ms=*/5000));
}

// ------------------------------------------------- malformed-input fuzz --

TEST_F(ServeTest, GarbagePayloadsGetTypedErrorsAndNeverWedgeTheConnection) {
  StartServer();
  Client client(socket_path());
  util::Rng rng(20260808);
  for (int i = 0; i < 50; ++i) {
    const std::size_t length = rng.next_below(200);
    std::string garbage(length, '\0');
    for (char& c : garbage) c = static_cast<char>(rng.next_below(256));
    write_frame(client.fd(), garbage);
    const Json response = client.recv();  // one response per frame, always
    ASSERT_FALSE(response.get("ok")->as_bool());
    const std::string code = response.get("error")->get("code")->as_string();
    EXPECT_TRUE(code == "bad_frame" || code == "bad_request") << code;
  }
  // The connection still serves real queries afterwards.
  EXPECT_TRUE(client.call(Client::request(99, "ping")).get("ok")->as_bool());
  EXPECT_EQ(server_->stats().internal_errors, 0u);
}

TEST_F(ServeTest, UnknownKindsAndBadShapesAreBadRequests) {
  StartServer();
  Client client(socket_path());
  const char* bad[] = {
      "{\"id\":1,\"kind\":\"frobnicate\"}",
      "{\"id\":2,\"kind\":42}",
      "{\"id\":3}",
      "[]",
      "{\"id\":4,\"kind\":\"decide\",\"model\":\"pseudosphere\"}",
      "{\"id\":5,\"kind\":\"homology\",\"max_dim\":99}",
  };
  for (const char* text : bad) {
    write_frame(client.fd(), text);
    const Json response = client.recv();
    ASSERT_FALSE(response.get("ok")->as_bool()) << text;
    EXPECT_EQ(response.get("error")->get("code")->as_string(), "bad_request")
        << text;
  }
}

TEST_F(ServeTest, OversizedFrameClosesTheConnectionWithoutCrashing) {
  StartServer();
  Client client(socket_path());
  const std::uint8_t header[4] = {0, 0, 0, 0x7F};  // ~2 GiB announcement
  ASSERT_EQ(::write(client.fd(), header, 4), 4);
  // The server reports bad_frame and closes; the client sees the error
  // frame and then EOF — never a hang.
  const Json response = client.recv();
  EXPECT_EQ(response.get("error")->get("code")->as_string(), "bad_frame");
  std::string payload;
  EXPECT_EQ(read_frame(client.fd(), &payload), FrameStatus::kClosed);
  // The server survives and accepts fresh connections.
  Client again(socket_path());
  EXPECT_TRUE(again.call(Client::request(1, "ping")).get("ok")->as_bool());
}

TEST_F(ServeTest, TornFrameFromDyingClientLeavesServerHealthy) {
  StartServer();
  {
    Client dying(socket_path());
    const std::uint8_t header[4] = {100, 0, 0, 0};
    ASSERT_EQ(::write(dying.fd(), header, 4), 4);
    ASSERT_EQ(::write(dying.fd(), "abc", 3), 3);
    // Destructor closes mid-frame: the server's reader sees a torn frame.
  }
  Client client(socket_path());
  EXPECT_TRUE(client.call(Client::request(1, "ping")).get("ok")->as_bool());
}

TEST_F(ServeTest, StorelessServerStillServes) {
  ServerOptions options;  // store_dir left empty: no cache
  options.socket_path = (dir_.path / "serve.sock").string();
  server_ = std::make_unique<Server>(std::move(options));
  server_->start();
  Client client(socket_path());
  Json request = make_request(1, "connectivity", "async");
  request.set("processes", Json::integer(3)).set("f", Json::integer(1));
  const Json first = client.call(request);
  ASSERT_TRUE(first.get("ok")->as_bool());
  const Json second = client.call(request.set("id", Json::integer(2)));
  EXPECT_FALSE(second.get("cached")->as_bool());  // nothing to cache into
  EXPECT_EQ(first.get("result")->dump(), second.get("result")->dump());
}

}  // namespace
}  // namespace psph::serve
