#pragma once

// The psph_serve daemon core (DESIGN §5.14).
//
// Thread structure:
//   * one listener thread accepting AF_UNIX connections,
//   * one reader thread per connection (admin requests answered inline,
//     compute requests admitted into a bounded queue),
//   * one dispatcher thread that drains the queue in batches, coalesces
//     identical queries (one computation, N responders), and fans the
//     unique jobs out over util::parallel_for. A job computes on the thread
//     that runs it, so the thread-local DeadlineScope it sets governs all
//     of its computation.
//
// Back-pressure is explicit: when the queue is full the reader answers
// `overloaded` immediately instead of buffering without bound. Deadlines
// are enforced twice — queued requests whose deadline passed are rejected
// before any work happens, and running computations are cancelled
// cooperatively via util/cancel.h.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "store/fs_ops.h"
#include "store/store.h"

namespace psph::serve {

struct ServerOptions {
  std::string socket_path;
  /// Result-store root; empty runs without a cache.
  std::string store_dir;
  /// Filesystem for the store (null = real). The fault-injection soak
  /// passes a FaultyFsOps here.
  std::shared_ptr<store::FsOps> fs;
  /// Compute requests admitted before `overloaded` rejections start.
  std::size_t queue_limit = 1024;
  /// Max compute requests drained per dispatcher batch.
  std::size_t batch_max = 64;
  /// Applied when a request carries no deadline_ms; 0 = unlimited.
  std::int64_t default_deadline_ms = 0;
  int listen_backlog = 64;
};

struct KindLatency {
  std::uint64_t count = 0;
  std::uint64_t total_us = 0;
  std::uint64_t max_us = 0;
};

/// Snapshot exported by the `stats` request (and Server::stats()).
struct ServeStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::uint64_t computed = 0;      // unique jobs actually computed
  std::uint64_t cache_hits = 0;    // unique jobs answered from the store
  std::uint64_t coalesced = 0;     // waiters served by someone else's job
  std::uint64_t overloaded = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t bad_requests = 0;
  std::uint64_t bad_frames = 0;
  std::uint64_t internal_errors = 0;
  std::size_t queue_depth = 0;
  std::size_t in_flight = 0;
  /// Queue-to-response latency per query kind, microseconds.
  std::map<std::string, KindLatency> per_kind;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  /// Binds the socket and starts the listener/dispatcher threads. Throws
  /// WireError or std::runtime_error on setup failure.
  void start();

  /// Stops accepting, finishes the in-flight batch, closes every
  /// connection, joins all threads, and unlinks the socket. Idempotent.
  void stop();

  /// True once a client has issued a `shutdown` request.
  bool shutdown_requested() const;
  /// Blocks until a `shutdown` request arrives, stop() is called, or
  /// `poll_ms` elapses (0 = wait indefinitely). Returns shutdown_requested().
  bool wait_for_shutdown(std::int64_t poll_ms = 0);

  ServeStats stats() const;
  /// Null when the server runs storeless.
  store::ResultStore* result_store() { return store_.get(); }

  /// Test hooks: freeze the dispatcher between batches so tests can stage a
  /// queue deterministically (coalescing, admission, queued-deadline tests).
  void pause_dispatch();
  void resume_dispatch();

  const ServerOptions& options() const { return options_; }

 private:
  struct Connection {
    int fd = -1;
    std::mutex write_mutex;
    void close_fd();
  };
  using ConnPtr = std::shared_ptr<Connection>;

  struct Pending {
    ConnPtr conn;
    std::int64_t id = 0;
    Query query;
    std::string key_hex;
    std::chrono::steady_clock::time_point enqueued;
    /// steady_clock::time_point::max() when unlimited.
    std::chrono::steady_clock::time_point deadline;
  };

  void listener_loop();
  void connection_loop(ConnPtr conn);
  void dispatcher_loop();
  void process_batch(std::vector<Pending> batch);
  void handle_admin(const ConnPtr& conn, const ParsedRequest& parsed);
  void send_json(const ConnPtr& conn, const Json& response);
  void note_latency(const Query& q,
                    std::chrono::steady_clock::time_point enqueued);
  Json render_stats() const;

  ServerOptions options_;
  std::unique_ptr<store::ResultStore> store_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool paused_ = false;
  bool stopping_ = false;

  std::mutex conns_mutex_;
  std::vector<ConnPtr> conns_;
  std::vector<std::thread> conn_threads_;

  std::thread listener_;
  std::thread dispatcher_;
  bool started_ = false;
  bool stopped_ = false;

  mutable std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool stop_signalled_ = false;  // lets wait_for_shutdown() observe stop()

  // Counters (atomic: bumped from reader threads and the dispatcher).
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> computed_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> overloaded_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
  std::atomic<std::uint64_t> bad_frames_{0};
  std::atomic<std::uint64_t> internal_errors_{0};
  std::atomic<std::size_t> in_flight_{0};

  mutable std::mutex latency_mutex_;
  std::map<std::string, KindLatency> per_kind_;
};

}  // namespace psph::serve
