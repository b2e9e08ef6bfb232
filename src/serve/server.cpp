#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "obs/obs.h"
#include "serve/queries.h"
#include "serve/wire.h"
#include "util/cancel.h"
#include "util/parallel.h"

namespace psph::serve {

namespace {

using Clock = std::chrono::steady_clock;

obs::Counter g_requests("serve.requests");
obs::Counter g_coalesced("serve.coalesced");
obs::Counter g_overloaded("serve.overloaded");
obs::Counter g_deadline("serve.deadline_exceeded");
obs::Gauge g_queue_depth("serve.queue_depth");

Clock::time_point effective_deadline(const Query& q,
                                     std::int64_t default_deadline_ms,
                                     Clock::time_point now) {
  const std::int64_t ms =
      q.deadline_ms != 0 ? q.deadline_ms : default_deadline_ms;
  if (ms == 0) return Clock::time_point::max();
  return now + std::chrono::milliseconds(ms);
}

}  // namespace

void Server::Connection::close_fd() {
  std::lock_guard<std::mutex> lock(write_mutex);
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

Server::Server(ServerOptions options) : options_(std::move(options)) {}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) throw std::runtime_error("serve: start() called twice");
  started_ = true;
  if (!options_.store_dir.empty()) {
    store_ = std::make_unique<store::ResultStore>(options_.store_dir,
                                                  options_.fs);
  }
  if (::pipe(wake_pipe_) != 0) {
    throw std::runtime_error("serve: pipe() failed");
  }
  listen_fd_ = listen_unix(options_.socket_path, options_.listen_backlog);
  listener_ = std::thread([this] { listener_loop(); });
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

void Server::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    stop_signalled_ = true;
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stopping_ = true;
    paused_ = false;  // a paused dispatcher must still observe the stop
  }
  queue_cv_.notify_all();
  // Wake the listener's poll(), then join it so no new connections appear.
  const char byte = 'x';
  (void)!::write(wake_pipe_[1], &byte, 1);
  if (listener_.joinable()) listener_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  // Let the in-flight batch finish delivering responses before the
  // connections go away: join the dispatcher first.
  if (dispatcher_.joinable()) dispatcher_.join();
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const ConnPtr& conn : conns_) {
      std::lock_guard<std::mutex> write_lock(conn->write_mutex);
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  for (std::thread& thread : conn_threads_) {
    if (thread.joinable()) thread.join();
  }
  for (const ConnPtr& conn : conns_) conn->close_fd();
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  shutdown_cv_.notify_all();
}

bool Server::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  return shutdown_requested_;
}

bool Server::wait_for_shutdown(std::int64_t poll_ms) {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  const auto ready = [this] { return shutdown_requested_ || stop_signalled_; };
  if (poll_ms <= 0) {
    shutdown_cv_.wait(lock, ready);
  } else {
    shutdown_cv_.wait_for(lock, std::chrono::milliseconds(poll_ms), ready);
  }
  return shutdown_requested_;
}

void Server::pause_dispatch() {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  paused_ = true;
}

void Server::resume_dispatch() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    paused_ = false;
  }
  queue_cv_.notify_all();
}

void Server::listener_loop() {
  while (true) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    connections_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.push_back(conn);
    conn_threads_.emplace_back([this, conn] { connection_loop(conn); });
  }
}

void Server::connection_loop(ConnPtr conn) {
  while (true) {
    std::string payload;
    FrameStatus status;
    try {
      status = read_frame(conn->fd, &payload);
    } catch (const WireError& error) {
      // The stream is damaged (torn/oversized frame): report once, close.
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      send_json(conn, make_error_response(0, {"bad_frame", error.what()}));
      break;
    }
    if (status == FrameStatus::kClosed) break;

    Json request;
    try {
      request = Json::parse(payload);
    } catch (const JsonError& error) {
      // Framing is intact, only this payload is garbage: the connection
      // can keep serving.
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      send_json(conn, make_error_response(0, {"bad_frame", error.what()}));
      continue;
    }

    requests_.fetch_add(1, std::memory_order_relaxed);
    g_requests.add();
    const ParsedRequest parsed = parse_request(request);
    if (parsed.error.has_value()) {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      send_json(conn, make_error_response(parsed.id, *parsed.error));
      continue;
    }
    if (parsed.is_admin) {
      handle_admin(conn, parsed);
      if (parsed.kind == "shutdown") break;
      continue;
    }

    Pending pending;
    pending.conn = conn;
    pending.id = parsed.id;
    pending.query = *parsed.query;
    pending.key_hex = cache_key(pending.query).key().hex();
    pending.enqueued = Clock::now();
    pending.deadline = effective_deadline(
        pending.query, options_.default_deadline_ms, pending.enqueued);
    bool admitted = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      if (queue_.size() < options_.queue_limit) {
        queue_.push_back(std::move(pending));
        g_queue_depth.set(static_cast<double>(queue_.size()));
        admitted = true;
      }
    }
    if (admitted) {
      queue_cv_.notify_one();
    } else {
      overloaded_.fetch_add(1, std::memory_order_relaxed);
      g_overloaded.add();
      send_json(conn,
                make_error_response(
                    parsed.id,
                    {"overloaded", "queue full (" +
                                       std::to_string(options_.queue_limit) +
                                       " requests); retry later"}));
    }
  }
  conn->close_fd();
}

void Server::handle_admin(const ConnPtr& conn, const ParsedRequest& parsed) {
  if (parsed.kind == "ping") {
    send_json(conn, make_ok_response(parsed.id, "ping", Json::object(),
                                     /*cached=*/false, /*coalesced=*/false));
    return;
  }
  if (parsed.kind == "stats") {
    send_json(conn, make_ok_response(parsed.id, "stats", render_stats(),
                                     /*cached=*/false, /*coalesced=*/false));
    return;
  }
  // shutdown: acknowledge, then let the owner (daemon main / test) observe
  // the flag and call stop() — stopping from this thread would self-join.
  send_json(conn, make_ok_response(parsed.id, "shutdown", Json::object(),
                                   /*cached=*/false, /*coalesced=*/false));
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Server::dispatcher_loop() {
  while (true) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (stopping_) return;
      const std::size_t take = std::min(options_.batch_max, queue_.size());
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      g_queue_depth.set(static_cast<double>(queue_.size()));
    }
    process_batch(std::move(batch));
  }
}

void Server::process_batch(std::vector<Pending> batch) {
  obs::SpanTimer batch_span("serve.batch",
                            static_cast<std::int64_t>(batch.size()));

  struct Group {
    Query query;
    std::vector<Pending> waiters;
    Clock::time_point latest_deadline = Clock::time_point::min();
    bool ok = false;
    QueryResult result;
    ErrorInfo error;
  };

  // Reject requests whose deadline already passed while queued, and group
  // the rest by cache key: one computation per distinct query.
  std::vector<Group> groups;
  const Clock::time_point now = Clock::now();
  for (Pending& pending : batch) {
    if (pending.deadline <= now) {
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      g_deadline.add();
      send_json(pending.conn,
                make_error_response(
                    pending.id,
                    {"deadline_exceeded", "deadline expired while queued"}));
      continue;
    }
    Group* group = nullptr;
    for (Group& candidate : groups) {
      if (candidate.waiters.front().key_hex == pending.key_hex) {
        group = &candidate;
        break;
      }
    }
    if (group == nullptr) {
      groups.emplace_back();
      group = &groups.back();
      group->query = pending.query;
    }
    group->latest_deadline = std::max(group->latest_deadline, pending.deadline);
    group->waiters.push_back(std::move(pending));
  }
  if (groups.empty()) return;

  in_flight_.store(groups.size(), std::memory_order_relaxed);
  // A query computes on the thread that runs it, so the DeadlineScope set
  // here governs the whole computation.
  util::parallel_for(groups.size(), [&](std::size_t i) {
    Group& group = groups[i];
    obs::SpanTimer query_span("serve.query");
    try {
      if (group.latest_deadline != Clock::time_point::max()) {
        util::DeadlineScope scope(group.latest_deadline);
        util::poll_deadline();
        group.result = execute_query(group.query, store_.get());
      } else {
        group.result = execute_query(group.query, store_.get());
      }
      group.ok = true;
    } catch (const util::DeadlineExceeded&) {
      group.error = {"deadline_exceeded", "computation exceeded deadline"};
    } catch (const std::exception& error) {
      group.error = {"internal", error.what()};
    }
  });
  in_flight_.store(0, std::memory_order_relaxed);

  const Clock::time_point done = Clock::now();
  for (Group& group : groups) {
    if (group.ok) {
      if (group.result.cache_hit) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
      } else {
        computed_.fetch_add(1, std::memory_order_relaxed);
      }
      if (group.waiters.size() > 1) {
        coalesced_.fetch_add(group.waiters.size() - 1,
                             std::memory_order_relaxed);
        g_coalesced.add(group.waiters.size() - 1);
      }
    } else if (group.error.code == "deadline_exceeded") {
      deadline_expired_.fetch_add(group.waiters.size(),
                                  std::memory_order_relaxed);
      g_deadline.add(group.waiters.size());
    } else {
      internal_errors_.fetch_add(group.waiters.size(),
                                 std::memory_order_relaxed);
    }
    for (std::size_t w = 0; w < group.waiters.size(); ++w) {
      const Pending& waiter = group.waiters[w];
      if (!group.ok) {
        send_json(waiter.conn, make_error_response(waiter.id, group.error));
        continue;
      }
      if (waiter.deadline <= done) {
        // The shared computation outlived this waiter's budget; the result
        // is in the store for a retry, but this response honours the
        // deadline contract strictly.
        deadline_expired_.fetch_add(1, std::memory_order_relaxed);
        g_deadline.add();
        send_json(waiter.conn,
                  make_error_response(waiter.id,
                                      {"deadline_exceeded",
                                       "result ready after deadline"}));
        continue;
      }
      // Latency is recorded before the response goes out so a client that
      // immediately asks for `stats` after its answer sees itself counted.
      note_latency(waiter.query, waiter.enqueued);
      send_json(waiter.conn,
                make_ok_response(waiter.id, kind_name(waiter.query.kind),
                                 group.result.body, group.result.cache_hit,
                                 /*coalesced=*/w > 0));
    }
  }
}

void Server::send_json(const ConnPtr& conn, const Json& response) {
  const std::string payload = response.dump();
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (conn->fd < 0) return;
  try {
    write_frame(conn->fd, payload);
    responses_.fetch_add(1, std::memory_order_relaxed);
  } catch (const WireError&) {
    // Peer hung up mid-response; its reader thread will observe the close.
  }
}

void Server::note_latency(const Query& q, Clock::time_point enqueued) {
  const std::uint64_t us =
      static_cast<std::uint64_t>(std::chrono::duration_cast<
                                     std::chrono::microseconds>(Clock::now() -
                                                                enqueued)
                                     .count());
  std::lock_guard<std::mutex> lock(latency_mutex_);
  KindLatency& latency = per_kind_[kind_name(q.kind)];
  latency.count += 1;
  latency.total_us += us;
  latency.max_us = std::max(latency.max_us, us);
}

ServeStats Server::stats() const {
  ServeStats out;
  out.connections = connections_.load(std::memory_order_relaxed);
  out.requests = requests_.load(std::memory_order_relaxed);
  out.responses = responses_.load(std::memory_order_relaxed);
  out.computed = computed_.load(std::memory_order_relaxed);
  out.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  out.coalesced = coalesced_.load(std::memory_order_relaxed);
  out.overloaded = overloaded_.load(std::memory_order_relaxed);
  out.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  out.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  out.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  out.internal_errors = internal_errors_.load(std::memory_order_relaxed);
  out.in_flight = in_flight_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    out.queue_depth = queue_.size();
  }
  {
    std::lock_guard<std::mutex> lock(latency_mutex_);
    out.per_kind = per_kind_;
  }
  return out;
}

Json Server::render_stats() const {
  const ServeStats snapshot = stats();
  Json body = Json::object();
  body.set("queue_depth",
           Json::integer(static_cast<std::int64_t>(snapshot.queue_depth)));
  body.set("in_flight",
           Json::integer(static_cast<std::int64_t>(snapshot.in_flight)));
  body.set("connections",
           Json::integer(static_cast<std::int64_t>(snapshot.connections)));
  body.set("requests",
           Json::integer(static_cast<std::int64_t>(snapshot.requests)));
  body.set("responses",
           Json::integer(static_cast<std::int64_t>(snapshot.responses)));
  body.set("computed",
           Json::integer(static_cast<std::int64_t>(snapshot.computed)));
  body.set("cache_hits",
           Json::integer(static_cast<std::int64_t>(snapshot.cache_hits)));
  body.set("coalesced",
           Json::integer(static_cast<std::int64_t>(snapshot.coalesced)));
  body.set("overloaded",
           Json::integer(static_cast<std::int64_t>(snapshot.overloaded)));
  body.set("deadline_exceeded", Json::integer(static_cast<std::int64_t>(
                                    snapshot.deadline_expired)));
  body.set("bad_requests",
           Json::integer(static_cast<std::int64_t>(snapshot.bad_requests)));
  body.set("bad_frames",
           Json::integer(static_cast<std::int64_t>(snapshot.bad_frames)));
  body.set("internal_errors", Json::integer(static_cast<std::int64_t>(
                                  snapshot.internal_errors)));
  if (store_ != nullptr) {
    const store::StoreStats store_stats = store_->stats();
    Json store_body = Json::object();
    store_body.set("hits", Json::integer(
                               static_cast<std::int64_t>(store_stats.hits)));
    store_body.set("misses", Json::integer(static_cast<std::int64_t>(
                                 store_stats.misses)));
    store_body.set("writes", Json::integer(static_cast<std::int64_t>(
                                 store_stats.writes)));
    store_body.set("corrupt_entries", Json::integer(static_cast<std::int64_t>(
                                          store_stats.corrupt_entries)));
    const std::uint64_t lookups = store_stats.hits + store_stats.misses;
    store_body.set("hit_rate",
                   Json::number(lookups == 0
                                    ? 0.0
                                    : static_cast<double>(store_stats.hits) /
                                          static_cast<double>(lookups)));
    body.set("store", std::move(store_body));
  }
  Json latency = Json::object();
  for (const auto& [kind, stat] : snapshot.per_kind) {
    Json entry = Json::object();
    entry.set("count", Json::integer(static_cast<std::int64_t>(stat.count)));
    entry.set("mean_us",
              Json::number(stat.count == 0
                               ? 0.0
                               : static_cast<double>(stat.total_us) /
                                     static_cast<double>(stat.count)));
    entry.set("max_us", Json::integer(static_cast<std::int64_t>(stat.max_us)));
    latency.set(kind, std::move(entry));
  }
  body.set("latency_us", std::move(latency));
  return body;
}

}  // namespace psph::serve
