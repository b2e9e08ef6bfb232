// psph_serve — long-running query daemon over the protocol-complex engine.
//
//   psph_serve --socket=/tmp/psph.sock --store-dir=/var/cache/psph &
//   # then any client speaks the length-prefixed JSON protocol; see
//   # README "Serving" for a walkthrough and DESIGN §5.14 for the grammar.
//
// Runs until SIGINT/SIGTERM or a client `shutdown` request. With
// --fault-seed != 0 the store runs over a fault-injecting filesystem
// (check/fault_fs.h) — the soak configuration: faults must degrade to
// cache misses and recomputation, never wrong bytes.

#include <csignal>
#include <cstdio>
#include <memory>

#include "check/fault_fs.h"
#include "serve/server.h"
#include "util/cli.h"
#include "util/parallel.h"

namespace {

volatile std::sig_atomic_t g_signalled = 0;

void handle_signal(int) { g_signalled = 1; }

}  // namespace

int main(int argc, char** argv) {
  psph::serve::ServerOptions options;
  options.socket_path = "/tmp/psph_serve.sock";
  int threads = 0;
  std::int64_t queue_limit = 1024;
  std::int64_t batch_max = 64;
  std::int64_t fault_seed = 0;

  psph::util::Cli cli("psph_serve",
                      "serve protocol-complex queries over a local socket");
  cli.flag("socket", &options.socket_path, "AF_UNIX socket path to listen on");
  cli.flag("store-dir", &options.store_dir,
           "result-store root (empty: serve without a cache)");
  cli.flag("threads", &threads, "worker threads (0 = hardware concurrency)");
  cli.flag("queue-limit", &queue_limit,
           "queued compute requests before overload rejections");
  cli.flag("batch-max", &batch_max, "max requests per dispatcher batch");
  cli.flag("default-deadline-ms", &options.default_deadline_ms,
           "deadline for requests that carry none (0 = unlimited)");
  cli.flag("fault-seed", &fault_seed,
           "nonzero: run the store over a fault-injecting filesystem "
           "seeded here (soak mode)");
  cli.parse(argc, argv);

  if (threads > 0) psph::util::set_thread_count(threads);
  options.queue_limit = static_cast<std::size_t>(queue_limit);
  options.batch_max = static_cast<std::size_t>(batch_max);
  if (fault_seed != 0) {
    options.fs = std::make_shared<psph::check::FaultyFsOps>(
        psph::check::plan_from_seed(static_cast<std::uint64_t>(fault_seed),
                                     100'000));
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  psph::serve::Server server(options);
  try {
    server.start();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "psph_serve: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr, "psph_serve: listening on %s (store: %s%s)\n",
               options.socket_path.c_str(),
               options.store_dir.empty() ? "none" : options.store_dir.c_str(),
               fault_seed != 0 ? ", fault injection ON" : "");

  while (g_signalled == 0) {
    if (server.wait_for_shutdown(/*poll_ms=*/200)) break;
  }
  std::fprintf(stderr, "psph_serve: shutting down\n");
  server.stop();
  return 0;
}
