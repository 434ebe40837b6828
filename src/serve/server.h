// The `kcc serve` daemon core: a unix-domain-socket server answering
// snapshot queries concurrently. One accept thread plus one thread per
// connection — AS-graph query payloads are microseconds of work, so the
// thread-per-connection model is simpler than an event loop and scales to
// the hundreds of clients a single snapshot replica is expected to carry
// (beyond that, run more replicas: the snapshot is immutable and mmapped,
// so replicas share page cache).
//
// Lifecycle: construct (binds + listens), start() (spawns the accept loop),
// then either wait() until a shutdown arrives or call shutdown() from a
// signal handler / another thread. While serving, the accept loop joins the
// threads of closed connections, so a long-running daemon holds one thread
// (and stack) per open connection, not per connection ever accepted.
// Shutdown closes the listening socket, shuts down every live connection
// fd, and joins the remaining threads; in-flight requests finish,
// queued-but-unread frames are dropped with the socket.
//
// Hot swap: the snapshot is held through a shared_ptr that every request
// copies at its start, so try_reload() — triggered by SIGHUP (via
// request_reload() from the signal handler, the waiter does the work) or
// the remote kReload op — atomically publishes a freshly mapped view while
// in-flight queries keep answering from the mapping they started on. The
// old mapping is unmapped when its last borrower finishes; a failed reload
// (missing/corrupt file) leaves the current view serving.
//
// Metrics (serve_* catalog in docs/SERVING.md): connections, active
// connections, requests by outcome, bytes in/out, per-request latency
// histogram, reloads and reload failures. Each request runs under a
// "serve.request" span.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/snapshot.h"

namespace kcc::serve {

struct ServerOptions {
  /// Filesystem path of the unix-domain socket. Bound at construction; an
  /// existing socket file at the path is unlinked first (stale socket from
  /// a killed daemon), any other file type is an error.
  std::string socket_path;
  /// Honor the remote kShutdown op (CLI: --no-remote-shutdown clears it).
  bool allow_remote_shutdown = true;
  /// Honor the remote kReload op (CLI: --no-remote-reload clears it).
  /// SIGHUP-driven reloads are always honored.
  bool allow_remote_reload = true;
};

class Server {
 public:
  /// Opens the snapshot and binds the socket. Throws kcc::Error on either.
  Server(const std::string& snapshot_path, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Borrowed reference to the current snapshot — valid only until the
  /// next reload swaps it out. Fine for startup-time introspection (the
  /// CLI banner, benchmark setup); request paths use view_ptr() so the
  /// mapping they read stays pinned.
  const snapshot::SnapshotView& view() const { return *view_ptr(); }

  /// The current snapshot, pinned: the mapping stays valid for as long as
  /// the returned pointer lives, across any number of reloads.
  std::shared_ptr<const snapshot::SnapshotView> view_ptr() const {
    std::lock_guard<std::mutex> lock(view_mutex_);
    return view_;
  }

  const std::string& socket_path() const { return options_.socket_path; }

  /// Spawns the accept loop. Call once.
  void start();

  /// Blocks until shutdown is needed and performs it. Returns once the
  /// server is fully stopped. A remote kShutdown op only *requests*
  /// shutdown (a connection thread cannot join itself); the waiter here is
  /// who actually tears the server down. Signal handlers can likewise call
  /// request_shutdown() (async-signal-safe: one atomic store; the waiter
  /// polls) and let wait() do the work.
  void wait();

  /// Flags the server for shutdown without doing any teardown work.
  /// Async-signal-safe.
  void request_shutdown() {
    shutdown_requested_.store(true, std::memory_order_release);
  }

  /// Flags the server to remap its snapshot; wait() performs the swap on
  /// its next poll tick (<= ~50 ms). Async-signal-safe — the SIGHUP
  /// handler in tools/kcc.cpp calls exactly this.
  void request_reload() {
    reload_requested_.store(true, std::memory_order_release);
  }

  /// Remaps the snapshot path and atomically publishes the new view.
  /// Returns an empty string on success, the load error otherwise (the
  /// previous view keeps serving). Safe from any non-signal thread.
  std::string try_reload();

  /// Idempotent, safe from any thread and from signal context is NOT
  /// guaranteed — signal handlers should set a flag and call this from the
  /// main thread (tools/kcc.cpp does; see cmd_serve).
  void shutdown();

  /// True once shutdown() has been called.
  bool stopping() const { return stopping_.load(std::memory_order_acquire); }

 private:
  void accept_loop();
  void connection_loop(int fd, std::uint64_t id);

  mutable std::mutex view_mutex_;  // guards the view_ pointer, not the view
  std::shared_ptr<const snapshot::SnapshotView> view_;
  std::string snapshot_path_;
  ServerOptions options_;
  int listen_fd_ = -1;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> reload_requested_{false};
  std::thread accept_thread_;

  /// Joins the threads whose connection_loop has returned.
  void join_finished();

  std::mutex mutex_;  // guards connections_, threads_ and finished_
  std::condition_variable shutdown_cv_;
  std::map<std::uint64_t, int> connections_;  // id -> live fd
  std::map<std::uint64_t, std::thread> threads_;  // id -> unjoined thread
  /// Ids whose connection_loop has returned; the accept loop joins them.
  std::vector<std::uint64_t> finished_;
  std::uint64_t next_connection_id_ = 0;
  bool started_ = false;
};

}  // namespace kcc::serve
