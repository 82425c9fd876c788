// reschedd socket front-end (DESIGN.md §10).
//
// Listens on a unix-domain socket (the deployment mode: filesystem
// permissions are the access control) or a loopback TCP port (tests /
// cross-host benches), accepts concurrent clients thread-per-connection,
// and speaks the framed protocol of src/srv/proto.*.
//
// Concurrency model: connections read and frame-parse in parallel, but
// every request is applied under ONE core mutex — the acquisition order is
// the canonical request serialization, and because ServerCore logs at the
// write-ahead point inside that critical section, the WAL order IS the
// canonical order (the concurrent-client stress test replays the WAL
// single-threaded and demands identical outcomes). The fsync, however,
// happens *outside* the lock: a writer leaves the critical section holding
// its LSN and blocks in WalWriter::sync_to, so concurrent commits share
// one disk flush (group commit) while the next request is already being
// scheduled. A pipelined burst drained from one connection is applied
// request by request under a single acquisition and covered by one fsync.
//
// Connection threads are joined by the accept loop once they finish, so
// the daemon holds threads only for its live connections.
//
// Shutdown: the "shutdown" verb answers, then closes the listener and
// nudges every parked connection; serve() joins all connection threads and
// returns, after which the daemon finalizes the core (artifacts) and
// exits. stop() does the same from a signal handler's thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/srv/server_core.hpp"

namespace resched::srv {

struct ServerOptions {
  /// Unix-domain listening socket path (unlinked + rebound on start).
  /// Takes precedence over TCP when non-empty.
  std::string unix_path;
  /// Loopback TCP listener; port 0 picks an ephemeral port (see port()).
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;
};

class Server {
 public:
  /// The core is borrowed and must outlive the server; recover() it first.
  Server(ServerCore& core, ServerOptions options);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server();

  /// Binds and listens; throws resched::Error on any socket failure.
  void start();
  /// Bound TCP port (after start(); meaningful in TCP mode).
  int port() const { return port_; }

  /// Accept loop. Blocks until a client issues "shutdown" (or stop() is
  /// called), then joins every connection thread and returns.
  void serve();

  /// Initiates shutdown from outside the accept loop (signal handlers).
  void stop();

 private:
  void run_connection(int fd);
  void close_listener();
  /// Joins every connection thread that has finished since the last call,
  /// so a long-running daemon holds only its live connections' threads.
  void reap_finished();

  ServerCore& core_;
  ServerOptions options_;
  /// Atomic: stop() closes the listener (under conn_mu_, possibly from a
  /// connection thread) while serve() reads it for accept() without a lock.
  std::atomic<int> listen_fd_{-1};
  int port_ = -1;
  std::mutex core_mu_;   ///< the canonical request serialization point
  std::mutex conn_mu_;   ///< guards threads_ / finished_ / conn_fds_ /
                         ///< stopping_
  std::vector<std::thread> threads_;
  /// Connection threads that returned from run_connection and await a
  /// join by the accept loop.
  std::vector<std::thread::id> finished_;
  std::set<int> conn_fds_;
  bool stopping_ = false;
};

}  // namespace resched::srv
