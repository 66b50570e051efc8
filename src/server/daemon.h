// The reoptd daemon: one poll(2) event loop serving the wire protocol
// (server/wire.h) over a Unix-domain or loopback TCP socket, backed by a
// ShardedService (server/sharded_service.h).
//
// ## Threading shape
//
// The event loop is ONE thread. It accepts connections, reassembles
// frames (FrameDecoder), and dispatches each request; it never waits on a
// shard for a single-world request:
//
// * Shard-bound requests finish on the shard. kRegisterQuery,
//   kReleaseQuery, kSubscribeQuery and a one-world kFlush go through
//   ShardedService's async forms; the shard thread encodes the response,
//   appends it to the connection's outbox and pokes the loop's wakeup
//   pipe. Plan-change/quarantine events reach the outbox the same way
//   (ConnSink), and a flush's subscriber callbacks run before its
//   completion, so every event a flush produces is in the outbox BEFORE
//   that flush's response frame — a client measuring flush-to-event
//   latency sees events first, response second, in one socket read.
// * A connection with a request in flight is parked: the loop neither
//   arms POLLIN for it nor decodes its next buffered frame until the
//   completion clears the flag, so one connection's requests still run
//   strictly in order and its socket buffer pushes back on the client,
//   while every other connection keeps being served. The connection
//   (outbox, in-flight flag, query list) is shared with the completion,
//   and a connection that hangs up mid-request closes only once that
//   request completed, so its sink is detached from every query it got.
// * kRecordStatBatch stays inline: it validates on the loop and only
//   posts the mutations to the shard.
// * Fan-out admin requests still block the loop: kFlush with the all-flag
//   (FlushAll), kSnapshot, kGetMetrics, the HTTP scrape, and CloseConn's
//   synchronous sink detach.
//
// ## Connection semantics
//
// * A frame that fails to decode (SerializeError) closes THAT connection
//   only; its queries survive with their event sinks detached (the
//   documented reconnect path: kSubscribeQuery re-attaches them).
//   Application-level rejections (ServiceError) are answered with kError
//   frames and the connection lives on.
// * A connection whose first byte is 'G' is treated as an HTTP scrape
//   ("GET /metrics"): it gets a one-shot HTTP/1.0 200 text/plain response
//   carrying ShardedService::MetricsText() and is closed — curl and a
//   Prometheus scraper work against the same port as the binary protocol.
// * Graceful shutdown (Stop(), SIGTERM via RequestShutdown(), or a
//   kShutdown frame): stop accepting, drain the shard queues, run one
//   final FlushAll (its events still reach connected subscribers), save
//   per-shard snapshots when a snapshot_dir is configured, flush every
//   outbox best-effort, exit the loop.
#ifndef IQRO_SERVER_DAEMON_H_
#define IQRO_SERVER_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>

#include "server/sharded_service.h"

namespace iqro::server {

struct DaemonOptions {
  /// Unix-domain socket path (unlinked+bound on Start). Empty: TCP mode.
  std::string unix_path;
  /// TCP port on 127.0.0.1 (0 = ephemeral; read the bound port from
  /// port()). Used only when unix_path is empty.
  uint16_t tcp_port = 0;
  ShardedServiceOptions service;
  /// Start() warm-restarts the service from service.snapshot_dir before
  /// accepting connections (missing snapshots = cold start, not an error).
  bool load_snapshots = false;
  /// Milliseconds to spend draining outboxes at shutdown before closing
  /// connections anyway.
  int drain_timeout_ms = 2000;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds, listens, (optionally) loads snapshots, and starts the event
  /// loop thread. Throws std::runtime_error on bind/listen failure.
  void Start();

  /// Requests graceful shutdown and joins the loop thread.
  void Stop();

  /// Async-signal-safe shutdown request (a signal handler may call it: it
  /// only write(2)s the wakeup pipe).
  void RequestShutdown();

  /// Blocks until the event loop exits (shutdown request or fatal error).
  void Wait();

  /// The bound TCP port (TCP mode, after Start()).
  uint16_t port() const { return bound_port_; }

  /// Queries restored by the Start()-time snapshot load.
  size_t restored_queries() const { return restored_queries_; }

  /// The backing service — in-process callers (tests, benches) may drive
  /// it directly alongside socket clients.
  ShardedService& service() { return *service_; }

 private:
  struct Conn;
  class ConnSink;

  void EventLoop();
  void AcceptPending();
  /// Reads and processes what a connection has available until a request
  /// parks it; returns false when the connection must close (EOF, read or
  /// decode error).
  bool HandleReadable(const std::shared_ptr<Conn>& conn);
  /// Runs the connection's decoded requests in order until one parks it;
  /// false on a decode error.
  bool HandleFrames(const std::shared_ptr<Conn>& conn);
  void HandleRequest(const std::shared_ptr<Conn>& conn, const std::string& payload);
  /// Writes as much buffered outbox as the socket accepts; false = dead.
  bool HandleWritable(Conn* conn);
  void CloseConn(int fd);
  void BeginShutdown();

  DaemonOptions options_;
  std::unique_ptr<ShardedService> service_;
  std::thread loop_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [0] read, [1] write
  uint16_t bound_port_ = 0;
  size_t restored_queries_ = 0;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
};

}  // namespace iqro::server

#endif  // IQRO_SERVER_DAEMON_H_
