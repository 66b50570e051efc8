#include "server/daemon.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "server/wire.h"

namespace iqro::server {

namespace {

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Pokes the loop's wakeup pipe. A full pipe means a wakeup is already
/// pending, so dropping the byte is fine.
void Wake(int wake_fd) {
  const char b = 'w';
  [[maybe_unused]] ssize_t n = write(wake_fd, &b, 1);
}

/// The response to a request that completed with `error` (a ServiceError
/// answers kError; anything else is a daemon bug and propagates), or
/// `ok()` when it succeeded.
template <typename F>
std::string Answer(uint64_t request_id, const std::exception_ptr& error, F ok) {
  if (!error) return ok();
  try {
    std::rethrow_exception(error);
  } catch (const ServiceError& e) {
    return EncodeError(request_id, e.code, e.what());
  }
}

std::string HttpMetricsResponse(const std::string& body) {
  std::string out = "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

/// Appends event frames to the connection's outbox from shard threads.
/// Owned by the Conn; CloseConn detaches it (SetSink(nullptr), which runs
/// on the shard thread) from every query before the Conn dies, so the
/// sink can never be called after destruction.
class Daemon::ConnSink final : public EventSink {
 public:
  explicit ConnSink(Conn* conn) : conn_(conn) {}
  void OnServerEvent(const ServerEvent& event) override;

 private:
  Conn* conn_;
};

/// One client connection. The loop thread owns the socket side; shard
/// threads append events (through the sink) and the completion of the
/// in-flight request (through Finish). Shared with that completion: the
/// loop may close the connection the moment in_flight clears, while
/// Finish is still on its way out.
struct Daemon::Conn {
  int fd = -1;
  int wake_fd = -1;
  FrameDecoder decoder;
  /// First-byte protocol sniff: 'G' = HTTP scrape, anything else = frames.
  bool sniffed = false;
  bool http = false;
  std::string http_buf;
  /// True once the connection should close as soon as the outbox drains.
  bool close_after_write = false;
  /// The connection is finished (EOF, socket error, decode error, HTTP
  /// done): the loop stops polling it and closes it once no request is in
  /// flight.
  bool closing = false;
  std::unique_ptr<ConnSink> sink;

  /// Guards the fields below, which shard threads write.
  std::mutex mu;
  /// Bytes queued for the socket; the loop drains them to the fd.
  std::string outbox;
  /// A shard-bound request is running: the connection is parked — the
  /// loop neither reads its socket nor decodes its next frame.
  bool in_flight = false;
  /// Queries whose events are currently routed to this connection.
  std::vector<uint64_t> queries;

  void Push(const std::string& frame) {
    {
      std::lock_guard<std::mutex> lk(mu);
      outbox += frame;
    }
    Wake(wake_fd);  // the loop arms POLLOUT
  }

  bool InFlight() {
    std::lock_guard<std::mutex> lk(mu);
    return in_flight;
  }

  void Park() {
    std::lock_guard<std::mutex> lk(mu);
    in_flight = true;
  }

  /// Completes the in-flight request from whichever thread ran it: `edit`
  /// updates the query list, the response joins the outbox behind every
  /// event the request produced, and the loop wakes to unpark the
  /// connection.
  template <typename Edit>
  void Finish(const std::string& response, Edit edit) {
    {
      std::lock_guard<std::mutex> lk(mu);
      edit(queries);
      outbox += response;
      in_flight = false;
    }
    Wake(wake_fd);
  }
  void Finish(const std::string& response) {
    Finish(response, [](std::vector<uint64_t>&) {});
  }
};

void Daemon::ConnSink::OnServerEvent(const ServerEvent& event) {
  std::string frame;
  if (event.kind == ServerEvent::Kind::kPlanChange) {
    PlanChangeEventMsg m;
    m.query_id = event.query_id;
    m.world_key = event.world_key;
    m.flush_epoch = event.flush_epoch;
    m.old_cost = event.old_cost;
    m.new_cost = event.new_cost;
    m.changed_operators = event.changed_operators;
    m.total_operators = event.total_operators;
    m.join_order_prefix = event.join_order_prefix;
    m.join_order_len = event.join_order_len;
    frame = EncodePlanChangeEvent(m);
  } else {
    QuarantineEventMsg m;
    m.query_id = event.query_id;
    m.world_key = event.world_key;
    m.reason = event.reason;
    m.strikes = event.strikes;
    m.parked = event.parked;
    m.message = event.message;
    frame = EncodeQuarantineEvent(m);
  }
  conn_->Push(frame);
}

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  service_ = std::make_unique<ShardedService>(options_.service);
}

Daemon::~Daemon() {
  Stop();
  // Shard threads go first: nothing can poke the wakeup pipe once it closes.
  service_.reset();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_fds_[0] >= 0) close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) close(wake_fds_[1]);
}

void Daemon::Start() {
  if (pipe(wake_fds_) != 0) {
    throw std::runtime_error("reoptd: pipe() failed: " + std::string(strerror(errno)));
  }
  SetNonBlocking(wake_fds_[0]);
  SetNonBlocking(wake_fds_[1]);

  if (!options_.unix_path.empty()) {
    listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("reoptd: socket() failed");
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("reoptd: unix socket path too long: " + options_.unix_path);
    }
    std::strncpy(addr.sun_path, options_.unix_path.c_str(), sizeof(addr.sun_path) - 1);
    unlink(options_.unix_path.c_str());
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("reoptd: bind(" + options_.unix_path +
                               ") failed: " + std::string(strerror(errno)));
    }
  } else {
    listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("reoptd: socket() failed");
    const int one = 1;
    setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.tcp_port);
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("reoptd: bind(127.0.0.1:" + std::to_string(options_.tcp_port) +
                               ") failed: " + std::string(strerror(errno)));
    }
    socklen_t len = sizeof(addr);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_port_ = ntohs(addr.sin_port);
  }
  if (listen(listen_fd_, 128) != 0) {
    throw std::runtime_error("reoptd: listen() failed: " + std::string(strerror(errno)));
  }
  SetNonBlocking(listen_fd_);

  if (options_.load_snapshots && !options_.service.snapshot_dir.empty()) {
    restored_queries_ = service_->LoadSnapshots();
  }

  running_.store(true);
  loop_ = std::thread([this] { EventLoop(); });
}

void Daemon::RequestShutdown() {
  stop_requested_.store(true, std::memory_order_relaxed);
  if (wake_fds_[1] >= 0) Wake(wake_fds_[1]);
}

void Daemon::Stop() {
  if (!loop_.joinable()) return;
  RequestShutdown();
  loop_.join();
}

void Daemon::Wait() {
  if (loop_.joinable()) loop_.join();
}

void Daemon::AcceptPending() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    SetNonBlocking(fd);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->wake_fd = wake_fds_[1];
    conn->sink = std::make_unique<ConnSink>(conn.get());
    conns_.emplace(fd, std::move(conn));
  }
}

void Daemon::HandleRequest(const std::shared_ptr<Conn>& conn, const std::string& payload) {
  Request req = DecodeRequest(payload);  // SerializeError -> caller closes
  const uint64_t id = req.request_id;
  std::string response;
  try {
    switch (req.type) {
      case MsgType::kRegisterQuery: {
        if (stop_requested_.load(std::memory_order_relaxed)) {
          throw ServiceError(WireErrorCode::kShuttingDown, "daemon is draining");
        }
        RegisterQueryReq& r = req.register_query;
        EventSink* sink = r.want_events ? conn->sink.get() : nullptr;
        conn->Park();
        service_->RegisterQueryAsync(
            r.world_key, std::move(r.catalog), std::move(r.query), std::move(r.options_name),
            sink, [conn, id, sink](ShardedService::RegisterResult res, std::exception_ptr error) {
              conn->Finish(Answer(id, error,
                                  [&] {
                                    RegisteredResp resp;
                                    resp.query_id = res.query_id;
                                    resp.shard = res.shard;
                                    resp.best_cost = res.best_cost;
                                    return EncodeRegistered(id, resp);
                                  }),
                           [&](std::vector<uint64_t>& queries) {
                             if (!error && sink != nullptr) queries.push_back(res.query_id);
                           });
            });
        return;
      }
      case MsgType::kReleaseQuery:
      case MsgType::kSubscribeQuery: {
        const bool release = req.type == MsgType::kReleaseQuery;
        const uint64_t query_id =
            release ? req.release_query.query_id : req.subscribe_query.query_id;
        auto done = [conn, id, query_id, release](bool known, std::exception_ptr error) {
          if (!error && !known) {
            error = std::make_exception_ptr(ServiceError(
                WireErrorCode::kUnknownQuery, "unknown query " + std::to_string(query_id)));
          }
          conn->Finish(Answer(id, error, [&] { return EncodeOk(id, 0); }),
                       [&](std::vector<uint64_t>& queries) {
                         if (error) return;
                         if (release) {
                           std::erase(queries, query_id);
                         } else {
                           queries.push_back(query_id);
                         }
                       });
        };
        conn->Park();
        if (release) {
          service_->ReleaseQueryAsync(query_id, std::move(done));
        } else {
          service_->SetSinkAsync(query_id, conn->sink.get(), std::move(done));
        }
        return;
      }
      case MsgType::kRecordStatBatch: {
        const size_t accepted =
            service_->RecordStatBatch(req.record_stat_batch.world_key,
                                      req.record_stat_batch.mutations);
        response = EncodeOk(id, accepted);
        break;
      }
      case MsgType::kFlush: {
        if (req.flush.all) {
          response = EncodeOk(id, service_->FlushAll());
          break;
        }
        conn->Park();
        service_->FlushAsync(req.flush.world_key, [conn, id](size_t changes,
                                                             std::exception_ptr error) {
          conn->Finish(Answer(id, error, [&] { return EncodeOk(id, changes); }));
        });
        return;
      }
      case MsgType::kSnapshot:
        response = EncodeOk(id, service_->SaveSnapshots());
        break;
      case MsgType::kGetMetrics:
        response = EncodeMetricsText(id, service_->MetricsText());
        break;
      case MsgType::kShutdown:
        response = EncodeOk(id, 0);
        stop_requested_.store(true, std::memory_order_relaxed);
        break;
      default:
        throw ServiceError(WireErrorCode::kBadRequest,
                           std::string("unexpected message type ") + MsgTypeName(req.type));
    }
  } catch (const ServiceError& e) {
    response = EncodeError(id, e.code, e.what());
  }
  std::lock_guard<std::mutex> lk(conn->mu);
  conn->outbox += response;
}

bool Daemon::HandleFrames(const std::shared_ptr<Conn>& conn) {
  std::string payload;
  try {
    while (!conn->InFlight() && conn->decoder.Next(&payload)) HandleRequest(conn, payload);
  } catch (const SerializeError&) {
    // Malformed frame: this connection dies; its peers and its queries
    // (sinks detached in CloseConn) are untouched.
    return false;
  }
  return true;
}

bool Daemon::HandleReadable(const std::shared_ptr<Conn>& conn) {
  char buf[16384];
  // A parked connection reads nothing more: its unread requests wait in
  // the socket buffer, which pushes back on the client.
  while (!conn->InFlight()) {
    const ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n == 0) return false;  // EOF
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    if (!conn->sniffed) {
      conn->sniffed = true;
      conn->http = buf[0] == 'G';
    }
    if (conn->http) {
      conn->http_buf.append(buf, static_cast<size_t>(n));
      if (conn->http_buf.find("\r\n\r\n") != std::string::npos || conn->http_buf.size() > 8192) {
        std::lock_guard<std::mutex> lk(conn->mu);
        conn->outbox += HttpMetricsResponse(service_->MetricsText());
        conn->close_after_write = true;
      }
      continue;
    }
    conn->decoder.Feed(buf, static_cast<size_t>(n));
    if (!HandleFrames(conn)) return false;
  }
  return true;
}

bool Daemon::HandleWritable(Conn* conn) {
  std::string pending;
  {
    std::lock_guard<std::mutex> lk(conn->mu);
    pending.swap(conn->outbox);
  }
  size_t off = 0;
  while (off < pending.size()) {
    const ssize_t n = write(conn->fd, pending.data() + off, pending.size() - off);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  if (off < pending.size()) {
    // Put the unwritten tail back in front of anything a shard thread
    // appended meanwhile.
    std::lock_guard<std::mutex> lk(conn->mu);
    conn->outbox.insert(0, pending, off, pending.size() - off);
  } else if (conn->close_after_write) {
    std::lock_guard<std::mutex> lk(conn->mu);
    if (conn->outbox.empty()) return false;
  }
  return true;
}

void Daemon::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  // Only an unparked connection closes, so every query registered with
  // its sink is listed. Detach synchronously BEFORE the Conn (and its
  // sink) is destroyed: after SetSink returns, no shard thread can be
  // inside OnServerEvent.
  std::vector<uint64_t> queries;
  {
    std::lock_guard<std::mutex> lk(it->second->mu);
    queries = it->second->queries;
  }
  for (const uint64_t id : queries) service_->SetSink(id, nullptr);
  close(fd);
  conns_.erase(it);
}

void Daemon::BeginShutdown() {
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  service_->Drain();
  service_->FlushAll();  // final events still reach connected subscribers
  if (!options_.service.snapshot_dir.empty()) service_->SaveSnapshots();
}

void Daemon::EventLoop() {
  bool shutting_down = false;
  std::chrono::steady_clock::time_point drain_deadline;
  std::vector<pollfd> fds;
  std::vector<int> dead;
  for (;;) {
    fds.clear();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    if (listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
    for (auto& [fd, conn] : conns_) {
      if (conn->closing) continue;  // waits for its in-flight request
      short events = 0;
      {
        std::lock_guard<std::mutex> lk(conn->mu);
        if (!conn->in_flight) events |= POLLIN;
        if (!conn->outbox.empty()) events |= POLLOUT;
      }
      fds.push_back({fd, events, 0});
    }
    poll(fds.data(), fds.size(), shutting_down ? 20 : 200);

    if (fds[0].revents & POLLIN) {
      char drainbuf[256];
      while (read(wake_fds_[0], drainbuf, sizeof(drainbuf)) > 0) {
      }
    }

    if (!shutting_down && stop_requested_.load(std::memory_order_relaxed)) {
      shutting_down = true;
      BeginShutdown();
      drain_deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(options_.drain_timeout_ms);
    }

    size_t idx = 1;
    if (listen_fd_ >= 0) {
      if (fds[idx].revents & POLLIN) AcceptPending();
      ++idx;
    }
    for (; idx < fds.size(); ++idx) {
      auto it = conns_.find(fds[idx].fd);
      if (it == conns_.end()) continue;
      const std::shared_ptr<Conn>& conn = it->second;
      const short revents = fds[idx].revents;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) {
        HandleWritable(conn.get());  // best effort, then drop
        conn->closing = true;
      } else if (revents & POLLIN) {
        conn->closing = !HandleReadable(conn);
      }
    }
    // Every connection, polled or not: an unparked one runs the requests
    // its decoder already holds, and every outbox drains as far as the
    // socket takes it — responses made this round do not wait a round.
    dead.clear();
    for (auto& [fd, conn] : conns_) {
      if (!conn->closing) conn->closing = !HandleFrames(conn) || !HandleWritable(conn.get());
      if (conn->closing && !conn->InFlight()) dead.push_back(fd);
    }
    for (const int fd : dead) CloseConn(fd);

    if (shutting_down) {
      bool idle = true;
      for (auto& [fd, conn] : conns_) {
        std::lock_guard<std::mutex> lk(conn->mu);
        if (conn->in_flight || !conn->outbox.empty()) idle = false;
      }
      if (idle || std::chrono::steady_clock::now() >= drain_deadline) break;
    }
  }
  // Let every in-flight request complete before its connection closes.
  service_->Drain();
  while (!conns_.empty()) CloseConn(conns_.begin()->first);
  if (!options_.unix_path.empty()) unlink(options_.unix_path.c_str());
  running_.store(false);
}

}  // namespace iqro::server
