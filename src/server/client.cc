#include "server/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

namespace iqro::server {

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

void Client::ConnectUnix(const std::string& path) {
  Close();
  fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("client: socket() failed");
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("client: unix socket path too long: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    throw std::runtime_error("client: connect(" + path + ") failed: " +
                             std::string(strerror(errno)));
  }
}

void Client::ConnectTcp(const std::string& host, uint16_t port) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("client: socket() failed");
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    throw std::runtime_error("client: bad host " + host);
  }
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    throw std::runtime_error("client: connect(" + host + ":" + std::to_string(port) +
                             ") failed: " + std::string(strerror(errno)));
  }
}

void Client::SendRaw(const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = write(fd_, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("client: write failed: " + std::string(strerror(errno)));
    }
    off += static_cast<size_t>(n);
  }
}

bool Client::ReadChunk(int timeout_ms) {
  if (timeout_ms >= 0) {
    pollfd p{fd_, POLLIN, 0};
    const int r = poll(&p, 1, timeout_ms);
    if (r <= 0) return false;
  }
  char buf[16384];
  const ssize_t n = read(fd_, buf, sizeof(buf));
  if (n == 0) {
    decoder_.Finish();  // partial frame at EOF -> kTruncated
    throw std::runtime_error("client: connection closed by server");
  }
  if (n < 0) {
    if (errno == EINTR) return false;
    throw std::runtime_error("client: read failed: " + std::string(strerror(errno)));
  }
  decoder_.Feed(buf, static_cast<size_t>(n));
  return true;
}

bool Client::DrainDecoded(ServerMessage* resp, uint64_t expect_id) {
  std::string payload;
  bool got = false;
  while (decoder_.Next(&payload)) {
    ServerMessage msg = DecodeServerMessage(payload);
    if (msg.type == MsgType::kPlanChange || msg.type == MsgType::kQuarantine) {
      events_.push_back(ReceivedEvent{std::move(msg), std::chrono::steady_clock::now()});
      continue;
    }
    if (resp == nullptr || got) {
      throw std::runtime_error("client: unexpected response frame " +
                               std::string(MsgTypeName(msg.type)));
    }
    if (msg.request_id != expect_id) {
      throw std::runtime_error("client: response id " + std::to_string(msg.request_id) +
                               " does not match request " + std::to_string(expect_id));
    }
    *resp = std::move(msg);
    got = true;
  }
  return got;
}

ServerMessage Client::Call(const std::string& frame, uint64_t request_id) {
  SendRaw(frame);
  ServerMessage resp;
  while (!DrainDecoded(&resp, request_id)) ReadChunk(-1);
  return resp;
}

ServerMessage Client::ExpectOkLike(const std::string& frame, uint64_t request_id) {
  ServerMessage resp = Call(frame, request_id);
  if (resp.type == MsgType::kError) throw ClientError(resp.error.code, resp.error.message);
  return resp;
}

RegisteredResp Client::RegisterQuery(uint64_t world_key, const CatalogSpec& catalog,
                                     const QuerySpec& query, const std::string& options_name,
                                     bool want_events) {
  RegisterQueryReq req;
  req.world_key = world_key;
  req.want_events = want_events;
  req.catalog = catalog;
  req.query = query;
  req.options_name = options_name;
  const uint64_t id = next_request_id_++;
  ServerMessage resp = ExpectOkLike(EncodeRegisterQuery(id, req), id);
  if (resp.type != MsgType::kRegistered) {
    throw std::runtime_error("client: expected kRegistered, got " +
                             std::string(MsgTypeName(resp.type)));
  }
  return resp.registered;
}

void Client::ReleaseQuery(uint64_t query_id) {
  const uint64_t id = next_request_id_++;
  ExpectOkLike(EncodeReleaseQuery(id, query_id), id);
}

void Client::SubscribeQuery(uint64_t query_id) {
  const uint64_t id = next_request_id_++;
  ExpectOkLike(EncodeSubscribeQuery(id, query_id), id);
}

uint64_t Client::RecordStatBatch(uint64_t world_key,
                                 const std::vector<StatMutation>& mutations) {
  RecordStatBatchReq req;
  req.world_key = world_key;
  req.mutations = mutations;
  const uint64_t id = next_request_id_++;
  return ExpectOkLike(EncodeRecordStatBatch(id, req), id).ok.value;
}

uint64_t Client::Flush(uint64_t world_key) {
  FlushReq req;
  req.all = false;
  req.world_key = world_key;
  const uint64_t id = next_request_id_++;
  return ExpectOkLike(EncodeFlush(id, req), id).ok.value;
}

uint64_t Client::FlushAll() {
  FlushReq req;
  req.all = true;
  const uint64_t id = next_request_id_++;
  return ExpectOkLike(EncodeFlush(id, req), id).ok.value;
}

uint64_t Client::Snapshot() {
  const uint64_t id = next_request_id_++;
  return ExpectOkLike(EncodeSimpleRequest(MsgType::kSnapshot, id), id).ok.value;
}

std::string Client::Metrics() {
  const uint64_t id = next_request_id_++;
  ServerMessage resp = ExpectOkLike(EncodeSimpleRequest(MsgType::kGetMetrics, id), id);
  if (resp.type != MsgType::kMetricsText) {
    throw std::runtime_error("client: expected kMetricsText, got " +
                             std::string(MsgTypeName(resp.type)));
  }
  return resp.metrics.text;
}

void Client::Shutdown() {
  const uint64_t id = next_request_id_++;
  ExpectOkLike(EncodeSimpleRequest(MsgType::kShutdown, id), id);
}

size_t Client::PollEvents(std::chrono::milliseconds timeout) {
  const size_t before = events_.size();
  // Wait up to `timeout` for the first byte, then keep draining whatever
  // arrives back-to-back without further waiting.
  if (ReadChunk(static_cast<int>(timeout.count()))) {
    DrainDecoded(nullptr, 0);
    while (ReadChunk(0)) DrainDecoded(nullptr, 0);
  }
  return events_.size() - before;
}

std::vector<ReceivedEvent> Client::TakeEvents() {
  std::vector<ReceivedEvent> out(std::make_move_iterator(events_.begin()),
                                 std::make_move_iterator(events_.end()));
  events_.clear();
  return out;
}

}  // namespace iqro::server
