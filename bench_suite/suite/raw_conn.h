// A bare wire-protocol connection for pipelined traffic: one thread may
// send while another reads (the blocking Client allows one request in
// flight). Frames are built with the public encoders of server/wire.h.
#ifndef BENCH_SUITE_SUITE_RAW_CONN_H_
#define BENCH_SUITE_SUITE_RAW_CONN_H_

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

#include "server/wire.h"

namespace bench_suite {

class RawConn {
 public:
  RawConn() = default;
  ~RawConn() {
    if (fd_ >= 0) close(fd_);
  }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  void ConnectUnix(const std::string& path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) throw std::runtime_error("socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("connect(" + path + ") failed: " + std::strerror(errno));
    }
  }

  /// Writes the whole frame (blocking).
  void Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = write(fd_, bytes.data() + off, bytes.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("write failed: ") + std::strerror(errno));
      }
      off += static_cast<size_t>(n);
    }
  }

  /// Waits up to `timeout_ms` for bytes and feeds what arrived to the frame
  /// decoder. Returns the bytes read, 0 on timeout; throws on EOF or a
  /// socket error.
  int64_t Read(int timeout_ms) {
    pollfd p{fd_, POLLIN, 0};
    const int ready = poll(&p, 1, timeout_ms);
    if (ready == 0 || (ready < 0 && errno == EINTR)) return 0;
    if (ready < 0) throw std::runtime_error(std::string("poll failed: ") + std::strerror(errno));
    char buf[65536];
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n == 0) throw std::runtime_error("connection closed by the daemon");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) return 0;
      throw std::runtime_error(std::string("read failed: ") + std::strerror(errno));
    }
    decoder_.Feed(buf, static_cast<size_t>(n));
    return n;
  }

  /// The next complete payload, if one is buffered.
  bool Next(std::string* payload) { return decoder_.Next(payload); }

  /// Sends a request and reads until its response; only for use while no
  /// other thread reads. Throws on kError or after 30 s.
  iqro::server::ServerMessage Call(const std::string& frame, uint64_t request_id) {
    Send(frame);
    std::string payload;
    for (int waited_ms = 0; waited_ms < 30000;) {
      while (Next(&payload)) {
        iqro::server::ServerMessage msg = iqro::server::DecodeServerMessage(payload);
        if (msg.request_id != request_id) continue;
        if (msg.type == iqro::server::MsgType::kError) {
          throw std::runtime_error("request failed: " + msg.error.message);
        }
        return msg;
      }
      if (Read(100) == 0) waited_ms += 100;
    }
    throw std::runtime_error("no response within 30 s");
  }

 private:
  int fd_ = -1;
  iqro::server::FrameDecoder decoder_;
};

}  // namespace bench_suite

#endif  // BENCH_SUITE_SUITE_RAW_CONN_H_
