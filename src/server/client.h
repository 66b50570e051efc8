// Blocking client for the reoptd wire protocol (server/wire.h): one
// socket, synchronous request/response calls, with unsolicited event
// frames (plan changes, quarantines) captured into a local queue as they
// interleave with responses on the wire.
//
// Single-threaded by design: the loopback load bench runs many Client
// instances on many threads, one per thread. Every call throws
// SerializeError on a protocol violation, ClientError on a kError
// response, std::runtime_error on socket failure.
#ifndef IQRO_SERVER_CLIENT_H_
#define IQRO_SERVER_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "server/wire.h"

namespace iqro::server {

/// A kError response surfaced as an exception (the wire code preserved).
class ClientError : public std::runtime_error {
 public:
  ClientError(WireErrorCode code_in, const std::string& what)
      : std::runtime_error(what), code(code_in) {}
  WireErrorCode code;
};

/// One event frame as received, stamped with its local arrival time (the
/// flush-to-event latency measurement's receive side).
struct ReceivedEvent {
  ServerMessage msg;
  std::chrono::steady_clock::time_point received_at;
};

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void ConnectUnix(const std::string& path);
  void ConnectTcp(const std::string& host, uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // ---- requests (each blocks for its response; events seen on the way
  // are queued into events()) ----

  RegisteredResp RegisterQuery(uint64_t world_key, const CatalogSpec& catalog,
                               const QuerySpec& query, const std::string& options_name,
                               bool want_events = true);
  void ReleaseQuery(uint64_t query_id);
  void SubscribeQuery(uint64_t query_id);
  /// Returns the number of mutations the server accepted.
  uint64_t RecordStatBatch(uint64_t world_key,
                           const std::vector<StatMutation>& mutations);
  /// Returns the dispatched change count.
  uint64_t Flush(uint64_t world_key);
  uint64_t FlushAll();
  /// Returns the number of queries persisted.
  uint64_t Snapshot();
  std::string Metrics();
  void Shutdown();

  // ---- events ----

  /// Reads whatever the socket has (waiting up to `timeout` for the first
  /// byte) and returns the number of NEW events queued.
  size_t PollEvents(std::chrono::milliseconds timeout);

  /// Received-and-not-yet-taken events, in wire order.
  std::deque<ReceivedEvent>& events() { return events_; }
  std::vector<ReceivedEvent> TakeEvents();

 private:
  /// Sends one frame and reads until its response arrives (events queue).
  ServerMessage Call(const std::string& frame, uint64_t request_id);
  ServerMessage ExpectOkLike(const std::string& frame, uint64_t request_id);
  void SendRaw(const std::string& bytes);
  /// Reads one chunk (blocking up to `timeout_ms`; -1 = forever), feeds
  /// the decoder, dispatches events. False on timeout. Throws on EOF.
  bool ReadChunk(int timeout_ms);
  /// Drains decoded frames: events to events_, a response into *resp
  /// (when non-null). True when a response was captured.
  bool DrainDecoded(ServerMessage* resp, uint64_t expect_id);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  FrameDecoder decoder_;
  std::deque<ReceivedEvent> events_;
};

}  // namespace iqro::server

#endif  // IQRO_SERVER_CLIENT_H_
