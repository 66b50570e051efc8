// The reoptd wire protocol: length-prefixed, checksummed binary frames
// carrying the re-optimization service vocabulary — QuerySpec and
// workload/world.h's CatalogSpec and StatMutation — between clients and
// the daemon (server/daemon.h), or between a test and an in-process
// ShardedService via the same codecs.
//
// ## Frame format (docs/WIRE.md)
//
//   offset  size  field
//   0       4     magic "IQR1" (the '1' is the protocol version digit)
//   4       4     payload length, u32 LE (kMaxFramePayload cap)
//   8       8     FNV-1a64 checksum of the payload, u64 LE
//   16      len   payload
//
// The payload's first byte is the MsgType, followed by a u64 request id
// (responses echo their request's id; unsolicited event frames carry 0).
// All integers are little-endian via common/serialize.h.
//
// ## Decode contract
//
// Every structural violation raises the matching typed SerializeError:
// wrong magic -> kBadMagic; right magic, wrong version digit ->
// kBadVersion; oversized or inconsistent lengths/counts/enums ->
// kBadSection; payload shorter than its contents (including a partial
// frame at connection EOF) -> kTruncated; checksum mismatch -> kChecksum.
// Nothing is ever half-applied: DecodeRequest/DecodeServerMessage either
// return a fully validated message or throw. The corrupt-frame corpus
// (tests/data/wire, tools/make_wire_corpus.py) pins each error to its
// exact code.
#ifndef IQRO_SERVER_WIRE_H_
#define IQRO_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "query/query_spec.h"
#include "workload/world.h"

namespace iqro::server {

inline constexpr char kWireMagic[4] = {'I', 'Q', 'R', '1'};
inline constexpr size_t kFrameHeaderSize = 16;
/// Frames larger than this are rejected (kBadSection) before any
/// allocation — a hostile length prefix must not OOM the daemon.
inline constexpr size_t kMaxFramePayload = 8u << 20;

enum class MsgType : uint8_t {
  // ---- requests (client -> server) ----
  kRegisterQuery = 1,
  kReleaseQuery = 2,
  kRecordStatBatch = 3,
  kFlush = 4,
  kSnapshot = 5,
  kGetMetrics = 6,
  kShutdown = 7,
  /// Re-attach event delivery for an existing query to THIS connection
  /// (the warm-restart/reconnect path: queries survive their registering
  /// connection, but events need a live socket to go to).
  kSubscribeQuery = 8,
  // ---- responses (server -> client; echo the request id) ----
  kRegistered = 64,
  kOk = 65,
  kError = 66,
  kMetricsText = 67,
  // ---- events (server -> client, unsolicited) ----
  kPlanChange = 128,
  kQuarantine = 129,
};

const char* MsgTypeName(MsgType t);

/// Application-level rejections (kError responses). Distinct from decode
/// errors: a frame that decodes but asks for something impossible gets an
/// error RESPONSE; a frame that does not decode closes the connection.
enum class WireErrorCode : uint8_t {
  kBadRequest = 1,     // structurally valid, semantically not (e.g. empty spec)
  kUnknownWorld = 2,   // world key never registered
  kUnknownQuery = 3,   // query id never registered or already released
  kSpecMismatch = 4,   // world key reused with different catalog/query specs
  kUnknownOptions = 5, // options_name not in the NamedOptionSets vocabulary
  kOverloaded = 6,     // session shed the registration (SessionOverloaded)
  kShuttingDown = 7,   // daemon is draining; no new work
};

const char* WireErrorCodeName(WireErrorCode c);

// ---- request bodies ------------------------------------------------------

struct RegisterQueryReq {
  /// Client-chosen world id. The first registration under a key creates
  /// the world (catalog + query + statistics + one ReoptSession) on its
  /// shard; later registrations under the same key must carry identical
  /// specs (fingerprint-checked) and add another optimizer configuration
  /// over the same shared registry.
  uint64_t world_key = 0;
  /// Attach plan-change/quarantine event delivery to the registering
  /// connection (daemon) or sink (in-process).
  bool want_events = true;
  CatalogSpec catalog;
  QuerySpec query;
  /// Named optimizer configuration (NamedOptionSets vocabulary:
  /// "all", "aggsel", "aggsel+refcount", "aggsel+bounding", "evita",
  /// "nopruning", "all-fifo").
  std::string options_name;
};

struct ReleaseQueryReq {
  uint64_t query_id = 0;
};

struct SubscribeQueryReq {
  uint64_t query_id = 0;
};

struct RecordStatBatchReq {
  uint64_t world_key = 0;
  std::vector<StatMutation> mutations;
};

struct FlushReq {
  bool all = false;          // true: every world on every shard
  uint64_t world_key = 0;    // used when !all
};

/// One decoded request (tagged by `type`; only the matching body field is
/// meaningful). kSnapshot/kGetMetrics/kShutdown have empty bodies.
struct Request {
  MsgType type = MsgType::kFlush;
  uint64_t request_id = 0;
  RegisterQueryReq register_query;
  ReleaseQueryReq release_query;
  SubscribeQueryReq subscribe_query;
  RecordStatBatchReq record_stat_batch;
  FlushReq flush;
};

// ---- response/event bodies ----------------------------------------------

struct RegisteredResp {
  uint64_t query_id = 0;
  uint32_t shard = 0;
  double best_cost = 0;
};

struct OkResp {
  /// Request-dependent payload: accepted mutations (kRecordStatBatch),
  /// dispatched changes (kFlush), snapshotted queries (kSnapshot), 0
  /// otherwise.
  uint64_t value = 0;
};

struct ErrorResp {
  WireErrorCode code = WireErrorCode::kBadRequest;
  std::string message;
};

struct MetricsTextResp {
  std::string text;  // Prometheus text exposition (PrometheusSessionText)
};

struct PlanChangeEventMsg {
  uint64_t query_id = 0;
  uint64_t world_key = 0;
  uint64_t flush_epoch = 0;
  double old_cost = 0;
  double new_cost = 0;
  int32_t changed_operators = 0;
  int32_t total_operators = 0;
  int32_t join_order_prefix = 0;
  int32_t join_order_len = 0;
};

struct QuarantineEventMsg {
  uint64_t query_id = 0;
  uint64_t world_key = 0;
  uint8_t reason = 0;
  int32_t strikes = 0;
  bool parked = false;
  std::string message;
};

/// One decoded server->client message (response or event), tagged by
/// `type`. request_id is 0 for event frames.
struct ServerMessage {
  MsgType type = MsgType::kOk;
  uint64_t request_id = 0;
  RegisteredResp registered;
  OkResp ok;
  ErrorResp error;
  MetricsTextResp metrics;
  PlanChangeEventMsg plan_change;
  QuarantineEventMsg quarantine;
};

// ---- framing -------------------------------------------------------------

/// Wraps a payload in the 16-byte header (magic, length, checksum).
std::string EncodeFrame(const std::string& payload);

/// Incremental per-connection frame reassembly. Feed() appends raw socket
/// bytes; Next() yields one validated payload at a time (false: need more
/// bytes); Finish() is the EOF check — a partially buffered frame at
/// connection close is kTruncated. All corruption throws SerializeError
/// per the decode contract above; after a throw the decoder is poisoned
/// (the connection is closed, not resynchronized).
class FrameDecoder {
 public:
  void Feed(const void* data, size_t len);
  bool Next(std::string* payload);
  void Finish() const;
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
};

/// Decodes a complete byte image into its frame payloads (Feed + Next
/// loop + Finish) — the corpus-test and tooling entry point.
std::vector<std::string> DecodeFrames(const std::string& image);

// ---- message codecs ------------------------------------------------------

std::string EncodeRegisterQuery(uint64_t request_id, const RegisterQueryReq& req);
std::string EncodeReleaseQuery(uint64_t request_id, uint64_t query_id);
std::string EncodeSubscribeQuery(uint64_t request_id, uint64_t query_id);
std::string EncodeRecordStatBatch(uint64_t request_id, const RecordStatBatchReq& req);
std::string EncodeFlush(uint64_t request_id, const FlushReq& req);
/// kSnapshot / kGetMetrics / kShutdown (empty bodies).
std::string EncodeSimpleRequest(MsgType type, uint64_t request_id);

std::string EncodeRegistered(uint64_t request_id, const RegisteredResp& resp);
std::string EncodeOk(uint64_t request_id, uint64_t value);
std::string EncodeError(uint64_t request_id, WireErrorCode code, const std::string& message);
std::string EncodeMetricsText(uint64_t request_id, const std::string& text);
std::string EncodePlanChangeEvent(const PlanChangeEventMsg& e);
std::string EncodeQuarantineEvent(const QuarantineEventMsg& e);

/// Server side: payload -> validated Request (throws SerializeError).
Request DecodeRequest(const std::string& payload);
/// Client side: payload -> validated response/event (throws SerializeError).
ServerMessage DecodeServerMessage(const std::string& payload);

// ---- spec codecs (shared with snapshot manifests and fingerprints) -------

void EncodeQuerySpec(ByteWriter* w, const QuerySpec& q);
QuerySpec DecodeQuerySpec(ByteReader* r);
void EncodeCatalogSpec(ByteWriter* w, const CatalogSpec& c);
CatalogSpec DecodeCatalogSpec(ByteReader* r);
void EncodeStatMutation(ByteWriter* w, const StatMutation& m);
StatMutation DecodeStatMutation(ByteReader* r);

/// FNV-1a64 over the encoded (catalog, query) pair — the world-spec
/// fingerprint RegisterQuery consistency checks use.
uint64_t WorldFingerprint(const CatalogSpec& catalog, const QuerySpec& query);

}  // namespace iqro::server

#endif  // IQRO_SERVER_WIRE_H_
