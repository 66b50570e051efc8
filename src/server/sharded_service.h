// ShardedService: the daemon's shard layer — N worker threads, each owning
// a disjoint set of "worlds" (one StatsRegistry partition + one
// ReoptSession per world), routed by a deterministic scope-mask hash.
//
// ## The world model
//
// A *world* is one (CatalogSpec, QuerySpec) pair: one statistics namespace
// (StatsRegistry slots are the query's relation slots — see
// query/bind_stats.h), one join graph/plan space, one ReoptSession. A
// *query* within a world is one DeclarativeOptimizer configuration (a
// named OptimizerOptions set from the testing::ScenarioOptionSets
// vocabulary) registered in that world's session — the scope-overlap storm
// idiom (src/testing/scenario_class.cc): many optimizer configs sharing
// one registry, each with its own SummaryCalculator/CostModel so the
// session's SharedSummaryCache stays the only cross-query sharing edge.
//
// Worlds are assigned to shards by ShardOfWorld(world_key, scope_mask):
// FNV-1a64 over the key and the query's relation mask, mod num_shards —
// deterministic across runs, restarts, and shard counts' routing inputs,
// so a 1-shard and a 4-shard service route the same stream to the same
// per-world command order. Everything that touches a world (Register,
// mutations, Flush, snapshot) executes on its shard's thread through a
// FIFO command queue; per-world operation order therefore equals arrival
// order, which is what makes the sharded service byte-equivalent to a
// single in-process ReoptSession oracle per world (the shard-routing
// differential test's contract). Worlds are independent by construction —
// cross-world ordering is unconstrained and unobservable.
//
// ## Usable without sockets
//
// This layer has no I/O: the daemon (server/daemon.h) drives it from
// decoded wire frames, tests and benches drive it directly. Plan-change /
// quarantine notifications are delivered through a per-query EventSink on
// the shard thread (the daemon's sink encodes an event frame into the
// connection outbox; tests record them).
#ifndef IQRO_SERVER_SHARDED_SERVICE_H_
#define IQRO_SERVER_SHARDED_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/relset.h"
#include "query/query_spec.h"
#include "server/wire.h"
#include "testing/scenario.h"

namespace iqro::server {

/// Application-level rejection, carrying the wire error code the daemon
/// answers with (in-process callers catch it directly).
class ServiceError : public std::runtime_error {
 public:
  ServiceError(WireErrorCode code_in, const std::string& what)
      : std::runtime_error(what), code(code_in) {}
  WireErrorCode code;
};

/// One notification out of a world's session, flattened for delivery
/// (plan-change or quarantine; see server/wire.h for the frame shape).
struct ServerEvent {
  enum class Kind : uint8_t { kPlanChange, kQuarantine };
  Kind kind = Kind::kPlanChange;
  uint64_t query_id = 0;
  uint64_t world_key = 0;
  // kPlanChange
  uint64_t flush_epoch = 0;
  double old_cost = 0;
  double new_cost = 0;
  int changed_operators = 0;
  int total_operators = 0;
  int join_order_prefix = 0;
  int join_order_len = 0;
  // kQuarantine
  uint8_t reason = 0;
  int strikes = 0;
  bool parked = false;
  std::string message;
};

/// Where a query's events go. Called on the owning SHARD thread, during a
/// flush — implementations must be quick, must not call back into the
/// service, and must synchronize their own state (the daemon's sink locks
/// a connection outbox; test sinks lock a vector).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void OnServerEvent(const ServerEvent& event) = 0;
};

struct ShardedServiceOptions {
  int num_shards = 1;
  /// > 0: every world's session auto-flushes after this many mutations
  /// (CountPolicy). 0: manual Flush()/FlushAll() only.
  int auto_flush_count = 0;
  /// > 0: every world's session bounds mutation staleness by wall clock
  /// (DeadlinePolicy); shard threads then poll their sessions after
  /// `poll_granularity` idle, and at least that often while commands keep
  /// arriving. Ignored when auto_flush_count > 0.
  std::chrono::milliseconds flush_deadline{0};
  std::chrono::milliseconds poll_granularity{2};
  /// Per-session failure-domain / lifecycle knobs (see ReoptSessionOptions).
  int64_t per_query_work_budget = 0;
  size_t memo_byte_budget = 0;
  /// Directory for SaveSnapshots()/LoadSnapshots() (per-shard manifests +
  /// per-world session snapshots). Empty: snapshots disabled.
  std::string snapshot_dir;
};

/// Aggregate counters across every shard's sessions (quiesced reads: the
/// collecting command runs on each shard thread, so no flush is in flight
/// on that shard while its sessions are read).
struct ShardedServiceStats {
  int64_t worlds = 0;
  int64_t queries = 0;
  int64_t flushes = 0;
  int64_t changes_flushed = 0;
  int64_t plan_changes = 0;
  int64_t mutations_observed = 0;
  int64_t quarantines = 0;
  int64_t mutations_rejected = 0;  // invalid mutations dropped at the door
};

class ShardedService {
 public:
  struct RegisterResult {
    uint64_t query_id = 0;
    uint32_t shard = 0;
    double best_cost = 0;
  };

  explicit ShardedService(ShardedServiceOptions options = {});
  ~ShardedService();

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  /// The deterministic routing hash: FNV-1a64(world_key || scope_mask) mod
  /// num_shards. The key salts the hash so services whose worlds share a
  /// relation-mask alphabet (every 4-relation query masks 0b1111) still
  /// spread.
  static uint32_t ShardOfWorld(uint64_t world_key, RelSet scope_mask, int num_shards);

  /// Completion of a single-world request's async form: called exactly
  /// once, with the result or with the exception the request threw
  /// (ServiceError for a rejection, `result` then value-initialized). It
  /// runs on the world's shard thread right after the request executed
  /// there — after every EventSink call the request caused — or on the
  /// caller's thread when the request is rejected before it is queued
  /// (unknown id or world, bad specs). Same rules as EventSink: quick, and
  /// never waiting on the service. Each synchronous method below is its
  /// async form plus a wait.
  template <typename R>
  using Done = std::function<void(R result, std::exception_ptr error)>;

  /// Registers one optimizer configuration. The first registration under
  /// `world_key` builds the world on its shard (catalog, statistics, join
  /// graph, session); later ones must present byte-identical specs
  /// (WorldFingerprint-checked -> ServiceError{kSpecMismatch}) and join
  /// the existing session. `options_name` must name a
  /// testing::ScenarioOptionSets entry (-> kUnknownOptions). `sink` (may
  /// be null) receives the query's events on the shard thread until
  /// SetSink replaces it. Thread-safe.
  RegisterResult RegisterQuery(uint64_t world_key, const testing::CatalogSpec& catalog,
                               const QuerySpec& query, const std::string& options_name,
                               EventSink* sink);
  void RegisterQueryAsync(uint64_t world_key, testing::CatalogSpec catalog, QuerySpec query,
                          std::string options_name, EventSink* sink,
                          Done<RegisterResult> done);

  /// Unregisters a query (its session handle is released on the shard
  /// thread). Returns false for an unknown id. The world stays resident —
  /// worlds die with the service, not with their last query.
  bool ReleaseQuery(uint64_t query_id);
  void ReleaseQueryAsync(uint64_t query_id, Done<bool> done);

  /// Replaces a query's event sink (null detaches) — the daemon's
  /// reconnect / connection-teardown path. Synchronous: after it returns,
  /// the old sink is guaranteed to receive no further calls (async form:
  /// once `done` runs). Returns false for an unknown id.
  bool SetSink(uint64_t query_id, EventSink* sink);
  void SetSinkAsync(uint64_t query_id, EventSink* sink, Done<bool> done);

  /// Validates and applies a mutation batch to a world's registry, in
  /// arrival order on its shard thread (asynchronously — a following
  /// Flush() on the same world is ordered after it by the FIFO queue).
  /// Returns the number of mutations accepted; out-of-range targets,
  /// non-finite or non-positive values are dropped and counted
  /// (Stats().mutations_rejected). ServiceError{kUnknownWorld} for an
  /// unregistered key.
  size_t RecordStatBatch(uint64_t world_key, const std::vector<testing::StatMutation>& mutations);

  /// Flushes one world's session (returns dispatched StatChanges; the
  /// flush's events reach their sinks before it returns, or before `done`
  /// runs). ServiceError{kUnknownWorld} for an unregistered key.
  size_t Flush(uint64_t world_key);
  void FlushAsync(uint64_t world_key, Done<size_t> done);

  /// Flushes every world on every shard (shards in parallel); returns the
  /// summed dispatched change count.
  size_t FlushAll();

  /// Barrier: returns after every command queued before it has executed
  /// on every shard.
  void Drain();

  /// The query's optimizer state, canonically rendered
  /// (DeclarativeOptimizer::CanonicalDumpState) — the differential
  /// harness's comparison key. ServiceError{kUnknownQuery} on a bad id.
  std::string QueryCanonicalDump(uint64_t query_id);

  /// The query's current best plan cost. ServiceError{kUnknownQuery}.
  double QueryBestCost(uint64_t query_id);

  /// Persists every world: per shard, one manifest (world specs + query
  /// configurations, snapshot.h container) plus one ReoptSession snapshot
  /// per world, all under options.snapshot_dir. Flushes first (session
  /// SaveSnapshot semantics). Returns the number of queries persisted.
  /// Throws ServiceError{kBadRequest} without a snapshot_dir;
  /// SerializeError{kIo} on filesystem failure.
  size_t SaveSnapshots();

  /// Warm-restarts an EMPTY service from SaveSnapshots() output: rebuilds
  /// each world from its manifest record, then LoadSnapshot()s its
  /// session, preserving query ids. Event sinks come back null — clients
  /// re-attach with SetSink (kSubscribeQuery on the wire). Missing
  /// manifests are treated as empty shards. Returns the number of queries
  /// restored. Throws SerializeError on corrupt files.
  size_t LoadSnapshots();

  /// Prometheus text exposition: the summed session counters of every
  /// world (service/metrics_exporter.h PrometheusSessionText) plus
  /// service-level gauges (worlds, queries, per-shard query counts).
  std::string MetricsText();

  ShardedServiceStats Stats();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  size_t num_queries() const;
  size_t num_worlds() const;

 private:
  struct Shard;
  struct Group;
  struct GroupQuery;
  struct WorldInfo {
    uint32_t shard = 0;
    int num_relations = 0;
    int num_edges = 0;
  };
  struct QueryLoc {
    uint32_t shard = 0;
    uint64_t world_key = 0;
  };

  void ShardLoop(Shard* shard);
  void Post(uint32_t shard, std::function<void()> fn);
  /// Posts `fn`; its result or exception goes to `done` on the shard.
  template <typename R, typename F>
  void PostDone(uint32_t shard, F fn, Done<R> done);
  /// Posts `fn` and waits for its result; exceptions propagate.
  template <typename F>
  auto Call(uint32_t shard, F fn) -> decltype(fn());

  /// Index lookups; nullopt for an unknown key or id.
  std::optional<WorldInfo> FindWorld(uint64_t world_key) const;
  std::optional<QueryLoc> FindQuery(uint64_t query_id) const;

  /// Shard-thread body of RegisterQuery (group lookup/create + session
  /// registration). `loc_out` receives the created query's id.
  RegisterResult RegisterOnShard(uint32_t shard_idx, uint64_t world_key,
                                 const testing::CatalogSpec& catalog, const QuerySpec& query,
                                 const std::string& options_name, EventSink* sink);

  ShardedServiceOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex index_mu_;
  std::unordered_map<uint64_t, WorldInfo> worlds_;
  std::unordered_map<uint64_t, QueryLoc> queries_;
  uint64_t next_query_id_ = 1;
  int64_t mutations_rejected_ = 0;
};

}  // namespace iqro::server

#endif  // IQRO_SERVER_SHARDED_SERVICE_H_
