// ReoptSession: the multi-query re-optimization manager — the service
// layer above the single-query engine.
//
// The paper treats re-optimization as incremental view maintenance over the
// optimizer's internal state and notes that deltas are cheapest when
// updates are *batched* before the fixpoint runs (§4). A production
// deployment amplifies that twice over: dozens of live queries (prepared
// statements, standing stream queries, AQP mid-flight plans) watch the same
// statistics, and runtime feedback arrives as a churny stream full of
// oscillations and no-ops. This class turns that stream into the minimum
// amount of fixpoint work — and publishes the part consumers actually act
// on, the plan changes:
//
//   mutators ──► StatsRegistry (NetDeltaTable: one net delta per statistic)
//                     │ OnStatsMutated ──► FlushPolicy (when to flush)
//                     ▼
//              ReoptSession::Flush
//                     │ TakePendingBatch(): coalesced StatChanges,
//                     │ net-zero churn already absorbed
//                     ▼
//        for each registered query whose relations overlap the batch:
//              DeclarativeOptimizer::ReoptimizeBatch(changes)
//              — all dirty memo state seeded, then ONE fixpoint run
//                     │
//                     ▼
//        PlanChangeEvent per query whose canonical best plan changed
//        (winner-closure diff, not dirty-set) ──► PlanSubscriber
//        FlushReport ──► MetricsExporter
//
// One flush therefore costs one registry drain plus at most one delta
// fixpoint per *affected* optimizer, no matter how many raw mutations the
// batch contained (see bench_batch_churn for the measured payoff vs
// change-at-a-time Reoptimize()).
//
// ## The session surface
//
//   ReoptSession session(&registry, options);
//   QueryHandle q = session.Register(optimizer);   // typed, move-only
//   q.Subscribe(&my_subscriber);                   // plan-change events
//   ...
//   // q's destructor unregisters; or q.Release() to do it early.
//
// Flush triggering is a pluggable FlushPolicy (service/flush_policy.h):
// CountPolicy flushes every N mutations, DeadlinePolicy bounds wall-clock
// staleness (observed on the next mutation or Poll() — the application's
// driver loop calls Poll(), as reoptd's shard loop does). Session metrics
// stream out through a MetricsExporter (service/metrics_exporter.h).
//
// ## Notification semantics (the exactness contract)
//
// After each flush, a PlanChangeEvent fires exactly once per registered
// query whose *canonical best plan* changed — computed by diffing the
// query's winner-closure PlanDigest (core/plan_digest.h) across the flush,
// never from the dirty set. A flush that re-derives half the memo but
// lands on the same plan fires nothing; net-zero churn fires nothing.
// Events fire on the flushing thread, in registration order, after every
// pass completed and the registry reader lock is released; the event
// carries old/new BestCost, the operator/join-prefix diff, and the flush
// epoch. Queries without a subscriber pay nothing (no digest is computed).
// The differential harness proves the contract on the full scenario
// rotation (docs/TESTING.md "Notification oracle").
//
// Reentrancy (inside OnPlanChange and the failure-event callbacks):
//  * Reading the session, any registered optimizer, or the registry is
//    allowed — the flush's passes are complete.
//  * Unregister (handle destruction or Release()) is allowed and is
//    DEFERRED to the end of the in-flight flush: every event of that flush
//    still fires (including the unregistering query's own), and the query
//    stops being dispatched from the next flush on.
//  * Registering a new query is NOT allowed (checked).
//  * Mutating statistics is allowed; a policy-triggered auto-flush from
//    inside the callback backs off on `in_flush_` and the mutation sits
//    pending for the next flush.
//
// ## Failure domain (docs/ARCHITECTURE.md "Failure domains")
//
// A flush pass that throws — an allocation failure, an injected fault
// (common/fault_injection.h), or a WorkBudgetExceeded from
// `per_query_work_budget` — is contained to its query. The failing
// optimizer is left in the core's torn-down-but-consistent state
// (optimized() == false), the query is marked kQuarantined and skipped by
// subsequent dispatches, and every OTHER query's pass completes normally;
// its subscriber (if any) gets one QueryQuarantinedEvent. The session then
// retries a from-scratch rebuild (DeclarativeOptimizer::RebuildFromScratch)
// on a capped exponential backoff measured in *ticks* — one tick per
// Flush() plus per Poll() that found no flush in flight, a deterministic
// clock-free schedule. A successful rebuild rehabilitates the query
// (QueryRehabilitatedEvent; a PlanChangeEvent against the last plan its
// subscriber saw follows in the same flush iff the plan moved — the
// incremental ≡ from-scratch equivalence makes the rebuilt state exactly
// what a never-failed optimizer would hold). After
// `quarantine_max_strikes` consecutive failures the query is kParked: no
// more retries, release the handle to dispose of it. query_state() is the
// authoritative state; events are at-most-once notifications.
//
// ## Ownership
//
// The session borrows everything: the registry and every registered
// optimizer must outlive it (or be unregistered first); subscribers,
// policies (shared) and exporters must outlive their use. The session
// subscribes to the registry on construction and unsubscribes in its
// destructor. QueryHandles may outlive the session: a handle's destructor
// detects the dead session (liveness token) and becomes a no-op.
// Registered optimizers must already have run Optimize() and must drain
// this session's registry (checked).
//
// ## Consistency contract
//
// Between flushes, registered optimizers hold plans that are exact w.r.t.
// the statistics of the *last* flush — the same staleness window a single
// optimizer has between Reoptimize() calls. A flush brings every
// registered optimizer to the fixpoint of the current statistics; the
// differential harness proves that state byte-equal (CanonicalDumpState)
// to a from-scratch optimization, for every registered optimizer, under
// randomized batched churn — and, under fault rotation, that every
// injected failure either leaves the flush fully applied or quarantines
// exactly the faulted query, whose post-recovery state again matches a
// never-faulted mirror (docs/TESTING.md).
//
// Registered optimizers must never call Reoptimize() themselves: that
// would drain the shared registry and starve their peers. Registering an
// optimizer that is already at fixpoint w.r.t. *newer* statistics than the
// last flush is safe — the next flush re-seeds it and lands it in the same
// state (re-optimization is idempotent). Registering one whose fixpoint
// *predates* the last drain is a hard error (Register checks epochs): the
// drained deltas are gone, so it would stay silently stale forever.
//
// ## Threading model
//
// One flushing thread per session: Flush() drains one epoch-versioned
// batch and runs the per-query ReoptimizeBatch() passes in registration
// order on the calling thread, with the statistics values frozen for the
// dispatch window by the registry's reader lock. Queries that share a
// world share its split memo, PropTable and summary cache, all plain
// single-threaded containers. Parallelism lives a layer up: reoptd runs
// worlds in parallel on its shards, one session per world.
//
// Mutator threads: statistics producers may Record() from other threads
// while a flush runs. The registry's mutation lock serializes them against
// the drain and the dispatch window: a racing mutation lands in the *next*
// epoch's batch, never lost, never double-applied (tests/service_test.cpp,
// MutatorThreadTest). Between the drain and the next flush it simply sits
// pending — the same staleness window as always. FlushPolicy evaluation is
// serialized under the session's policy mutex whatever thread mutates, and
// a policy-triggered flush on a mutator thread excludes the owner's
// Flush()/Poll() via `in_flush_`.
//
// The session owns no driver thread. Poll() and Flush() are owner-thread
// calls from the application's driver loop (reoptd's shard loop polls
// every idle session): Poll() is what makes DeadlinePolicy deadlines and
// quarantine-backoff expirations fire without a mutation arriving.
// Register/Unregister/Subscribe, the memo-lifecycle calls and session
// destruction are owner-thread calls too, made with no flush in flight on
// a *mutator* thread (the one exception: Unregister from inside a
// subscriber callback, which defers). docs/ARCHITECTURE.md has the full
// ownership/epoch lifecycle.
#ifndef IQRO_SERVICE_REOPT_SESSION_H_
#define IQRO_SERVICE_REOPT_SESSION_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/declarative_optimizer.h"
#include "service/flush_policy.h"
#include "service/metrics_exporter.h"
#include "service/plan_subscriber.h"
#include "service/session_metrics.h"
#include "service/shared_summary_cache.h"
#include "stats/stats_registry.h"

namespace iqro {

class QueryHandle;

/// Failure-domain state of one registered query (authoritative; the
/// subscriber events are at-most-once notifications of transitions).
enum class QueryState : uint8_t {
  kHealthy,      // dispatched normally
  kQuarantined,  // last pass failed; skipped; rebuild scheduled (backoff)
  kParked,       // strikes exhausted; skipped forever; release the handle
};

struct ReoptSessionOptions {
  /// When to auto-flush (service/flush_policy.h). Null: manual Flush()
  /// only. Evaluated after every value-changing mutation and on Poll();
  /// shared so options stay copyable — one policy instance per session.
  std::shared_ptr<FlushPolicy> flush_policy;
  /// Receives one FlushReport per dispatched flush
  /// (service/metrics_exporter.h). Borrowed, may be null; must outlive the
  /// session or be detached with it.
  MetricsExporter* metrics_exporter = nullptr;

  // ---- failure domain ----

  /// > 0: cap each per-query fixpoint at this many worklist steps per
  /// flush (DeclarativeOptimizer work_budget). A pass that exceeds it is
  /// treated exactly like a throwing pass: the query is quarantined, its
  /// peers finish. 0: unbudgeted.
  int64_t per_query_work_budget = 0;
  /// Consecutive failed passes/rebuilds (strikes) before a quarantined
  /// query is parked permanently. Must be >= 1.
  int quarantine_max_strikes = 3;
  /// Rebuild backoff after the Nth strike: min(cap, base * 2^(N-1)) ticks
  /// (one tick per Flush()/idle Poll()). base >= 1, cap >= base.
  int64_t quarantine_backoff_base_ticks = 1;
  int64_t quarantine_backoff_cap_ticks = 8;

  // ---- memo lifecycle ----

  /// > 0: session-wide memo residency budget in (estimated) bytes. After
  /// each dispatched flush the session sums EstimatedMemoBytes() over the
  /// healthy, non-evicted queries — the exact quantity peak_memo_bytes is
  /// the high-water mark of — and, while the sum exceeds the budget,
  /// EVICTS the least-recently-affected query: its memo/EPState is spilled
  /// to a compact serialized seed (DeclarativeOptimizer::SerializeState)
  /// and torn down. An evicted query costs nothing per flush until a batch
  /// its relation set can be affected by arrives, at which point the same
  /// flush rehydrates it (RestoreState from the seed; RebuildFromScratch
  /// if the seed is unusable) *before* dispatch — so no relevant batch is
  /// ever missed and plans stay exactly oracle-equal. 0: no budget;
  /// EvictQuery()/RehydrateQuery() remain available manually.
  size_t memo_byte_budget = 0;
};

class ReoptSession final : public StatsSubscriber {
 public:
  using QueryId = int;

  /// `registry` must outlive the session. Subscribes immediately.
  explicit ReoptSession(StatsRegistry* registry, ReoptSessionOptions options = {});
  ~ReoptSession() override;

  ReoptSession(const ReoptSession&) = delete;
  ReoptSession& operator=(const ReoptSession&) = delete;

  /// Registers a live query and returns its typed handle (move-only; its
  /// destructor unregisters). `optimizer` must have run Optimize(), must
  /// drain this session's registry, and must outlive its registration. Its
  /// state must not predate the registry's last drain (checked via
  /// stats_epoch(): the drained deltas are gone, so a late optimizer could
  /// never catch up and would stay silently stale); pending-but-undrained
  /// changes at registration time are fine — the next flush seeds them.
  /// `subscriber`, when non-null, is attached as by
  /// QueryHandle::Subscribe() with the current plan as the baseline.
  [[nodiscard]] QueryHandle Register(DeclarativeOptimizer& optimizer,
                                     PlanSubscriber* subscriber = nullptr);

  int num_queries() const { return static_cast<int>(queries_.size()); }

  /// Failure-domain state of a registered query (owner-thread read; aborts
  /// on an unknown id — released queries have no state).
  QueryState query_state(QueryId id) const;

  /// Registered queries currently quarantined (excluding parked) /
  /// parked. Owner-thread reads, like query_state().
  int num_quarantined() const;
  int num_parked() const;

  /// The deterministic retry clock: ticks advance once per Flush() and
  /// once per Poll() that found no flush already in flight. Exposed so
  /// tests and operators can reason about backoff schedules.
  int64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

  /// True when mutations were recorded since the last flush (they may still
  /// coalesce to nothing — see StatsRegistry::HasPending).
  bool HasPending() const { return registry_->HasPending(); }

  /// Drains the registry's coalesced pending batch, dispatches it as one
  /// ReoptimizeBatch() pass to every registered healthy optimizer whose
  /// relation set the batch can affect, in registration order on the
  /// calling thread, then fires events and the metrics export.
  /// Quarantined queries due for retry are rebuilt first. Returns the
  /// number of StatChanges dispatched; 0 when the batch coalesced away (or
  /// nothing was pending, or another thread's flush is already in flight —
  /// the racing batch belongs to that flush).
  size_t Flush();

  /// Consults the flush policy and the quarantine retry schedule without a
  /// mutation having arrived — the owner thread's driver-loop call for
  /// time-based policies and backoff expiry (reoptd's shard loop calls it
  /// on every idle session). Flushes and returns the dispatched change
  /// count when either says so; otherwise 0.
  size_t Poll();

  // ---- memo lifecycle (docs/ARCHITECTURE.md "Memo lifecycle") ----

  /// Spills a healthy query's memo to a serialized seed and tears it down
  /// (the budget enforcement path, exposed for manual control). Returns
  /// false — and does nothing — when the query is quarantined, parked, or
  /// already evicted. Owner-thread call, like Register.
  bool EvictQuery(QueryId id);

  /// Restores an evicted query from its seed now instead of waiting for
  /// the next relevant batch (seed restore; from-scratch rebuild when the
  /// seed is unusable). Returns false when the query is not evicted.
  bool RehydrateQuery(QueryId id);

  /// Registered queries currently evicted.
  int num_evicted() const;

  /// ReoptSessionMetrics::resident_memo_bytes (the post-flush gauge;
  /// metrics() read rules apply).
  int64_t resident_memo_bytes() const { return metrics_.resident_memo_bytes; }

  /// Persists the session's warm state — the statistics registry plus one
  /// memo seed per registered query, in registration order — to `path` via
  /// the atomic snapshot container (service/snapshot.h). Flushes first, so
  /// the snapshot is a settled fixpoint state. Quarantined/parked queries
  /// persist as cold records (their torn-down memo has nothing to save);
  /// evicted queries persist their stored seed. Throws SerializeError
  /// (kIo) on filesystem failure; a pre-existing snapshot at `path` is
  /// never torn. Owner-thread call.
  void SaveSnapshot(const std::string& path);

  /// Warm-starts an EMPTY session (num_queries() == 0) from a snapshot:
  /// restores the registry's statistics + epoch, then restores each
  /// query's memo from its seed (RebuildFromScratch fallback for cold
  /// records or unusable seeds) and registers it. `optimizers` supplies
  /// one fresh (constructed, not yet optimized) optimizer per snapshotted
  /// query, in snapshot order, each wired to this session's registry.
  /// Post-load statistics churn drains through the normal incremental
  /// flush path — the warm-restart story bench_warm_restart measures.
  /// Throws SerializeError before mutating anything when the file is
  /// corrupt, truncated, version-skewed, or disagrees with `optimizers`
  /// (callers catch and fall back to from-scratch optimization).
  std::vector<QueryHandle> LoadSnapshot(
      const std::string& path, const std::vector<DeclarativeOptimizer*>& optimizers);

  /// Read metrics()/last_flush() only from a state where no flush can be
  /// in flight and no mutator is recording: after your own *successful*
  /// Flush() (one that drained, not one that returned 0 because another
  /// thread's flush held `in_flush_` — backing off does not synchronize
  /// with that flush's writes), or after every mutator thread has joined.
  /// With a policy + a mutator thread, a flush may be running on *its*
  /// thread at any moment — quiesce first.
  const ReoptSessionMetrics& metrics() const { return metrics_; }

  /// OptMetrics aggregate of the most recent non-empty flush (read rules
  /// above); zeroed at session construction.
  const FlushOptStats& last_flush() const { return last_flush_; }

  /// The session's cross-query summary store: every registered query's
  /// SummaryCalculator is attached to it at Register() time, so queries
  /// with overlapping relation sets share epoch-keyed summary computation
  /// (hit/miss counters follow the metrics() read rules).
  const SharedSummaryCache& summary_cache() const { return summary_cache_; }

  /// StatsSubscriber: counts the mutation and evaluates the flush policy
  /// against the under-lock snapshot. May be invoked from any mutating
  /// thread (no registry lock held).
  void OnStatsMutated(StatsRegistry& registry, const StatsMutationEvent& event) override;

 private:
  friend class QueryHandle;

  struct Slot {
    QueryId id = -1;
    DeclarativeOptimizer* optimizer = nullptr;
    /// Plan-change subscriber; null = no notifications, no digest work.
    PlanSubscriber* subscriber = nullptr;
    /// Bumped by every SetSubscriber call: pending-event delivery checks
    /// it so a mid-notification detach-then-reattach of the SAME pointer
    /// still suppresses (the reattach took a fresh post-flush baseline;
    /// pointer identity alone cannot see it).
    uint64_t subscription_gen = 0;
    /// True while a computed event has not settled (a throwing subscriber
    /// unwound delivery before this slot's turn, or a rehabilitation
    /// restored the optimizer against a pre-quarantine baseline): the
    /// next flush re-derives the digest even if its batch cannot affect
    /// the query, so the dropped/deferred change is re-detected rather
    /// than deferred until unrelated churn happens to touch it.
    bool rediff_pending = false;
    /// Winner-closure baseline the next flush diffs against. Valid iff
    /// `subscriber != nullptr` (captured at attach time, advanced by every
    /// flush that recomputed it). A quarantine KEEPS the baseline — the
    /// post-rehabilitation diff then describes the change relative to the
    /// last plan the subscriber actually saw.
    PlanDigest digest;
    // ---- failure domain ----
    QueryState state = QueryState::kHealthy;
    /// Consecutive failures (pass throws + failed rebuilds); reset by a
    /// successful rebuild.
    int strikes = 0;
    /// Tick at/after which the next rebuild attempt runs (quarantined
    /// slots only).
    int64_t eligible_at_tick = 0;
    // ---- memo lifecycle ----
    /// True while the query's memo is spilled to `seed` (state stays
    /// kHealthy — eviction is a residency decision, not a failure). The
    /// slot is skipped by dispatch and rehydrated by the first flush whose
    /// batch can affect it (or that owes it a re-diff).
    bool evicted = false;
    /// The SerializeState() seed and the stats epoch it was captured at
    /// (only meaningful while `evicted`; cleared on rehydration).
    std::string seed;
    uint64_t seed_epoch = 0;
    /// Tick of the last flush whose batch affected this query — the LRU
    /// key budget enforcement picks eviction victims by.
    int64_t last_active_tick = 0;
  };

  /// What one dispatched pass reports back to Flush for event computation.
  struct PassResult {
    /// False for the placeholder of a quarantined/parked (skipped) or
    /// failed pass; RunPass sets it true on every path that returns.
    bool dispatched = false;
    bool affected = false;
    /// Post-flush winner closure; computed only for affected queries with
    /// a subscriber attached (an unaffected query's plan cannot change —
    /// the prefilter already guarantees its state is exact).
    bool digest_computed = false;
    PlanDigest digest;
  };

  /// A quarantine/rehabilitation notification queued for the delivery
  /// phase (computed while the slot walk is stable, fired under the same
  /// NotifyGuard as plan events, before them, gen-checked the same way).
  struct ServiceEvent {
    enum class Kind : uint8_t { kQuarantined, kRehabilitated };
    Kind kind = Kind::kQuarantined;
    QueryId query = -1;
    uint64_t computed_gen = 0;
    QueryQuarantinedEvent quarantined;
    QueryRehabilitatedEvent rehabilitated;
  };

  /// One per-query pass: prefilter, ReoptimizeBatch, digest, then the
  /// pass's round counters added to metrics_/last_flush_ (a pass that
  /// throws adds nothing). `force_digest` re-derives the digest even for a
  /// prefiltered-away query (Slot::rediff_pending — an unsettled event
  /// from a prior flush).
  PassResult RunPass(DeclarativeOptimizer* optimizer, const std::vector<StatChange>& changes,
                     uint64_t epoch, bool want_digest, bool force_digest);

  QueryId RegisterImpl(DeclarativeOptimizer* optimizer, PlanSubscriber* subscriber);
  /// Unregisters `id` — immediately, or deferred to flush end when called
  /// from inside a subscriber callback (see the reentrancy rules).
  void UnregisterImpl(QueryId id);
  /// Attaches/replaces/clears (nullptr) a slot's subscriber; captures the
  /// current plan as the event baseline on attach.
  void SetSubscriber(QueryId id, PlanSubscriber* subscriber);
  Slot* FindSlot(QueryId id);
  const Slot* FindSlot(QueryId id) const;

  /// Rebuilds every quarantined query whose backoff expired; appends the
  /// resulting service events and updates the per-flush strike/rehab
  /// counters. Flushing thread only, called at flush start.
  void AttemptRehabs(uint64_t epoch, std::vector<ServiceEvent>* events,
                     int64_t* strikes, int64_t* rehabs);
  /// Quarantines `slot` for the failure in `err` (classify, tear down if
  /// needed, schedule/park, emit the event). Bumps *strikes.
  void RecordStrike(Slot& slot, const std::exception_ptr& err, uint64_t epoch,
                    std::vector<ServiceEvent>* events, int64_t* strikes);
  /// Recomputes the Poll-readable quarantine atomics from queries_.
  void RefreshQuarantineIndex();
  /// Spills `slot`'s memo to its seed and tears the optimizer down
  /// (requires healthy + optimized + not evicted).
  void EvictSlot(Slot& slot);
  /// Restores `slot` from its seed under the registry reader lock (rebuild
  /// fallback when the seed is rejected). A failed rebuild records a
  /// strike like any other failed rebuild. Returns true when the slot left
  /// eviction healthy.
  bool RehydrateSlot(Slot& slot, uint64_t epoch, std::vector<ServiceEvent>* events,
                     int64_t* strikes);
  /// Sum of EstimatedMemoBytes() over healthy, non-evicted queries.
  size_t ComputeResidentBytes() const;
  /// Evicts least-recently-affected queries until the resident sum fits
  /// `memo_byte_budget` (no-op without a budget) and refreshes the
  /// resident_memo_bytes gauge either way.
  void EnforceMemoBudget(int64_t* evictions_this_flush);

  /// Evaluates the policy under `policy_mu_` and flushes on demand.
  /// `event` is null for Poll() probes.
  size_t MaybePolicyFlush(const StatsMutationEvent* event);
  /// The one OnFlush protocol (empty and dispatched flushes alike): read
  /// the post-drain pending count, then hand it to the policy under
  /// `policy_mu_`. Registry reads always happen BEFORE the policy mutex.
  void PolicyOnFlush();

  StatsRegistry* registry_;
  ReoptSessionOptions options_;
  ReoptSessionMetrics metrics_;
  FlushOptStats last_flush_;
  /// Cross-query shared summary store (see summary_cache()). Declared
  /// before queries_ so it outlives any attachment teardown.
  SharedSummaryCache summary_cache_;
  std::vector<Slot> queries_;
  QueryId next_id_ = 0;
  /// Liveness token handles hold: *alive_ flips false in the destructor so
  /// a handle outliving its session no-ops instead of touching freed
  /// memory.
  std::shared_ptr<bool> alive_;
  /// Guards the mutation-policy state OnStatsMutated/Poll touch from
  /// mutator threads — including the FlushPolicy instance itself, whose
  /// calls are serialized under this mutex (everything else in this class
  /// is flushing-thread only).
  std::mutex policy_mu_;
  int64_t mutations_since_flush_ = 0;
  /// Mutual exclusion + reentrancy guard for Flush (policy-triggered
  /// callbacks, racing mutator-thread flushes).
  std::atomic<bool> in_flush_{false};
  /// The retry clock (see ticks()). Atomic because a policy flush on a
  /// mutator thread advances it while the owner's Poll() does too.
  /// Relaxed: a lower-bound logical clock; backoffs are "at least N ticks".
  std::atomic<int64_t> ticks_{0};
  /// Poll-readable quarantine index: count of kQuarantined slots and the
  /// earliest eligible_at_tick among them (INT64_MAX when none). Poll()
  /// reads it without walking queries_ while a mutator-thread flush may be
  /// refreshing it.
  std::atomic<int64_t> quarantined_count_{0};
  std::atomic<int64_t> next_rehab_tick_{std::numeric_limits<int64_t>::max()};
  /// True while events are being delivered (flushing thread only):
  /// Unregister defers, Register checks.
  bool notifying_ = false;
  std::vector<QueryId> deferred_unregister_;
};

/// Move-only registration of one query in one ReoptSession. Destroying (or
/// Release()ing) the handle unregisters the query — deferred to flush end
/// when it happens inside a subscriber callback. A handle that outlives
/// its session no-ops on destruction. Not thread-safe; use from the
/// session's thread.
class QueryHandle {
 public:
  /// Invalid handle (valid() == false); assign a real one into it.
  QueryHandle() = default;
  QueryHandle(QueryHandle&& other) noexcept;
  QueryHandle& operator=(QueryHandle&& other) noexcept;
  ~QueryHandle();

  QueryHandle(const QueryHandle&) = delete;
  QueryHandle& operator=(const QueryHandle&) = delete;

  /// True while this handle owns a registration in a session that is
  /// still alive — false once Released, moved-from, or the session was
  /// destroyed (the registration died with it).
  bool valid() const { return session_ != nullptr && alive_ != nullptr && *alive_; }
  /// The session-stable id (PlanChangeEvent::query_id). -1 when invalid —
  /// including a handle invalidated by its session's destruction.
  ReoptSession::QueryId id() const { return valid() ? id_ : -1; }
  /// The registered optimizer (null when invalid, as for id()).
  DeclarativeOptimizer* optimizer() const { return valid() ? optimizer_ : nullptr; }
  /// Failure-domain state (ReoptSession::query_state). kHealthy on an
  /// invalid handle — a dead session holds no quarantine.
  QueryState state() const;

  /// Attaches (or replaces) the plan-change subscriber; the query's
  /// *current* canonical plan becomes the baseline the next flush diffs
  /// against. nullptr detaches and drops the digest work. An event fires
  /// only if the subscriber it was computed for is still attached at
  /// delivery time, so detaching OR replacing from inside a subscriber
  /// callback suppresses the query's undelivered event of the in-flight
  /// flush (no replay of pre-attach history to the new observer, no call
  /// into a destroyed old one). The handle must own a registration
  /// (never-registered or Released handles are a programming error); on a
  /// dead session this is a no-op like every other handle operation.
  void Subscribe(PlanSubscriber* subscriber);

  /// Unregisters now (or deferred, inside a callback) and invalidates the
  /// handle. No-op when already invalid or the session is gone.
  void Release();

 private:
  friend class ReoptSession;
  QueryHandle(ReoptSession* session, ReoptSession::QueryId id,
              DeclarativeOptimizer* optimizer, std::shared_ptr<const bool> alive)
      : session_(session), optimizer_(optimizer), alive_(std::move(alive)), id_(id) {}

  ReoptSession* session_ = nullptr;
  DeclarativeOptimizer* optimizer_ = nullptr;
  std::shared_ptr<const bool> alive_;
  ReoptSession::QueryId id_ = -1;
};

}  // namespace iqro

#endif  // IQRO_SERVICE_REOPT_SESSION_H_
