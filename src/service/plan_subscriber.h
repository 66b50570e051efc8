// PlanSubscriber: the notification edge between the re-optimizer and the
// thing that runs plans.
//
// Re-optimization systems that act on plan changes mid-flight hinge on the
// optimizer *publishing* "your best plan is now X, it was Y, here is how
// much moved" — an executor then decides whether switching pays (the
// mid-query re-optimization literature's cost/benefit gate). A ReoptSession
// delivers exactly that: after each flush, every registered query whose
// canonical best plan actually changed fires one PlanChangeEvent to its
// attached subscriber.
//
// ## Exactness
//
// "Actually changed" is computed from the winner closure (the PlanDigest of
// core/plan_digest.h), never from the dirty set: a flush that seeds and
// re-derives half the memo but lands on the same best plan fires nothing,
// and net-zero churn (absorbed by the coalescer) fires nothing. The
// differential harness proves the exactness over the full scenario
// rotation: an event fires iff CanonicalDumpState() changed for that query,
// and the event's old/new costs match the from-scratch oracle
// (docs/TESTING.md "Notification oracle").
//
// ## Delivery
//
// Events fire on the session's thread, after every dispatched pass has
// completed, in registration order — exactly once per flush per changed query.
// Reentrancy rules (what a callback may do) are specified in docs/API.md
// and on ReoptSession.
// ## Failure events
//
// The session's failure domain (docs/ARCHITECTURE.md "Failure domains")
// speaks through the same subscriber: when a query's flush pass throws or
// blows its work budget, the session quarantines it and fires one
// QueryQuarantinedEvent (and later a QueryRehabilitatedEvent when a
// from-scratch rebuild restores it). Both are default-no-op virtuals so
// existing subscribers compile unchanged. Unlike plan changes, failure
// events are delivered at most once and never replayed after a throwing
// callback — the authoritative state is ReoptSession::query_state().
#ifndef IQRO_SERVICE_PLAN_SUBSCRIBER_H_
#define IQRO_SERVICE_PLAN_SUBSCRIBER_H_

#include <cstdint>
#include <string>

#include "core/plan_digest.h"

namespace iqro {

class DeclarativeOptimizer;

struct PlanChangeEvent {
  /// The session-stable id of the query that changed (QueryHandle::id()).
  int query_id = -1;
  /// The changed query's optimizer — safe to inspect from the callback
  /// (GetBestPlan, BestCost, metrics); the flush that produced the change
  /// is complete.
  DeclarativeOptimizer* optimizer = nullptr;
  /// Registry epoch of the drained batch this flush applied
  /// (StatsRegistry::DrainedBatch::epoch) — matches the optimizer's
  /// stats_epoch() after the flush.
  uint64_t flush_epoch = 0;
  /// Ordinal of the firing flush (ReoptSessionMetrics::flushes at fire
  /// time): lets a consumer correlate events with exported FlushReports.
  int64_t flush_index = 0;
  /// Root BestCost before/after the flush. `old_cost` is the value the
  /// subscriber was last notified at (or the plan at attach time).
  double old_cost = 0;
  double new_cost = 0;
  /// How much of the plan moved: changed operator count, surviving
  /// join-order prefix (core/plan_digest.h).
  PlanDiffSummary diff;
};

/// A query's flush pass failed (threw, failed an allocation, or exceeded
/// the session's per-query work budget) and the query was quarantined: its
/// optimizer has been torn down to a consistent empty state (optimized()
/// == false — do NOT read plans from it), it is skipped by subsequent
/// flushes, and the session will retry a from-scratch rebuild on the
/// backoff schedule unless it is parked.
struct QueryQuarantinedEvent {
  enum class Reason : uint8_t {
    kException,   // the pass threw (including allocation failure)
    kWorkBudget,  // the fixpoint exceeded per_query_work_budget
  };
  int query_id = -1;
  /// The quarantined optimizer — torn down; optimized() is false until a
  /// rebuild succeeds. Inspect metrics, not plans.
  DeclarativeOptimizer* optimizer = nullptr;
  /// Registry epoch of the batch whose dispatch failed.
  uint64_t flush_epoch = 0;
  int64_t flush_index = 0;
  Reason reason = Reason::kException;
  /// what() of the failing exception (best effort).
  std::string message;
  /// Strikes accumulated so far, this failure included.
  int strikes = 0;
  /// True when strikes reached the limit: no further retries; the query
  /// stays poisoned until released.
  bool parked = false;
  /// Flush/poll ticks until the next rehabilitation attempt (0 when
  /// parked).
  int64_t retry_in_ticks = 0;
};

/// A quarantined query was restored: a from-scratch rebuild against the
/// current statistics succeeded, so its plan state is exactly what an
/// optimizer that never failed would hold. Plan-change notification
/// resumes; if the plan differs from the last one this subscriber saw, a
/// PlanChangeEvent against that old baseline follows in the same flush.
struct QueryRehabilitatedEvent {
  int query_id = -1;
  DeclarativeOptimizer* optimizer = nullptr;
  uint64_t flush_epoch = 0;
  int64_t flush_index = 0;
  /// Strikes the query had accumulated before this rebuild cleared them.
  int strikes_cleared = 0;
};

class PlanSubscriber {
 public:
  virtual ~PlanSubscriber() = default;
  /// Fired per the delivery contract above. The event is valid only for
  /// the duration of the call; copy what you keep.
  virtual void OnPlanChange(const PlanChangeEvent& event) = 0;
  /// Failure-domain notifications (see "Failure events" above). Delivered
  /// before the flush's plan changes, in registration order, on the
  /// flushing thread. Default no-op.
  virtual void OnQueryQuarantined(const QueryQuarantinedEvent& event) { (void)event; }
  virtual void OnQueryRehabilitated(const QueryRehabilitatedEvent& event) { (void)event; }
};

}  // namespace iqro

#endif  // IQRO_SERVICE_PLAN_SUBSCRIBER_H_
