// StatsRegistry: the runtime-updatable cost and cardinality inputs of one
// optimization world, shared by the declarative optimizer, the procedural
// baselines ("common code across the implementations", §5) and — since the
// service layer exists — by every optimizer registered in a ReoptSession.
//
// Re-optimization in the paper is triggered by "updated cost (or
// cardinality) estimates based on information collected at runtime". All
// such updates flow through this registry:
//   * per-relation effective cardinality (base rows x local selectivity),
//   * per-join-edge selectivity,
//   * per-expression cardinality multipliers (what-if scaling of one
//     subexpression's output, as in Fig. 5),
//   * per-relation scan-cost multipliers (as in Fig. 8).
//
// ## Pending-delta coalescing
//
// After Freeze(), every mutation is recorded into a NetDeltaTable keyed by
// the identity of the statistic (delta/net_delta.h), remembering the value
// the statistic held before its first mutation of the batch. TakePending()
// — the seed source of DeclarativeOptimizer::Reoptimize()/ReoptimizeBatch()
// — then emits at most one StatChange per affected (kind, scope):
//   * repeated mutations of one statistic collapse into one delta,
//   * mutations that net to their baseline (oscillations, reverts) are
//     absorbed entirely and emit nothing,
//   * distinct statistics that map to the same (kind, scope) — e.g. base
//     rows and local selectivity of the same relation — merge into one
//     StatChange.
// Every mutation still bumps the epoch (summary/local-cost caches must
// refresh even for net-zero churn). HasPending() reports recorded-but-
// undrained mutations and may therefore overreport: a pending batch can
// coalesce to an empty change list at TakePending() time.
//
// ## Subscribers
//
// StatsSubscriber::OnStatsMutated fires after every recorded post-freeze
// mutation (the new value is already visible). This is the hook the
// service-layer ReoptSession uses to implement auto-flush policies; a
// subscriber may call TakePending() (flush) from inside the callback.
//
// ## Ownership and thread-safety
//
// The registry owns no optimizers and does not outlive-track subscribers:
// a subscriber must Unsubscribe() before it is destroyed. Subscribe/
// Unsubscribe and Reset/AddEdge are setup-time, single-threaded calls.
//
// Post-freeze, the registry is the one piece of engine state shared
// between mutator threads and a flushing ReoptSession, so it carries the
// mutation-side lock of the threading model (docs/ARCHITECTURE.md):
//
//  * Every mutator (SetBaseRows, ..., ScaleCardMultiplier) takes `mu_`
//    exclusively: the value write, the epoch bump and the NetDeltaTable
//    record are one atomic step. Subscribers are notified *after* the
//    lock is released (on the mutating thread), so a callback may re-enter
//    the registry — e.g. an auto-flush draining it — without deadlocking.
//  * TakePendingBatch() takes `mu_` exclusively and snapshots the whole
//    coalesced batch together with the epoch it reflects — an
//    epoch-versioned snapshot of the NetDeltaTable. A Record() racing the
//    drain serializes either before it (and is included) or after it (and
//    lands in the *next* batch); nothing is lost or applied twice.
//  * ReaderLock() takes `mu_` shared. A flush dispatcher holds it for the
//    whole dispatch, so the ReoptimizeBatch() passes it runs read
//    statistics values frozen at the drained epoch through the plain
//    accessors (which stay lock-free — they are the cost model's hot
//    path). Mutators block until the flush releases the lock.
//
// Outside a ReaderLock window, concurrent accessor reads racing a mutator
// are undefined — the contract is "readers hold the reader lock or own the
// registry's thread", not "every method is individually atomic".
#ifndef IQRO_STATS_STATS_REGISTRY_H_
#define IQRO_STATS_STATS_REGISTRY_H_

#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "common/relset.h"
#include "delta/net_delta.h"

namespace iqro {

/// What changed, and which expressions it can affect: every expression
/// `E` with `scope ⊆ E` may see a different summary or cost.
struct StatChange {
  enum class Kind : uint8_t {
    kCardinality,  // summaries of all supersets of `scope` changed
    kScanCost,     // only scan alternatives of `scope` (a singleton) changed
  };
  Kind kind = Kind::kCardinality;
  RelSet scope = 0;
};

struct JoinEdgeStats {
  RelSet endpoints = 0;  // exactly two bits
  double selectivity = 1.0;
};

class StatsRegistry;

/// What one recorded mutation looked like from inside the registry lock —
/// the consistent snapshot a flush policy evaluates against. Captured
/// atomically with the value write and the pending record, then handed to
/// subscribers after the lock is released: a policy reading these fields
/// never races the NetDeltaTable the way a lock-free PendingStatCount()
/// probe from the callback would.
struct StatsMutationEvent {
  /// Registry epoch after this mutation.
  uint64_t epoch = 0;
  /// Distinct statistics with a pending (possibly net-zero) delta,
  /// including this one — the pending-scope mask size the session's flush
  /// policy reads (FlushPolicyContext::pending_stats).
  size_t pending_stats = 0;
};

/// Observer of post-freeze statistics mutations (see class comment).
class StatsSubscriber {
 public:
  virtual ~StatsSubscriber() = default;
  /// Fired after each recorded mutation, on the mutating thread, with no
  /// registry lock held (the new value and its pending entry are already
  /// published; `event` is the under-lock snapshot of that publication).
  /// Reentrant draining (TakePending) is allowed; mutating the registry or
  /// (un)subscribing any subscriber from inside the callback is not.
  virtual void OnStatsMutated(StatsRegistry& registry, const StatsMutationEvent& event) = 0;
};

/// Cumulative coalescing counters since construction/Reset (the service
/// layer diffs them across flushes).
struct CoalesceStats {
  int64_t recorded = 0;    // post-freeze mutations recorded
  int64_t collapsed = 0;   // mutations merged into an existing pending entry
  int64_t emitted = 0;     // StatChanges returned by TakePending
  int64_t net_zero = 0;    // pending entries dropped: value back at baseline
  int64_t scope_merged = 0;  // entries merged into an equal (kind, scope)
};

class StatsRegistry {
 public:
  explicit StatsRegistry(int num_relations = 0);

  /// Re-initializes for a new world. Setup-time only: requires that no
  /// subscriber (session) is attached — a surviving session could dispatch
  /// optimizers built over the old relation slots.
  void Reset(int num_relations);
  int num_relations() const { return num_relations_; }

  /// Registers a join edge between the two relations in `endpoints`.
  /// Returns the edge id. Setup-time only.
  int AddEdge(RelSet endpoints, double selectivity);
  int num_edges() const { return static_cast<int>(edges_.size()); }
  const JoinEdgeStats& edge(int e) const { return edges_[static_cast<size_t>(e)]; }

  // ---- mutators (record coalesced StatChanges once frozen) ----
  void SetBaseRows(int rel, double rows);
  void SetLocalSelectivity(int rel, double sel);
  void SetRowWidth(int rel, double width);
  void SetScanCostMultiplier(int rel, double mult);
  void SetJoinSelectivity(int edge_id, double sel);
  /// Scales the cardinality of every expression containing `scope` by
  /// `factor` relative to the base formula (factor 1 removes the override).
  void SetCardMultiplier(RelSet scope, double factor);
  /// Multiplies the existing multiplier of exactly `scope` by `factor`
  /// (runtime-feedback corrections compose multiplicatively).
  void ScaleCardMultiplier(RelSet scope, double factor);
  /// The multiplier stored for exactly `scope` (1 if none).
  double ScopeMultiplier(RelSet scope) const;

  // ---- accessors ----
  double base_rows(int rel) const { return base_rows_[static_cast<size_t>(rel)]; }
  double local_selectivity(int rel) const { return local_sel_[static_cast<size_t>(rel)]; }
  double row_width(int rel) const { return row_width_[static_cast<size_t>(rel)]; }
  double scan_cost_multiplier(int rel) const { return scan_mult_[static_cast<size_t>(rel)]; }
  double join_selectivity(int edge_id) const {
    return edges_[static_cast<size_t>(edge_id)].selectivity;
  }

  /// Effective (post-local-predicate) cardinality of relation `rel`.
  double EffectiveRows(int rel) const { return base_rows(rel) * local_selectivity(rel); }

  /// Product of all card multipliers whose scope is a subset of `s`.
  double CardMultiplier(RelSet s) const;

  /// Marks setup complete; subsequent mutations are tracked as updates.
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  uint64_t epoch() const { return epoch_; }

  /// The epoch at which TakePending() last drained (1 if never): an
  /// optimizer whose state predates this has missed a drained batch and
  /// can never catch up through future deltas (see ReoptSession::Register).
  uint64_t drained_epoch() const { return drained_epoch_; }

  /// One atomically drained batch: the coalesced change list plus the
  /// registry epoch it reflects — what a flush dispatches and what every
  /// dispatched optimizer stamps as its stats_epoch().
  struct DrainedBatch {
    std::vector<StatChange> changes;
    uint64_t epoch = 0;        // epoch at drain time (the batch's version)
    bool had_pending = false;  // raw mutations were recorded (may net to 0)
  };

  /// Drains the batch of mutations recorded since the last call, coalesced
  /// to net deltas: at most one StatChange per affected (kind, scope), and
  /// none for statistics whose value is back at its batch baseline. The
  /// order of the returned changes follows the order in which their
  /// statistics first mutated (deterministic across replays). The whole
  /// drain happens under the mutation lock: the change list and the
  /// returned epoch are one consistent snapshot even with mutators racing.
  ///
  /// With several optimizers sharing one registry, whoever calls this
  /// starves the others — multi-query setups must drain through a
  /// ReoptSession, which calls it once per flush and dispatches the same
  /// change list to every registered optimizer (service/reopt_session.h).
  DrainedBatch TakePendingBatch();

  /// Convenience wrapper over TakePendingBatch() for single-query callers.
  std::vector<StatChange> TakePending() { return TakePendingBatch().changes; }

  /// Shared (reader) lock over the statistics values. A flush dispatcher
  /// holds this for its whole dispatch window so its passes observe
  /// values frozen at the drained epoch; mutators block until release and
  /// their changes land in the next batch. Single-threaded callers never
  /// need it.
  std::shared_lock<std::shared_mutex> ReaderLock() const {
    return std::shared_lock<std::shared_mutex>(mu_);
  }

  /// True when post-freeze mutations are recorded but not yet drained. May
  /// overreport relative to TakePending(): the whole batch can still
  /// coalesce to nothing.
  bool HasPending() const { return !pending_.empty(); }

  /// Number of distinct statistics with a recorded (possibly net-zero)
  /// pending mutation. Takes the registry lock shared: it is a policy/
  /// inspection probe (ReoptSession::Poll), never a fixpoint hot path, and
  /// unlike the plain accessors it must be safe against racing mutators.
  size_t PendingStatCount() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return pending_.size();
  }

  const CoalesceStats& coalesce_stats() const { return coalesce_; }

  // ---- lifecycle serialization (service snapshots) ----

  /// Appends an epoch-stamped serialization of every statistic value (base
  /// rows, selectivities, widths, scan/cardinality multipliers, join-edge
  /// selectivities) plus the epoch/drained-epoch pair to `out`
  /// (common/serialize.h encoding). Takes the reader lock; pending
  /// (undrained) mutations are NOT part of a registry's serialized state —
  /// a snapshotting session drains them first, so the snapshot is exactly
  /// "values at a drained epoch" and a warm-started service replays later
  /// mutations through the normal NetDeltaTable path.
  void SerializeState(std::string* out) const;

  /// Restores a SerializeState() payload into this registry: values are
  /// written directly under the exclusive lock (no epoch bumps, no pending
  /// records, no subscriber notifications), the epoch pair is adopted, the
  /// pending table is cleared and the registry is left frozen. The payload
  /// must structurally match this registry (relation count, edge count and
  /// endpoints) — a mismatch throws SerializeError{kMismatch} with the
  /// registry's values unmodified. Setup-time only, like Reset: requires
  /// that no subscriber is attached.
  void RestoreState(const std::string& payload);

  // ---- subscribers ----
  void Subscribe(StatsSubscriber* subscriber);
  void Unsubscribe(StatsSubscriber* subscriber);

  /// Fault injection for the differential test harness ONLY: silently
  /// discards one pending statistic's delta (the statistic itself stays
  /// mutated), simulating an under-seeded Reoptimize(). Returns false when
  /// nothing was pending. The harness asserts that its from-scratch oracle
  /// catches the resulting divergence.
  bool DropOnePendingForTest();

 private:
  /// Identity of one mutable statistic, for net-delta coalescing. kJoinSel
  /// is keyed by edge id (two edges may share endpoints); kCardMult by its
  /// exact scope.
  enum class StatId : uint8_t {
    kBaseRows,
    kLocalSel,
    kRowWidth,
    kScanMult,
    kJoinSel,
    kCardMult,
  };
  static uint64_t StatKey(StatId stat, uint64_t target) {
    return (static_cast<uint64_t>(stat) << 32) | target;
  }

  /// Bookkeeping half of a mutation (epoch bump + pending record). Caller
  /// holds `mu_` exclusively. Returns true when subscribers must be
  /// notified (post-freeze mutation), which the caller does after
  /// unlocking.
  bool RecordLocked(StatId stat, uint64_t target, double value_before);
  /// Body of SetCardMultiplier under an already-held exclusive `mu_` —
  /// also the write half of ScaleCardMultiplier's atomic read-modify-write.
  /// Returns whether subscribers must be notified.
  bool SetCardMultiplierLocked(RelSet scope, double factor);
  /// Shared body of the per-relation scalar setters: lock, no-op check,
  /// baseline capture, record, then unlocked subscriber notification.
  void SetScalar(StatId stat, int target, std::vector<double>& slots, double value);
  /// Caller holds `mu_` exclusively; snapshots the post-mutation epoch and
  /// pending size for the subscriber event.
  StatsMutationEvent SnapshotEventLocked() const { return {epoch_, pending_.size()}; }
  void NotifySubscribers(const StatsMutationEvent& event);
  double CurrentValue(StatId stat, uint64_t target) const;

  /// The mutation-side lock: exclusive for mutators and the drain, shared
  /// for a flush's dispatch window (see the class comment). The plain value
  /// accessors intentionally do not touch it.
  mutable std::shared_mutex mu_;
  int num_relations_ = 0;
  std::vector<double> base_rows_;
  std::vector<double> local_sel_;
  std::vector<double> row_width_;
  std::vector<double> scan_mult_;
  std::vector<JoinEdgeStats> edges_;
  std::vector<std::pair<RelSet, double>> card_mults_;
  bool frozen_ = false;
  uint64_t epoch_ = 1;
  uint64_t drained_epoch_ = 1;
  NetDeltaTable pending_;
  CoalesceStats coalesce_;
  std::vector<StatsSubscriber*> subscribers_;
};

}  // namespace iqro

#endif  // IQRO_STATS_STATS_REGISTRY_H_
