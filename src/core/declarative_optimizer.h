// DeclarativeOptimizer: the paper's contribution — a query optimizer whose
// state (SearchSpace / PlanCost / BestCost / BestPlan plus the RefCount and
// Bound auxiliary relations) is maintained as incrementally updatable data,
// evaluated to fixpoint by a pipelined delta engine.
//
// The datalog program it executes is R1-R10 of Appendix A plus the bounds
// rules r1-r4 of Figure 3 (see core/rules.h for the rule text and the
// dataflow of Figure 1). This class is the hand-wired, typed realization of
// that dataflow: one work queue processes enumeration deltas (SearchSpace
// insertions, R1-R5), cost deltas (PlanCost, R6-R8), best-cost aggregation
// (R9-R10), reference-count maintenance (§3.2) and recursive bounds
// (§3.3/§4.3), with no constraint on the relative order of those steps —
// the "decoupled, any-order" execution strategy of §2.3.
//
// Key semantic invariants (what makes any-order execution safe):
//  * The BestCost aggregate of an (expr, prop) pair holds exactly the
//    *derivable* PlanCost tuples — those whose children currently have a
//    best cost. Deleting a child's best cascades (counting semantics).
//  * Exploration (enumerating an alternative's children) is gated only by
//    the pruning threshold (aggregate selection / recursive bound), and is
//    monotone within one fixpoint run: gates re-open reactively whenever a
//    child's best cost drops or a threshold rises, so the fixpoint value
//    is order-independent and equals the exact dynamic-programming optimum
//    over the reachable space.
//  * Tuple source suppression and reference-counting garbage collection
//    maintain the SearchSpace *presence* accounting (what state is kept);
//    a zero reference count marks the pair's state collectible. Collected
//    state is physically evicted lazily — when a statistics update
//    arrives that would invalidate it (§4's "only recompute what might be
//    affected"), and re-derived on demand if the pair is re-referenced.
//
// Incremental re-optimization (§4): Reoptimize() drains StatChange records
// from the StatsRegistry and seeds deltas only for affected state;
// everything else is reused. ReoptimizeBatch() is the multi-query variant:
// it accepts an externally drained, coalesced change list (from a
// ReoptSession flush) and seeds every change before one fixpoint run, so a
// batch of updates costs one delta pass instead of one per change. The
// result is always identical to a fresh optimization under the new
// statistics (tested against System-R/Volcano).
// Memory layout (perf engineering): the memo's data layer is built for the
// constant factor of the delta fixpoint, whose unit of work is a memo probe
// plus a task push/pop:
//  * EPState nodes are bump-allocated from an Arena (common/arena.h) and
//    never move — the memo, the parent-link graph, and the worklist all hold
//    raw EPState pointers across memo growth. The state's destructor
//    runs ~EPState() over eps_in_order because the arena does not.
//  * The memo itself is a FlatMap64<EPState*> (common/flat_map.h), an
//    open-addressing table keyed by the packed 64-bit (RelSet, PropId) key
//    (MakeEPKey) with a multiplicative hash — one probe is a multiply, a
//    mask, and a linear scan of flat control bytes, no node chasing.
//  * Tasks are 16-byte PODs in a growable power-of-two RingBuffer
//    (common/ring_buffer.h) serving both queue disciplines — one ring for
//    initial optimization, one per |expr| level while a ReoptimizeBatch
//    pass drains bottom-up (levels; bound checks wait in a second set of
//    level rings until nothing else is pending). Duplicate tasks are
//    suppressed at enqueue time by the intrusive queued bits on
//    EPState/AltState (enumerate_queued, drive_queued, best_dirty,
//    bound_dirty), so the
//    worklist never holds two live tasks for the same (kind, ep, alt) and
//    pushes never allocate after warm-up.
//  * OptMetrics tracks the data layer too: memo_probes/memo_hits,
//    tasks_enqueued/tasks_deduped, and peak_memo_bytes (high-water estimate
//    of arena + table + per-EP vectors + aggregates, sampled at round ends).
#ifndef IQRO_CORE_DECLARATIVE_OPTIMIZER_H_
#define IQRO_CORE_DECLARATIVE_OPTIMIZER_H_

#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/flat_map.h"
#include "common/ring_buffer.h"
#include "common/scope_index.h"
#include "core/metrics.h"
#include "core/optimizer_options.h"
#include "core/plan_digest.h"
#include "cost/cost_model.h"
#include "delta/extreme_agg.h"
#include "enumerate/plan_enumerator.h"
#include "enumerate/plan_tree.h"

namespace iqro {

/// Thrown by ReoptimizeBatch when the caller-supplied `work_budget` is
/// exceeded mid-fixpoint (a runaway query under the new statistics). The
/// strong guarantee applies: by the time this escapes, the optimizer has
/// been torn down to its pre-Optimize() state — no partial fixpoint
/// survives. Distinct from the hard `max_steps` CHECK, which is a
/// correctness backstop and aborts the process.
struct WorkBudgetExceeded : public std::runtime_error {
  WorkBudgetExceeded(int64_t budget_in, int64_t steps_in)
      : std::runtime_error("fixpoint work budget exceeded: " + std::to_string(steps_in) +
                           " steps > budget " + std::to_string(budget_in)),
        budget(budget_in),
        steps(steps_in) {}
  int64_t budget;
  int64_t steps;
};

class DeclarativeOptimizer {
 public:
  /// `enumerator`, `cost_model` and `registry` must outlive the optimizer.
  /// The registry should be frozen after initial statistics are bound.
  DeclarativeOptimizer(PlanEnumerator* enumerator, const CostModel* cost_model,
                       StatsRegistry* registry,
                       OptimizerOptions options = OptimizerOptions::Default());
  ~DeclarativeOptimizer();

  DeclarativeOptimizer(const DeclarativeOptimizer&) = delete;
  DeclarativeOptimizer& operator=(const DeclarativeOptimizer&) = delete;

  /// Initial optimization: seeds the root Expr tuple and runs the fixpoint.
  ///
  /// Exception guarantee (all-or-nothing, here and in the reoptimize entry
  /// points): if the fixpoint throws — an injected fault, a bad_alloc, a
  /// WorkBudgetExceeded — the optimizer tears itself down to a consistent
  /// empty, unoptimized state (memo, arena, worklist and aggregates all
  /// released; optimized() == false) before the exception escapes. No
  /// partially applied fixpoint is ever observable; recover with
  /// RebuildFromScratch() once the cause is gone.
  void Optimize();

  /// Incremental re-optimization: drains pending StatChanges from the
  /// registry, seeds deltas for affected state only, re-runs the fixpoint.
  /// Requires Optimize() to have run.
  ///
  /// Single-consumer semantics: this drains the registry's whole pending
  /// batch. When several optimizers share one registry, calling this on one
  /// of them starves the rest — multi-query setups must flush through a
  /// service::-layer ReoptSession, which drains once and hands the same
  /// coalesced change list to every registered optimizer via
  /// ReoptimizeBatch().
  void Reoptimize();

  /// Batch variant of Reoptimize(): seeds deltas for the externally
  /// supplied (already drained, already coalesced) change list instead of
  /// draining the registry, then runs a single fixpoint over all of them —
  /// the paper's "batched updates amortize the delta pass" observation made
  /// a first-class entry point. The registry must already hold the
  /// statistics the changes describe. An empty list is a no-op. Returns the
  /// number of memo entries seeded (re-driven or evicted) — 0 means the
  /// batch could not affect this query's plan space.
  ///
  /// The pass drains bottom-up: tasks run in ascending |expr| order, the
  /// queue discipline ordering them only within one level, so an entry is
  /// re-driven after the affected entries below it have settled. The
  /// result does not depend on the order (CanonicalDumpState is
  /// history-free); the step count does.
  ///
  /// `stats_epoch` is the registry epoch the drained batch reflects
  /// (StatsRegistry::DrainedBatch::epoch); 0 reads the registry's live
  /// epoch.
  ///
  /// `work_budget` > 0 caps this call's fixpoint task count
  /// (OptMetrics::round_steps); exceeding it throws WorkBudgetExceeded.
  /// 0 means unbudgeted. Either way a throw leaves the optimizer torn down
  /// per the Optimize() exception guarantee — the ReoptSession quarantines
  /// the query and later restores it via RebuildFromScratch().
  int64_t ReoptimizeBatch(const std::vector<StatChange>& changes, uint64_t stats_epoch = 0,
                          int64_t work_budget = 0);

  /// Recovery entry point: discards all optimizer state (the teardown the
  /// exception path runs) and re-optimizes from scratch against the
  /// registry's *current* statistics. By the incremental ≡ from-scratch
  /// equivalence this lands on exactly the state an optimizer that never
  /// failed — and incrementally applied every drained batch — would hold,
  /// which is what lets a quarantined query rejoin a session losslessly.
  /// Safe to call in any state (optimized or torn down).
  void RebuildFromScratch();

  /// Discards all optimizer state (same teardown the exception path runs)
  /// WITHOUT re-optimizing: optimized() becomes false and stays false until
  /// Optimize()/RebuildFromScratch(). The ReoptSession uses this to pin a
  /// query whose pass failed *outside* the fixpoint (so the optimizer was
  /// not self-torn-down) into the one canonical quarantined state — never
  /// serve a plan that may have missed a drained batch. A shared state is
  /// torn down for every optimizer that shares it.
  void Invalidate() { TearDown(); }

  /// Serializes the complete fixpoint state — every memo pair in insertion
  /// order with its enumeration/liveness flags, alternative costs and bound
  /// contributions, plus parent-link order — into a compact, deterministic
  /// byte seed (common/serialize.h). Requires optimized(). The seed is what
  /// the ReoptSession's eviction budget spills a dormant query to, and what
  /// a service snapshot persists per query: RestoreState() on an optimizer
  /// over the *same world at the same statistics* reconstructs a memo that
  /// is byte-identical in every observable (DumpState, CanonicalDumpState,
  /// metrics-bearing aggregates) to the one serialized.
  void SerializeState(std::string* out) const;

  /// Rebuilds the fixpoint state from a SerializeState() seed, replacing
  /// whatever state the optimizer holds (TearDown() first). `stats_epoch`
  /// stamps the registry epoch the seed's costs reflect (0 reads the
  /// registry's live epoch). The restore is all-or-nothing: any structural
  /// mismatch (wrong world, wrong options, truncated/corrupt payload)
  /// throws SerializeError with the optimizer torn down to the canonical
  /// empty state — recover with RebuildFromScratch(). The restored memo
  /// satisfies ValidateInvariants() by construction: aggregates, refcounts,
  /// propagated bests/bounds and the exact agg-entry accounting are all
  /// rederived, and the work queue is empty.
  void RestoreState(const std::string& payload, uint64_t stats_epoch = 0);

  // ---- shared fixpoint state (docs/ARCHITECTURE.md "Memo sharing") ----

  /// True when this optimizer and `other` ask the same question: the same
  /// enumerator (query and plan space), the same registry, equal options,
  /// and cost models over that registry with equal CostParams. Their
  /// fixpoints are then identical at every statistics state, so one memo
  /// can serve both. The cost models need not be the same object.
  bool CanShareStateWith(const DeclarativeOptimizer& other) const;

  /// Drops this optimizer's own fixpoint state and from now on reads and
  /// writes `other`'s (requires CanShareStateWith). Every entry point of
  /// either optimizer then acts on the one shared memo: a pass run through
  /// one is visible through the other, and so is a teardown. A pass uses
  /// the calling optimizer's cost model, which the equivalence check makes
  /// value-identical.
  void ShareStateWith(const DeclarativeOptimizer& other);

  /// True when this optimizer and `other` read one fixpoint state.
  bool SharesStateWith(const DeclarativeOptimizer& other) const {
    return state_ == other.state_;
  }

  /// Gives this optimizer a private, exact copy of a shared state (the
  /// SerializeState/RestoreState round trip; OptMetrics are copied too), so
  /// nothing done to it afterwards reaches its former peers. A no-op when
  /// the state is not shared. A torn-down state detaches as a fresh empty
  /// one; a copy that fails to allocate leaves the private state torn down.
  void DetachState();

  /// Points this optimizer's summary calculator at a cross-query shared
  /// cache (stats/summary.h): summaries computed by any optimizer over the
  /// same registry become visible to all of them, keyed by registry epoch.
  /// The calculator's registry must be this optimizer's registry — summary
  /// values depend only on registry state, which is what makes sharing
  /// across calculators sound. Called by ReoptSession::Register; pass
  /// nullptr to detach.
  void AttachSharedSummaryCache(SummarySharedCache* shared);

  /// True once Optimize() has run (the precondition of the reoptimize
  /// entry points and of ReoptSession::Register).
  bool optimized() const { return state_->optimized; }

  /// The query's full relation set (every EP expression is a subset): the
  /// cheap whole-query prefilter for "can this StatChange affect me at
  /// all", used by the ReoptSession dispatcher.
  RelSet RootRelations() const;

  /// The registry this optimizer drains (never null; not owned).
  StatsRegistry* registry() const { return registry_; }

  /// The summary calculator this optimizer prices plans through (its cost
  /// model's; not owned).
  const SummaryCalculator& summaries() const { return cost_model_->summaries(); }

  /// Registry epoch this optimizer's state reflects (0 before Optimize()):
  /// set on every (re)optimization entry. ReoptSession::Register compares
  /// it against StatsRegistry::drained_epoch() to reject an optimizer that
  /// missed an already-drained batch (it could never catch up — those
  /// deltas are gone).
  uint64_t stats_epoch() const { return state_->stats_epoch; }

  /// Best cumulative cost of the root (expr, prop); infinity before
  /// Optimize().
  double BestCost() const;

  /// Materializes the current best plan.
  std::unique_ptr<PlanTree> GetBestPlan() const;

  const OptMetrics& metrics() const { return state_->metrics; }

  /// Freshly computed estimate of the memo's current resident footprint
  /// (the quantity peak_memo_bytes is the high-water mark of). O(#EPs);
  /// exposed for tests of the peak accounting.
  size_t EstimatedMemoBytes() const { return StructuralBytes() + PerEpBytes(); }

  // ---- end-state inspection (evaluation harness) ----
  int64_t NumLiveEps() const;       // plan-table entries currently maintained
  int64_t NumActiveAlts() const;    // SearchSpace rows currently present
  int64_t NumViableAlts() const;    // alternatives that ever won their group
  int64_t NumCostedAlts() const;    // alternatives with a derivable PlanCost
  /// Level buckets of the batch worklist: 0 until the first non-empty
  /// ReoptimizeBatch, |root expr| + 1 after it, 0 again after a teardown.
  size_t NumLevelBuckets() const { return state_->levels.size(); }

  /// Renders the raw memo (SearchSpace/PlanCost/BestCost/Bound) for
  /// debugging. Ordering guarantee: entries appear in memo *insertion*
  /// order (eps_in_order), never in hash-table order — two optimizers with
  /// identical histories dump byte-identically, but the output DOES depend
  /// on allocation history (it includes suppressed and dormant state, in
  /// the order it was first enumerated). For history-independent
  /// comparison use CanonicalDumpState().
  std::string DumpState() const;

  /// Renders the semantic fixpoint state only — the winner closure: every
  /// (expr, prop) pair reachable from the root through BestCost-winning
  /// alternatives, sorted by (|expr|, expr, resolved property), each with
  /// its BestCost value and winning row. Two things are deliberately
  /// projected away because they depend on execution history, not on the
  /// fixpoint: bare SearchSpace presence of rows whose cost support was
  /// pruned (retraction is lazy), and derivable PlanCosts of *equal*-cost
  /// losers (the paper's Proposition 5 assumes distinct costs; whether a
  /// tie survives suppression depends on cost arrival order). The
  /// projection is also independent of memo allocation history and of the
  /// PropTable's interning order, so an incremental optimizer and a
  /// from-scratch optimizer at the same statistics (and the same pruning
  /// options) must produce byte-identical output — the equality the
  /// differential harness asserts (§4's "identical to a fresh
  /// optimization"). Rendered from ComputePlanDigest()'s nodes.
  std::string CanonicalDumpState() const;

  /// The winner closure as structured data (core/plan_digest.h): node
  /// content, winners, raw costs and the join order, which the service
  /// layer's plan-change notifications diff. No text is formatted;
  /// PlanDigest::SamePlan holds exactly when the CanonicalDumpState()
  /// renderings of the two states would compare equal.
  PlanDigest ComputePlanDigest() const;

  /// Asserts internal invariants at a fixpoint; used heavily by tests.
  void ValidateInvariants() const;

  const OptimizerOptions& options() const { return options_; }

 private:
  struct EPState;

  // A parent link: alternative `alt_idx` of `ep` references the linked
  // child on `side` (0 = left, 1 = right). Links are permanent once the
  // alternative is enumerated; they carry delta propagation.
  struct ParentRef {
    EPState* ep;
    uint32_t alt_idx;
    uint8_t side;
  };

  static constexpr double kNoContribution = std::numeric_limits<double>::quiet_NaN();
  /// Sentinel for "no BestCost winner propagated yet" (empty aggregate).
  static constexpr uint32_t kNoWinner = 0xFFFFFFFFu;

  struct AltState {
    Alt def;
    bool active = false;       // present in SearchSpace (not suppressed)
    bool cost_known = false;   // PlanCost tuple currently derivable
    bool ever_costed = false;  // metrics: ever had a full PlanCost
    bool ever_active = false;  // distinguishes first activation from re-introduction
    bool ever_won = false;     // metrics: ever was the group's minimum
    bool drive_queued = false;
    // What the last drive that reached the pruning gate decided: whether
    // the alternative survived aggregate selection and whether its right
    // child's exploration gate was open. A threshold or winner move that
    // changes neither needs no re-drive (see RecheckDrives).
    bool decided = false;
    bool last_viable = false;
    bool last_right_gate = false;
    // The gate inputs that drive decided on: its certain cost, its left
    // prefix cost (local + left best; infinity while the left best is
    // unknown) and whether every child's best was known. A drive's inputs
    // schedule it when they change, so a re-check of an unqueued decided
    // alternative reads them here instead of from its children.
    bool gate_full = false;
    double gate_cert = 0;
    double gate_left = 0;
    double cost = 0;           // current PlanCost (valid iff cost_known)
    uint32_t touched_round = 0;
    EPState* child[2] = {nullptr, nullptr};  // resolved child pairs
    // LocalCost cache, valid for one registry epoch.
    double local_cost = 0;
    uint64_t local_epoch = 0;
    // Last ParentBound contribution pushed to each child, NaN when none is
    // registered: lets UpdateAltContributions skip the child's bound-table
    // probe when the recomputed contribution is unchanged — the common case
    // on re-drives. NaN compares unequal to everything, so "none" always
    // re-pushes.
    double last_contrib[2] = {kNoContribution, kNoContribution};
  };

  struct EPState {
    RelSet expr = 0;
    PropId prop = kPropNone;
    uint32_t id = 0;  // dense id for bound-contribution keys
    bool enumerated = false;
    bool ever_live = false;
    /// Physically evicted, collected state: not maintained until a parent
    /// demands it again (or it is resurrected by a reference).
    bool dormant = false;
    int refcount = 0;  // active parent alternatives referencing this pair
    std::vector<AltState> alts;
    std::vector<ParentRef> parents;
    /// BestCost aggregate: all derivable PlanCost tuples (id = alt index).
    ExtremeAgg<uint32_t> best_agg;
    /// MaxBound aggregate: ParentBound contributions (id = packed parent
    /// alt key). Only populated when bounding is on.
    ExtremeAgg<uint64_t> parent_bounds;
    double last_best = 0;   // last propagated BestCost (infinity if none)
    double last_bound = 0;  // last propagated Bound (infinity if none)
    /// Winning alternative behind last_best (kNoWinner if none). Tracked
    /// separately because the winner can move between bit-identical costs
    /// without a value delta, and viability keys on the winning entry.
    uint32_t last_best_idx = kNoWinner;
    bool best_dirty = false;
    bool bound_dirty = false;
    bool enumerate_queued = false;
    uint32_t touched_round = 0;
    /// Round stamp for seeding dedup: an EP matched by several changes of
    /// one batch is seeded once (see ReoptimizeBatchImpl).
    uint32_t seed_mark = 0;
    /// Round stamps of the first and second propagated BestCost change in
    /// a round: round_rebest_eps counts each entry once, at its second.
    uint32_t best_round = 0;
    uint32_t rebest_round = 0;

    bool live(bool use_ref_counting) const {
      return use_ref_counting ? refcount > 0 : ever_live;
    }
  };

  /// The bottom-up seeding order: (|expr|, prop != none, insertion id).
  /// Children precede parents; an expression's (expr, none) entry precedes
  /// its sorted variants, whose enforcers reference it.
  static bool SeedOrderLess(const EPState* a, const EPState* b) {
    const int pa = RelCount(a->expr);
    const int pb = RelCount(b->expr);
    if (pa != pb) return pa < pb;
    const bool sa = a->prop != kPropNone;
    const bool sb = b->prop != kPropNone;
    if (sa != sb) return sb;  // (expr, none) precedes (expr, sorted)
    return a->id < b->id;
  }

  struct Task {
    enum class Kind : uint8_t { kEnumerate, kDrive, kBestDirty, kBoundDirty };
    Kind kind;
    EPState* ep;
    uint32_t alt_idx;
  };

  // ---- state access ----
  EPState* GetOrCreateEP(RelSet expr, PropId prop);
  EPState* FindEP(RelSet expr, PropId prop) const;
  EPState* ChildEP(const AltState& alt, int side) const;
  bool Live(const EPState& ep) const { return ep.live(options_.use_ref_counting); }

  /// Current pruning threshold of `ep`: Bound (r4) when bounding is on,
  /// BestCost when only aggregate selection is on, +infinity otherwise.
  double Threshold(const EPState& ep) const;
  double CurrentBound(const EPState& ep) const;  // min(BestCost, MaxBound)

  // ---- entry-point internals ----
  void OptimizeImpl();
  int64_t ReoptimizeBatchImpl(const std::vector<StatChange>& changes, uint64_t stats_epoch,
                              int64_t work_budget);
  /// Destroys every piece of fixpoint state (memo, arena, worklist,
  /// ordering caches) and returns to the pre-Optimize() configuration —
  /// for every optimizer sharing the state. The exception-path half of the
  /// strong guarantee.
  void TearDown();

  // ---- fixpoint tasks ----
  void Drain();
  void Push(Task t);
  /// The queue Drain() pops from next, or null when the worklist is empty:
  /// the single ring, or during a batch the lowest non-empty level bucket,
  /// and once those are all empty the lowest non-empty bound bucket.
  RingBuffer<Task>* NextQueue();
  void ScheduleEnumerate(EPState* ep);
  void ScheduleDrive(EPState* ep, uint32_t alt_idx);
  void ScheduleBestDirty(EPState* ep);
  void ScheduleBoundDirty(EPState* ep);

  /// RunDrive's threshold-dependent decisions for alternative `alt_idx`
  /// under threshold `thr` and the group's current minimum entry, from the
  /// gate inputs its last drive recorded (AltState::gate_*): survival under
  /// aggregate selection, the right child's exploration gate, and whether
  /// it is the minimum.
  struct GateDecision {
    bool viable = true;
    bool right_gate = false;
    bool is_min = false;
  };
  GateDecision DecideGate(const AltState& a, uint32_t alt_idx, double thr,
                          std::pair<double, uint32_t> min_entry) const {
    GateDecision d;
    if (options_.use_agg_selection) {
      d.is_min = a.cost_known && min_entry.second == alt_idx && min_entry.first == a.cost;
      d.viable = d.is_min || a.gate_cert < thr;
    }
    d.right_gate = a.def.NumChildren() == 2 &&
                   (!options_.use_source_suppression || a.gate_left < thr || a.gate_full);
    return d;
  }
  /// A move of `ep`'s threshold or winner, or its return to liveness
  /// (`liveness_changed`), re-checks its alternatives. It drives only those
  /// whose drive the move can change: every other input of a drive (local
  /// cost, children's bests) schedules it directly when it changes, so an
  /// unqueued alternative's inputs are the ones its last drive saw, and the
  /// move matters only through the gate decisions — and, for a pair that
  /// came back to life, through the presence of its viable alternatives.
  void RecheckDrives(EPState* ep, bool liveness_changed = false);

  void RunEnumerate(EPState* ep);
  void RunDrive(EPState* ep, uint32_t alt_idx);
  void RunBestDirty(EPState* ep);
  void RunBoundDirty(EPState* ep);

  // ---- alternative lifecycle ----
  /// Local (root-operator) cost of an alternative, always fresh.
  double LocalCost(const EPState& ep, const Alt& alt) const;
  /// Epoch-cached variant used on the hot paths.
  double CachedLocalCost(const EPState& ep, AltState& alt) const;
  /// Requests (re-)derivation of a child pair's plans.
  void DemandChild(EPState* child);
  /// Adjusts child reference counts when an alternative's SearchSpace
  /// presence flips.
  void AltPresenceRefs(EPState* ep, uint32_t alt_idx, int delta);
  void RefUp(EPState* child);
  void RefDown(EPState* child);
  void OnDeath(EPState* ep);   // refcount hit zero: silent presence teardown
  void Evict(EPState* ep);     // physical deletion of collected, stale state

  // ---- recursive bounding (r1-r4) ----
  uint64_t ContributionKey(const EPState& parent, uint32_t alt_idx, int side) const;
  void UpdateAltContributions(EPState* ep, uint32_t alt_idx);
  void RemoveAltContributions(EPState* ep, uint32_t alt_idx);

  void Touch(EPState* ep);
  void Touch(EPState* ep, uint32_t alt_idx);

  /// Per-EP heap footprint (alt/parent vector capacities + aggregate
  /// entries, the latter estimated): the O(#EPs) walk behind the peak
  /// counter. PerEpVectorBytes is the capacity-only term; PerEpBytes adds
  /// the aggregate entries, re-counted from the memo (so callers comparing
  /// it against the peak independently cross-check agg_entries).
  size_t PerEpVectorBytes() const;
  size_t PerEpBytes() const;
  /// O(1)-ish footprint terms: arena blocks, flat table, order vector,
  /// scope index, seed scratch, queue and level buckets.
  size_t StructuralBytes() const;
  void UpdatePeakMemoBytes();

  /// Everything a fixpoint pass reads and writes, behind one refcounted
  /// pointer so equivalent optimizers can share it (ShareStateWith). The
  /// configuration members of the optimizer (enumerator, cost model,
  /// registry, options) stay per optimizer.
  struct State {
    State();
    ~State();
    State(const State&) = delete;
    State& operator=(const State&) = delete;
    /// Destroys the memo, arena, worklist and ordering caches and returns
    /// to the pre-Optimize() configuration (metrics and round survive).
    void Clear();

    OptMetrics metrics;
    Arena arena;                    // owns EPState storage (addresses stable)
    FlatMap64<EPState*> memo;       // packed (RelSet, PropId) -> arena node
    std::vector<EPState*> eps_in_order;  // insertion order, for deterministic walks
    RingBuffer<Task> queue;
    // The batch worklist, used while by_level (see ReoptimizeBatchImpl): one
    // bucket per |expr| level of the query, allocated on the first non-empty
    // batch and released by Clear(), so a state that is only ever
    // Optimize()d pays nothing for them.
    std::vector<RingBuffer<Task>> levels;
    size_t level_cursor = 0;  // no bucket below it holds a task
    // The batch's bound checks, bucketed by level too and drained only
    // once no other task is pending: a pair's bound then moves once its
    // best and the costs below it have settled, not at every step of
    // theirs. Bottom-up like the rest (draining them top-down reaches a
    // different fixpoint on some scenarios; see CHANGES.md).
    std::vector<RingBuffer<Task>> bound_levels;
    size_t bound_cursor = 0;  // no bucket below it holds a task
    bool by_level = false;
    EPState* root = nullptr;
    bool optimized = false;
    uint32_t round = 0;
    uint64_t stats_epoch = 0;  // registry epoch the current state reflects

    // Seeding index: every memo pair keyed by its expression, so a batch of
    // StatChanges enumerates exactly the candidate EPs (supersets of a
    // cardinality scope; exact matches of a scan-cost scope) instead of
    // walking the whole memo. Maintained incrementally in GetOrCreateEP;
    // dormant pairs stay indexed because stale collected state is
    // physically evicted by the seeding pass that invalidates it.
    ScopeSubsetIndex<EPState*> scope_index;
    // Scratch for the affected set of one batch (avoids a heap vector per
    // flush); sorted into the legacy bottom-up seeding order before seeding.
    std::vector<EPState*> seed_scratch;
    // Dense-batch fallback order: all pairs presorted by (|expr|, prop !=
    // none, id) — the bottom-up seeding order — rebuilt lazily on memo
    // growth, so a full-scan seeding pass pays no per-flush sort. The
    // sparse path sorts its (small) affected set instead and never touches
    // this.
    std::vector<EPState*> reopt_order;
    bool reopt_order_stale = false;
    // Peak-bytes accounting, O(1) per round. The per-EP footprint has two
    // parts with different churn rates: vector capacities (alts/parents),
    // which only grow on structural events — new pair, first-time
    // enumeration — and aggregate entries, which insert and erase on every
    // re-drive. The vector walk is cached keyed on memo_growth_gen (bumped
    // by exactly those structural events); aggregate entries are counted
    // exactly and incrementally (agg_entries, ±1 at every
    // Set-growth/Erase/Clear site), so oscillating churn that re-admits
    // entries advances the peak without ever re-walking the memo.
    int64_t memo_growth_gen = 0;
    int64_t per_ep_walk_key = -1;
    size_t per_ep_vector_bytes_cache = 0;
    int64_t agg_entries = 0;  // live best_agg + parent_bounds entries, exact
    // RunEnumerate scratch (avoids a heap vector per task).
    std::vector<std::pair<double, uint32_t>> enum_scratch;
  };

  PlanEnumerator* enumerator_;
  const CostModel* cost_model_;
  StatsRegistry* registry_;
  OptimizerOptions options_;
  int64_t work_budget_ = 0;  // per-call cap on round_steps; 0 = unbudgeted
  // Per relation slot, the first slot with the same alias: the folding
  // that makes PlanDigestOp property equality match the dump's rendering.
  std::vector<int> alias_slot_;
  std::shared_ptr<State> state_;
};

}  // namespace iqro

#endif  // IQRO_CORE_DECLARATIVE_OPTIMIZER_H_
