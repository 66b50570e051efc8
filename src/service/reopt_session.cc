#include "service/reopt_session.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/serialize.h"
#include "service/snapshot.h"

namespace iqro {

ReoptSession::ReoptSession(StatsRegistry* registry, ReoptSessionOptions options)
    : registry_(registry), options_(std::move(options)),
      alive_(std::make_shared<bool>(true)) {
  IQRO_CHECK(registry_ != nullptr);
  IQRO_CHECK(options_.per_query_work_budget >= 0);
  IQRO_CHECK(options_.quarantine_max_strikes >= 1);
  IQRO_CHECK(options_.quarantine_backoff_base_ticks >= 1);
  IQRO_CHECK(options_.quarantine_backoff_cap_ticks >=
             options_.quarantine_backoff_base_ticks);
  registry_->Subscribe(this);
}

ReoptSession::~ReoptSession() {
  // Registered optimizers outlive the session, the summary store does not:
  // detach every remaining calculator before it goes away.
  for (Slot& slot : queries_) slot.optimizer->AttachSharedSummaryCache(nullptr);
  // Flip the handle liveness token next: a handle destroyed after this
  // point must no-op instead of calling back into a dying session.
  *alive_ = false;
  registry_->Unsubscribe(this);
}

ReoptSession::QueryId ReoptSession::RegisterImpl(DeclarativeOptimizer* optimizer,
                                                 PlanSubscriber* subscriber) {
  IQRO_CHECK(optimizer != nullptr);
  // Growing queries_ mid-notification would invalidate the event walk; the
  // reentrancy rules forbid it (docs/API.md).
  IQRO_CHECK(!notifying_);
  // The session dispatches drained change lists; an optimizer wired to a
  // different registry would be seeded with deltas its statistics never
  // saw, and an un-optimized one has no state to maintain.
  IQRO_CHECK(optimizer->registry() == registry_);
  IQRO_CHECK(optimizer->optimized());
  // An optimizer whose fixpoint predates the last drain missed deltas that
  // are gone for good: future flushes would leave it silently stale
  // forever. Pending-but-undrained changes are fine (the next flush seeds
  // them), as is being *ahead* of the last drain.
  IQRO_CHECK(optimizer->stats_epoch() >= registry_->drained_epoch());
  Slot slot;
  slot.id = next_id_;
  slot.optimizer = optimizer;
  // Fresh registrations start "just touched" on the LRU clock: budget
  // enforcement prefers spilling genuinely dormant peers first.
  slot.last_active_tick = ticks_.load(std::memory_order_relaxed);
  if (subscriber != nullptr) {
    slot.subscriber = subscriber;
    slot.digest = optimizer->ComputePlanDigest();
  }
  queries_.push_back(std::move(slot));
  // Cross-query summary sharing: point every registered calculator at the
  // session's epoch-keyed store (sound — same registry, checked above).
  // The store is internally locked. Only attached from the second query
  // on: a single-query session has nobody to share with, so it skips the
  // store's lock traffic entirely.
  if (queries_.size() >= 2) {
    for (Slot& s : queries_) s.optimizer->AttachSharedSummaryCache(&summary_cache_);
  }
  // The resident gauge tracks the live set exactly — not just at flush
  // boundaries: a registration grows it immediately, so a monitor reading
  // metrics() between flushes never sees a stale total.
  metrics_.resident_memo_bytes = static_cast<int64_t>(ComputeResidentBytes());
  return next_id_++;
}

QueryHandle ReoptSession::Register(DeclarativeOptimizer& optimizer,
                                   PlanSubscriber* subscriber) {
  const QueryId id = RegisterImpl(&optimizer, subscriber);
  return QueryHandle(this, id, &optimizer, alive_);
}

ReoptSession::Slot* ReoptSession::FindSlot(QueryId id) {
  auto it = std::find_if(queries_.begin(), queries_.end(),
                         [id](const Slot& s) { return s.id == id; });
  return it == queries_.end() ? nullptr : &*it;
}

const ReoptSession::Slot* ReoptSession::FindSlot(QueryId id) const {
  auto it = std::find_if(queries_.begin(), queries_.end(),
                         [id](const Slot& s) { return s.id == id; });
  return it == queries_.end() ? nullptr : &*it;
}

QueryState ReoptSession::query_state(QueryId id) const {
  const Slot* slot = FindSlot(id);
  IQRO_CHECK(slot != nullptr);
  return slot->state;
}

int ReoptSession::num_quarantined() const {
  int n = 0;
  for (const Slot& s : queries_) n += s.state == QueryState::kQuarantined ? 1 : 0;
  return n;
}

int ReoptSession::num_parked() const {
  int n = 0;
  for (const Slot& s : queries_) n += s.state == QueryState::kParked ? 1 : 0;
  return n;
}

void ReoptSession::UnregisterImpl(QueryId id) {
  Slot* slot = FindSlot(id);
  IQRO_CHECK(slot != nullptr);
  if (notifying_) {
    // Unregistration from inside a subscriber callback is DEFERRED to the
    // end of the in-flight flush: the flush's remaining events (including
    // this query's own, if still queued) fire against a stable slot list,
    // and the query stops being dispatched from the next flush on.
    IQRO_CHECK(std::find(deferred_unregister_.begin(), deferred_unregister_.end(), id) ==
               deferred_unregister_.end());
    deferred_unregister_.push_back(id);
    return;
  }
  // The summary store dies with the session; the optimizer may not.
  slot->optimizer->AttachSharedSummaryCache(nullptr);
  queries_.erase(queries_.begin() + (slot - queries_.data()));
  // Down to one query: nobody left to share with — detach the survivor so
  // it stops paying the shared store's lock traffic.
  if (queries_.size() == 1) {
    queries_.front().optimizer->AttachSharedSummaryCache(nullptr);
  }
  // Shrink the resident gauge NOW, not at the next dispatched flush: a
  // release followed by a coalesced-to-empty flush used to leave the dead
  // query's memo counted until the next real dispatch ran budget
  // enforcement (and a release while over budget could evict a live peer
  // on the strength of bytes that no longer exist).
  metrics_.resident_memo_bytes = static_cast<int64_t>(ComputeResidentBytes());
  RefreshQuarantineIndex();
}

void ReoptSession::SetSubscriber(QueryId id, PlanSubscriber* subscriber) {
  Slot* slot = FindSlot(id);
  IQRO_CHECK(slot != nullptr);
  slot->subscriber = subscriber;
  // Every (re)subscription is a new generation: a pending event computed
  // for an older generation never delivers, even to the same pointer. Any
  // pending rediff dies with the old subscription (the new baseline is
  // captured fresh below).
  ++slot->subscription_gen;
  slot->rediff_pending = false;
  if (subscriber != nullptr && slot->state == QueryState::kHealthy && !slot->evicted) {
    // The plan as of *now* is the baseline: the first event this
    // subscriber sees describes a change relative to the plan it attached
    // under, never a replay of older history.
    slot->digest = slot->optimizer->ComputePlanDigest();
  } else {
    // Detach — or an attach to a quarantined/evicted query, whose
    // torn-down optimizer has no plan to baseline against: the empty
    // digest plus the forced re-diff (at rehabilitation, or at the
    // rehydrating flush) makes the first post-recovery event describe
    // everything since attach.
    slot->digest = PlanDigest{};
    if (subscriber != nullptr && slot->evicted) {
      // The pending re-diff also *triggers* the rehydration: the next
      // flush restores the memo and re-derives the digest even when its
      // batch cannot affect this query.
      slot->rediff_pending = true;
    }
  }
}

ReoptSession::PassResult ReoptSession::RunPass(DeclarativeOptimizer* optimizer,
                                               const std::vector<StatChange>& changes,
                                               uint64_t epoch, bool want_digest,
                                               bool force_digest) {
  IQRO_FAULT_POINT("service.pass");
  PassResult r;
  r.dispatched = true;
  // Whole-query prefilter: a change can only matter to a query whose
  // relation set contains the change's scope. (Per-EP filtering inside
  // ReoptimizeBatch handles the precise subset tests.)
  const RelSet root = optimizer->RootRelations();
  r.affected = std::any_of(changes.begin(), changes.end(), [root](const StatChange& c) {
    return RelIsSubset(c.scope, root);
  });
  const int64_t enqueued_before = optimizer->metrics().tasks_enqueued;
  if (!r.affected) {
    // The skip itself proves this optimizer's state reflects the new
    // statistics — its canonical plan cannot have changed, so normally no
    // digest is recomputed either. An empty batch stamps its stats epoch
    // (otherwise a later Register() would reject it as having missed this
    // drain); no work budget — it does no fixpoint work.
    static const std::vector<StatChange> kEmpty;
    optimizer->ReoptimizeBatch(kEmpty, epoch);
    if (want_digest && force_digest) {
      // A prior flush left this slot's baseline unsettled (a throwing
      // subscriber dropped its event, or a rehabilitation restored the
      // optimizer): re-derive the digest so the dropped change is
      // re-detected NOW, not only at some future flush that happens to
      // touch this query's relations.
      r.digest = optimizer->ComputePlanDigest();
      r.digest_computed = true;
    }
    ++metrics_.queries_skipped;
    return r;
  }
  const int64_t eps_seeded =
      optimizer->ReoptimizeBatch(changes, epoch, options_.per_query_work_budget);
  if (want_digest) {
    r.digest = optimizer->ComputePlanDigest();
    r.digest_computed = true;
  }
  // Aggregated only once the whole pass, digest included, has returned: a
  // pass that throws is quarantined and counts toward nothing.
  const OptMetrics& m = optimizer->metrics();
  metrics_.eps_seeded += eps_seeded;
  ++metrics_.reopt_passes;
  ++last_flush_.passes;
  last_flush_.eps_seeded += eps_seeded;
  last_flush_.eps_scanned += m.round_eps_scanned;
  last_flush_.fixpoint_steps += m.round_steps;
  last_flush_.best_changes += m.round_best_changes;
  last_flush_.rebest_eps += m.round_rebest_eps;
  last_flush_.touched_eps += m.round_touched_eps;
  last_flush_.touched_alts += m.round_touched_alts;
  last_flush_.tasks_enqueued += m.tasks_enqueued - enqueued_before;
  return r;
}

void ReoptSession::RecordStrike(Slot& slot, const std::exception_ptr& err, uint64_t epoch,
                                std::vector<ServiceEvent>* events, int64_t* strikes) {
  QueryQuarantinedEvent::Reason reason = QueryQuarantinedEvent::Reason::kException;
  std::string message = "unknown failure";
  try {
    std::rethrow_exception(err);
  } catch (const WorkBudgetExceeded& e) {
    reason = QueryQuarantinedEvent::Reason::kWorkBudget;
    message = e.what();
  } catch (const std::exception& e) {
    message = e.what();
  } catch (...) {
  }
  // A fixpoint throw already tore the optimizer down (the core's strong
  // guarantee). A failure OUTSIDE the fixpoint — digest computation, an
  // injected service-layer fault before dispatch — leaves it untorn but
  // possibly short one drained batch, which is unrecoverable incrementally
  // (the drained deltas are gone): pin it to the one canonical quarantined
  // state so nothing reads a maybe-stale plan.
  if (slot.optimizer->optimized()) slot.optimizer->Invalidate();
  slot.state = QueryState::kQuarantined;
  ++slot.strikes;
  // The digest BASELINE is kept (last plan the subscriber saw); only the
  // unsettled-event flag is dropped — no digest exists to re-diff until a
  // rebuild restores one.
  slot.rediff_pending = false;
  ++metrics_.quarantines;
  ++*strikes;
  bool parked = false;
  int64_t backoff = 0;
  if (slot.strikes >= options_.quarantine_max_strikes) {
    slot.state = QueryState::kParked;
    ++metrics_.queries_parked;
    parked = true;
  } else {
    // Capped exponential: min(cap, base * 2^(strikes-1)) ticks from now.
    backoff = options_.quarantine_backoff_base_ticks;
    for (int i = 1;
         i < slot.strikes && backoff < options_.quarantine_backoff_cap_ticks; ++i) {
      backoff *= 2;
    }
    backoff = std::min(backoff, options_.quarantine_backoff_cap_ticks);
    slot.eligible_at_tick = ticks_.load(std::memory_order_relaxed) + backoff;
  }
  if (slot.subscriber != nullptr) {
    ServiceEvent se;
    se.kind = ServiceEvent::Kind::kQuarantined;
    se.query = slot.id;
    se.computed_gen = slot.subscription_gen;
    se.quarantined.query_id = slot.id;
    se.quarantined.optimizer = slot.optimizer;
    se.quarantined.flush_epoch = epoch;
    se.quarantined.flush_index = metrics_.flushes;
    se.quarantined.reason = reason;
    se.quarantined.message = std::move(message);
    se.quarantined.strikes = slot.strikes;
    se.quarantined.parked = parked;
    se.quarantined.retry_in_ticks = backoff;
    events->push_back(std::move(se));
  }
}

void ReoptSession::AttemptRehabs(uint64_t epoch, std::vector<ServiceEvent>* events,
                                 int64_t* strikes, int64_t* rehabs) {
  const int64_t tick = ticks_.load(std::memory_order_relaxed);
  if (quarantined_count_.load(std::memory_order_relaxed) == 0 ||
      next_rehab_tick_.load(std::memory_order_relaxed) > tick) {
    return;
  }
  for (Slot& slot : queries_) {
    if (slot.state != QueryState::kQuarantined || slot.eligible_at_tick > tick) continue;
    try {
      // Same freeze the dispatch window uses: the rebuild reads the
      // statistics values directly, so racing mutators must wait. Taken
      // per rebuild so a long rebuild chain doesn't starve mutators of
      // the whole window at once.
      auto stats_frozen = registry_->ReaderLock();
      slot.optimizer->RebuildFromScratch();
      slot.state = QueryState::kHealthy;
      const int cleared = slot.strikes;
      slot.strikes = 0;
      slot.eligible_at_tick = 0;
      ++metrics_.rehabilitations;
      ++*rehabs;
      if (slot.subscriber != nullptr) {
        // The pre-quarantine baseline was kept: force a re-diff so THIS
        // flush fires exactly one PlanChangeEvent iff the rebuilt plan
        // differs from the last one the subscriber actually saw.
        slot.rediff_pending = true;
        ServiceEvent se;
        se.kind = ServiceEvent::Kind::kRehabilitated;
        se.query = slot.id;
        se.computed_gen = slot.subscription_gen;
        se.rehabilitated.query_id = slot.id;
        se.rehabilitated.optimizer = slot.optimizer;
        se.rehabilitated.flush_epoch = epoch;
        se.rehabilitated.flush_index = metrics_.flushes;
        se.rehabilitated.strikes_cleared = cleared;
        events->push_back(std::move(se));
      }
    } catch (...) {
      // The rebuild itself failed (Optimize tore down again): another
      // strike, deeper backoff — or the parking lot.
      RecordStrike(slot, std::current_exception(), epoch, events, strikes);
    }
  }
  RefreshQuarantineIndex();
}

void ReoptSession::RefreshQuarantineIndex() {
  int64_t n = 0;
  int64_t next = std::numeric_limits<int64_t>::max();
  for (const Slot& s : queries_) {
    if (s.state != QueryState::kQuarantined) continue;
    ++n;
    next = std::min(next, s.eligible_at_tick);
  }
  quarantined_count_.store(n, std::memory_order_relaxed);
  next_rehab_tick_.store(next, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Memo lifecycle: eviction budget + rehydration + snapshot/warm-restart
// ---------------------------------------------------------------------------

void ReoptSession::EvictSlot(Slot& slot) {
  slot.seed.clear();
  slot.optimizer->SerializeState(&slot.seed);
  slot.seed_epoch = slot.optimizer->stats_epoch();
  slot.optimizer->Invalidate();
  slot.evicted = true;
  // The digest BASELINE is kept, exactly as for a quarantine: rehydration
  // restores the identical plan, so the next diff describes only changes
  // the subscriber has not seen. An unsettled re-diff stays pending — it
  // will trigger (and be satisfied by) the rehydrating flush.
  ++metrics_.evictions;
}

bool ReoptSession::RehydrateSlot(Slot& slot, uint64_t epoch,
                                 std::vector<ServiceEvent>* events, int64_t* strikes) {
  try {
    // Same statistics freeze the rehab rebuilds use: the fallback rebuild
    // reads the statistics values directly. (The seed restore itself reads
    // only the payload, but holding the lock across both keeps the two
    // paths indistinguishable to racing mutators.)
    auto stats_frozen = registry_->ReaderLock();
    try {
      slot.optimizer->RestoreState(slot.seed, slot.seed_epoch);
    } catch (const SerializeError&) {
      // Seed unusable (corruption, an options change since eviction): the
      // from-scratch path is the fallback, never an outage. The restore
      // already tore back down, so the rebuild starts clean.
      slot.optimizer->RebuildFromScratch();
    }
    slot.evicted = false;
    slot.seed.clear();
    slot.seed.shrink_to_fit();
    slot.seed_epoch = 0;
    slot.last_active_tick = ticks_.load(std::memory_order_relaxed);
    ++metrics_.rehydrations;
    return true;
  } catch (...) {
    // Even the rebuild failed: this is a failed rebuild like any other —
    // the query leaves eviction into quarantine (its seed is gone; the
    // rehab path owns recovery from here).
    slot.evicted = false;
    slot.seed.clear();
    slot.seed.shrink_to_fit();
    slot.seed_epoch = 0;
    RecordStrike(slot, std::current_exception(), epoch, events, strikes);
    return false;
  }
}

size_t ReoptSession::ComputeResidentBytes() const {
  size_t total = 0;
  for (const Slot& s : queries_) {
    if (s.state == QueryState::kHealthy && !s.evicted && s.optimizer->optimized()) {
      total += s.optimizer->EstimatedMemoBytes();
    }
  }
  return total;
}

void ReoptSession::EnforceMemoBudget(int64_t* evictions_this_flush) {
  size_t resident = ComputeResidentBytes();
  if (options_.memo_byte_budget > 0) {
    while (resident > options_.memo_byte_budget) {
      // LRU victim: the evictable query least recently affected by a
      // flush (ties break toward the earliest registration — stable and
      // deterministic, which the differential harness relies on).
      Slot* victim = nullptr;
      for (Slot& s : queries_) {
        if (s.state != QueryState::kHealthy || s.evicted || !s.optimizer->optimized()) {
          continue;
        }
        if (victim == nullptr || s.last_active_tick < victim->last_active_tick) {
          victim = &s;
        }
      }
      if (victim == nullptr) break;  // nothing left to spill
      const size_t bytes = victim->optimizer->EstimatedMemoBytes();
      EvictSlot(*victim);
      if (evictions_this_flush != nullptr) ++*evictions_this_flush;
      resident -= std::min(resident, bytes);
    }
  }
  metrics_.resident_memo_bytes = static_cast<int64_t>(resident);
}

bool ReoptSession::EvictQuery(QueryId id) {
  IQRO_CHECK(!notifying_);
  Slot* slot = FindSlot(id);
  IQRO_CHECK(slot != nullptr);
  if (slot->state != QueryState::kHealthy || slot->evicted ||
      !slot->optimizer->optimized()) {
    return false;
  }
  EvictSlot(*slot);
  metrics_.resident_memo_bytes = static_cast<int64_t>(ComputeResidentBytes());
  return true;
}

bool ReoptSession::RehydrateQuery(QueryId id) {
  IQRO_CHECK(!notifying_);
  Slot* slot = FindSlot(id);
  IQRO_CHECK(slot != nullptr);
  if (!slot->evicted) return false;
  // A manual rehydration outside a flush has no batch epoch or event
  // queue; a strike it records surfaces through query_state() and the
  // next flush's rehab schedule (the events vector is dropped — there is
  // no delivery phase to fire it from).
  std::vector<ServiceEvent> events;
  int64_t strikes = 0;
  const bool ok = RehydrateSlot(*slot, registry_->drained_epoch(), &events, &strikes);
  if (strikes > 0) RefreshQuarantineIndex();
  metrics_.resident_memo_bytes = static_cast<int64_t>(ComputeResidentBytes());
  return ok;
}

int ReoptSession::num_evicted() const {
  int n = 0;
  for (const Slot& s : queries_) n += s.evicted ? 1 : 0;
  return n;
}

namespace {

/// Section types of the session snapshot container (service/snapshot.h
/// treats them as opaque). One kStatsSection first, then one
/// kQuerySection per registered query in registration order.
constexpr uint32_t kStatsSection = 1;
constexpr uint32_t kQuerySection = 2;

/// Query-record kinds inside a kQuerySection payload.
constexpr uint8_t kQueryCold = 0;  // no memo to persist (quarantined/parked)
constexpr uint8_t kQueryWarm = 1;  // u64 stats epoch + length-prefixed seed

}  // namespace

void ReoptSession::SaveSnapshot(const std::string& path) {
  IQRO_CHECK(!notifying_);
  // Settle first: drain whatever is pending so the snapshot captures a
  // fixpoint state (every warm query exact w.r.t. the drained epoch).
  Flush();
  service::SnapshotWriter writer;
  {
    std::string stats;
    registry_->SerializeState(&stats);
    writer.AddSection(kStatsSection, std::move(stats));
  }
  for (Slot& slot : queries_) {
    std::string payload;
    ByteWriter w(&payload);
    if (slot.evicted) {
      // Already spilled: the stored seed IS the warm state.
      w.PutU8(kQueryWarm);
      w.PutU64(slot.seed_epoch);
      w.PutU64(slot.seed.size());
      w.PutBytes(slot.seed.data(), slot.seed.size());
    } else if (slot.state == QueryState::kHealthy && slot.optimizer->optimized()) {
      std::string seed;
      slot.optimizer->SerializeState(&seed);
      w.PutU8(kQueryWarm);
      w.PutU64(slot.optimizer->stats_epoch());
      w.PutU64(seed.size());
      w.PutBytes(seed.data(), seed.size());
    } else {
      // Quarantined/parked: the torn-down memo has nothing worth saving —
      // the restart rebuilds this query from scratch (and a rebuild is
      // exactly what its recovery owed it anyway).
      w.PutU8(kQueryCold);
    }
    writer.AddSection(kQuerySection, std::move(payload));
  }
  writer.WriteAtomic(path);
}

std::vector<QueryHandle> ReoptSession::LoadSnapshot(
    const std::string& path, const std::vector<DeclarativeOptimizer*>& optimizers) {
  IQRO_CHECK(!notifying_);
  IQRO_CHECK(queries_.empty());
  // The reader checksums and frames every section before returning, and
  // the record parse below touches no session state: any rejection throws
  // with the world fully intact (callers fall back to from-scratch).
  service::SnapshotReader reader(path);
  const auto& sections = reader.sections();
  if (sections.empty() || sections[0].type != kStatsSection) {
    throw SerializeError(SerializeError::Code::kBadSection,
                         "snapshot: first section is not the statistics state");
  }
  if (sections.size() - 1 != optimizers.size()) {
    throw SerializeError(SerializeError::Code::kMismatch,
                         "snapshot: holds " + std::to_string(sections.size() - 1) +
                             " queries, caller supplied " +
                             std::to_string(optimizers.size()) + " optimizers");
  }
  struct QueryRecord {
    bool warm = false;
    uint64_t epoch = 0;
    std::string seed;
  };
  std::vector<QueryRecord> records(optimizers.size());
  for (size_t i = 0; i < optimizers.size(); ++i) {
    const auto& s = sections[i + 1];
    if (s.type != kQuerySection) {
      throw SerializeError(SerializeError::Code::kBadSection,
                           "snapshot: section " + std::to_string(i + 1) +
                               " has unknown type " + std::to_string(s.type));
    }
    ByteReader r(s.payload);
    const uint8_t kind = r.GetU8();
    if (kind == kQueryWarm) {
      records[i].warm = true;
      records[i].epoch = r.GetU64();
      const uint64_t len = r.GetU64();
      const unsigned char* bytes = r.GetBytes(static_cast<size_t>(len));
      records[i].seed.assign(reinterpret_cast<const char*>(bytes),
                             static_cast<size_t>(len));
    } else if (kind != kQueryCold) {
      throw SerializeError(SerializeError::Code::kBadSection,
                           "snapshot: query record " + std::to_string(i) +
                               " has unknown kind " + std::to_string(kind));
    }
    if (!r.AtEnd()) {
      throw SerializeError(SerializeError::Code::kBadSection,
                           "snapshot: query record " + std::to_string(i) +
                               " has trailing bytes");
    }
  }
  // Everything parsed and checksummed: mutate. The registry restore
  // requires a no-subscribers window, and this session IS its standing
  // subscriber — step aside for the swap, re-attach either way.
  registry_->Unsubscribe(this);
  try {
    registry_->RestoreState(sections[0].payload);
  } catch (...) {
    registry_->Subscribe(this);
    throw;
  }
  registry_->Subscribe(this);
  std::vector<QueryHandle> handles;
  handles.reserve(optimizers.size());
  for (size_t i = 0; i < optimizers.size(); ++i) {
    DeclarativeOptimizer* optimizer = optimizers[i];
    IQRO_CHECK(optimizer != nullptr);
    IQRO_CHECK(optimizer->registry() == registry_);
    {
      auto stats_frozen = registry_->ReaderLock();
      bool restored = false;
      if (records[i].warm) {
        try {
          // Stamp the restored registry's drained epoch, not the seed's
          // capture epoch: the snapshot was taken post-flush, so a warm
          // seed is exact w.r.t. that drain (an evicted query's older
          // seed saw only batches that could not affect it — the same
          // soundness argument the rehydration path rests on).
          optimizer->RestoreState(records[i].seed, registry_->drained_epoch());
          restored = true;
        } catch (const SerializeError&) {
          // Unusable seed inside a structurally valid snapshot (an
          // options/shape change since capture): this query takes the
          // slow path; its peers stay warm.
        }
      }
      if (!restored) optimizer->RebuildFromScratch();
    }
    const QueryId id = RegisterImpl(optimizer, nullptr);
    handles.push_back(QueryHandle(this, id, optimizer, alive_));
  }
  metrics_.resident_memo_bytes = static_cast<int64_t>(ComputeResidentBytes());
  return handles;
}

size_t ReoptSession::Flush() {
  // One flush at a time: a second caller (policy reentrancy, or a
  // mutator-thread flush racing the owner's) backs off — whatever it
  // wanted drained is either in the in-flight batch or stays pending for
  // the next flush.
  if (in_flush_.exchange(true)) return 0;
  // Timed from here (drain through delivery and budget enforcement); the
  // epilogue stamps the elapsed wall time into the FlushReport.
  const auto flush_started = std::chrono::steady_clock::now();
  // RAII: an exception escaping the flush (a subscriber callback's throw)
  // must not leave in_flush_ stuck true — that would silently turn every
  // later Flush() into a no-op.
  struct InFlushGuard {
    ReoptSession* s;
    ~InFlushGuard() { s->in_flush_.store(false); }
  } in_flush_guard{this};
  // One tick of the retry clock per flush (quarantine backoffs count in
  // these).
  ticks_.fetch_add(1, std::memory_order_relaxed);
  {
    // Reset the policy counter BEFORE the drain: a mutation recorded in
    // the gap is then over-counted (worst case one spurious early flush,
    // benign) rather than under-counted (its increment erased while its
    // pending entry survives — with no later mutation a count policy
    // would never re-fire and the change would sit pending forever).
    std::lock_guard<std::mutex> lock(policy_mu_);
    mutations_since_flush_ = 0;
  }
  StatsRegistry::DrainedBatch batch = registry_->TakePendingBatch();

  // Quarantined queries whose backoff expired rebuild from scratch before
  // dispatch. Ordering is safe either way — the drain moves no values, and
  // re-seeding the drained changes into a just-rebuilt optimizer is
  // idempotent (it already read the post-change statistics) — but doing it
  // post-drain gives the events the batch's epoch.
  std::vector<ServiceEvent> service_events;
  int64_t strikes_this_flush = 0;
  int64_t rehabs_this_flush = 0;
  AttemptRehabs(batch.epoch, &service_events, &strikes_this_flush, &rehabs_this_flush);

  // Rehydration phase: an evicted query rejoins the resident set BEFORE
  // dispatch when this batch can affect its relations (so no relevant
  // batch is ever missed — the restore brings back evict-time state,
  // exact w.r.t. every batch skipped while evicted, all of which were
  // irrelevant to it by this very test) or when it owes a re-diff (its
  // torn-down memo has no digest to re-derive).
  int64_t evictions_this_flush = 0;
  int64_t rehydrations_this_flush = 0;
  for (Slot& slot : queries_) {
    if (!slot.evicted) continue;
    const RelSet root = slot.optimizer->RootRelations();
    const bool relevant =
        std::any_of(batch.changes.begin(), batch.changes.end(),
                    [root](const StatChange& c) { return RelIsSubset(c.scope, root); });
    if (!relevant && !slot.rediff_pending) continue;
    if (RehydrateSlot(slot, batch.epoch, &service_events, &strikes_this_flush)) {
      ++rehydrations_this_flush;
    }
  }

  // An unsettled baseline (a prior flush's delivery unwound before some
  // query's event, or a rehabilitation above) must be re-diffed by THIS
  // flush even when the batch coalesced to nothing — otherwise indefinite
  // net-zero churn would defer the dropped notification forever.
  const bool rediff_needed = std::any_of(
      queries_.begin(), queries_.end(), [](const Slot& s) { return s.rediff_pending; });
  if (batch.changes.empty() && !rediff_needed && service_events.empty()) {
    // Either nothing was recorded, or the whole batch oscillated back to
    // its baseline and the coalescer absorbed it: no optimizer runs, no
    // events fire (net-zero churn is invisible by construction).
    if (batch.had_pending) ++metrics_.empty_flushes;
    PolicyOnFlush();
    return 0;
  }
  if (!batch.changes.empty()) {
    ++metrics_.flushes;
    metrics_.changes_flushed += static_cast<int64_t>(batch.changes.size());
    // Reset only for a dispatched flush: a rediff-only pass (empty batch)
    // does no fixpoint work and must leave last_flush() describing the
    // most recent NON-EMPTY flush, per its contract.
    last_flush_ = FlushOptStats{};
    // Rehab-phase events were built before the flush counter advanced:
    // restamp so they carry the same index this flush's plan events will.
    for (ServiceEvent& se : service_events) {
      if (se.kind == ServiceEvent::Kind::kQuarantined) {
        se.quarantined.flush_index = metrics_.flushes;
      } else {
        se.rehabilitated.flush_index = metrics_.flushes;
      }
    }
  } else if (batch.had_pending) {
    ++metrics_.empty_flushes;  // rediff-only pass below; still no changes
  }

  int64_t skipped_this_flush = 0;
  int64_t delivered = 0;
  const int64_t queries_at_dispatch = static_cast<int64_t>(queries_.size());
  // How many registered queries this flush will NOT dispatch because they
  // are quarantined or parked (the FlushReport snapshot).
  const int64_t quarantined_at_dispatch =
      static_cast<int64_t>(std::count_if(queries_.begin(), queries_.end(), [](const Slot& s) {
        return s.state != QueryState::kHealthy;
      }));
  // The flush epilogue — metrics export and the policy's OnFlush history
  // feed — must run for every drained flush, whatever unwinds out of it
  // (a subscriber callback throwing during delivery). The exporter is
  // owed its report (partial counters and all) and the policy its reset
  // (a DeadlinePolicy left armed would mis-time the next batch's window),
  // so the guard is constructed BEFORE dispatch. Corollary: exporters and
  // policies must not throw (this runs from a destructor).
  struct FlushEpilogue {
    ReoptSession* session;
    std::chrono::steady_clock::time_point started;
    uint64_t epoch;
    int64_t changes;
    int64_t queries;
    int64_t quarantined;
    const int64_t* skipped;
    const int64_t* delivered;
    const int64_t* strikes;
    const int64_t* rehabs;
    const int64_t* evictions;
    const int64_t* rehydrations;
    ~FlushEpilogue() {
      ReoptSession* s = session;
      // Rediff-only passes (changes == 0) are not dispatched flushes: the
      // exporter contract is one report per non-empty flush.
      if (s->options_.metrics_exporter != nullptr && changes > 0) {
        FlushReport report;
        // Safe relaxed reads: the dispatch window is over, so no pass can
        // still be feeding the store.
        report.summary_shared_hits = s->summary_cache_.hits();
        report.summary_shared_misses = s->summary_cache_.misses();
        {
          // metrics_.mutations_observed is written by mutator threads
          // under policy_mu_ (concurrent Record() during a flush is
          // supported), so the struct copy snapshots under the same mutex;
          // every other field is flushing-thread only.
          std::lock_guard<std::mutex> lock(s->policy_mu_);
          report.session = s->metrics_;
        }
        report.flush_index = report.session.flushes;
        report.flush_epoch = epoch;
        report.changes = changes;
        report.queries = queries;
        report.queries_skipped = *skipped;
        report.plan_changes = *delivered;
        report.queries_quarantined = quarantined;
        report.quarantines = *strikes;
        report.rehabilitations = *rehabs;
        report.evictions = *evictions;
        report.rehydrations = *rehydrations;
        report.resident_memo_bytes = report.session.resident_memo_bytes;
        report.flush_ms =
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - started)
                .count();
        report.opt = s->last_flush_;
        s->options_.metrics_exporter->OnFlushMetrics(report);
      }
      s->PolicyOnFlush();
    }
  } epilogue{this,
             flush_started,
             batch.epoch,
             static_cast<int64_t>(batch.changes.size()),
             queries_at_dispatch,
             quarantined_at_dispatch,
             &skipped_this_flush,
             &delivered,
             &strikes_this_flush,
             &rehabs_this_flush,
             &evictions_this_flush,
             &rehydrations_this_flush};

  // If anything unwinds between dispatch and the event-computation loop,
  // some passes may have completed and changed plans with no event
  // computed and no baseline advanced. Mark every subscribed healthy slot
  // unsettled on that path: the next flush force-re-diffs them (RunPass
  // force_digest), so the change is re-detected instead of silently
  // missed. Over-marking is benign — a forced re-diff that finds the
  // baseline intact settles and clears. Disarmed once the event loop has
  // handled every slot.
  struct RediffOnUnwind {
    ReoptSession* session;
    bool armed = true;
    ~RediffOnUnwind() {
      if (!armed) return;
      for (Slot& slot : session->queries_) {
        // Evicted slots were not dispatched: their baseline is intact and
        // their torn-down memo could not satisfy a forced re-diff anyway.
        if (slot.state == QueryState::kHealthy && !slot.evicted &&
            slot.subscriber != nullptr) {
          slot.rediff_pending = true;
        }
      }
    }
  } rediff_guard{this};

  std::vector<PassResult> results;
  results.reserve(queries_.size());
  // Per-index failure capture: a throwing pass becomes a quarantine for
  // THAT query after dispatch; it never unwinds the flush. (The drained
  // batch is irrecoverable, so every other query must still receive its
  // pass — otherwise the skipped queries would be stamped past deltas
  // they never saw and diverge permanently.)
  std::vector<std::exception_ptr> errors(queries_.size());
  {
    // Freeze the statistics values for the whole dispatch window: every
    // pass reads exactly the drained epoch's values; racing mutators block
    // here and land in the next batch.
    auto stats_frozen = registry_->ReaderLock();
    for (size_t i = 0; i < queries_.size(); ++i) {
      const Slot& slot = queries_[i];
      if (slot.state != QueryState::kHealthy || slot.evicted) {
        results.push_back(PassResult{});
        continue;
      }
      const bool want_digest = slot.subscriber != nullptr;
      try {
        results.push_back(RunPass(slot.optimizer, batch.changes, batch.epoch, want_digest,
                                  want_digest && slot.rediff_pending));
      } catch (...) {
        errors[i] = std::current_exception();
        results.push_back(PassResult{});
      }
    }
  }

  // Quarantine the failures and compute the events — outside the reader
  // lock (subscriber callbacks may mutate statistics; a same-thread
  // mutation while holding the shared lock would deadlock on the exclusive
  // lock).
  struct PendingEvent {
    QueryId query;
    /// The subscription generation the event was computed for (the
    /// pointer would be redundant: every attach/detach/swap bumps the
    /// generation). Delivery re-checks the slot at fire time and delivers
    /// only if this exact subscription is still attached: a
    /// mid-notification detach, swap, or even detach-then-reattach of the
    /// same pointer suppresses the event — the old observer may already
    /// be destroyed, and any (re)attached one's baseline postdates the
    /// change this event describes.
    uint64_t computed_gen;
    /// The post-flush baseline, moved into the slot when the event is
    /// SETTLED (delivered or suppressed) — not before. A callback that
    /// throws therefore leaves later queries' baselines untouched, so
    /// their dropped events are re-detected (against the old baseline) at
    /// the next flush that re-optimizes them, instead of being lost.
    PlanDigest new_digest;
    PlanChangeEvent event;
  };
  std::vector<PendingEvent> events;
  for (size_t i = 0; i < queries_.size(); ++i) {
    Slot& slot = queries_[i];
    PassResult& r = results[i];
    if (errors[i] != nullptr) {
      // Exactly this query failed: quarantine it; its peers notify
      // normally below.
      RecordStrike(slot, errors[i], batch.epoch, &service_events, &strikes_this_flush);
      continue;
    }
    if (!r.dispatched) {
      // Quarantined/parked: counted in the dispatch-time snapshot above.
      // Evicted: the rehydration phase proved this batch cannot affect it
      // — the same skip the prefilter gives a resident dormant query.
      if (slot.evicted) {
        ++metrics_.queries_skipped;
        ++skipped_this_flush;
      }
      continue;
    }
    if (r.affected) {
      slot.last_active_tick = ticks_.load(std::memory_order_relaxed);
    } else {
      ++skipped_this_flush;
    }
    if (slot.subscriber != nullptr && r.digest_computed) {
      if (!slot.digest.SamePlan(r.digest)) {
        PlanChangeEvent e;
        e.query_id = slot.id;
        e.optimizer = slot.optimizer;
        e.flush_epoch = batch.epoch;
        e.flush_index = metrics_.flushes;
        e.old_cost = slot.digest.best_cost;
        e.new_cost = r.digest.best_cost;
        e.diff = DiffPlanDigests(slot.digest, r.digest);
        events.push_back({slot.id, slot.subscription_gen, std::move(r.digest), std::move(e)});
        // Cleared when the event settles; if delivery unwinds first, the
        // flag makes the next flush re-derive this query's digest even
        // when the batch cannot affect it (RunPass force_digest).
        slot.rediff_pending = true;
      } else {
        // No event: the post-flush closure becomes the baseline now. For
        // slots WITH an event the advance waits until the event settles
        // in the delivery loop (see PendingEvent::new_digest). A pending
        // rediff that finds the plan back at the baseline is moot.
        slot.digest = std::move(r.digest);
        slot.rediff_pending = false;
      }
    }
  }
  // Dispatch-phase strikes changed the quarantine set: refresh the
  // Poll-readable index before delivery can re-enter anything.
  RefreshQuarantineIndex();
  // Every slot's baseline/rediff state is now consistent; delivery-phase
  // throws are handled by settle-before-fire, not by the unwind guard.
  rediff_guard.armed = false;

  // Deliver: failure-domain events first (a subscriber told its query was
  // quarantined must not learn it from a later plan event's absence), then
  // plan changes — both in registration-order collection, at most once, on
  // this thread. An event fires only if the subscription it was computed
  // for is still attached (generation check); unregistration from inside a
  // callback defers (notifying_).
  {
    // RAII on both pieces of notification state: a throwing callback must
    // not leave the session stuck in notifying mode (every later Register
    // would abort, every Release would defer forever), and deferred
    // unregistrations must apply even on the unwind path — the flush they
    // were requested from is over either way.
    struct NotifyGuard {
      ReoptSession* session;
      ~NotifyGuard() {
        session->notifying_ = false;
        for (QueryId id : std::exchange(session->deferred_unregister_, {})) {
          session->UnregisterImpl(id);
        }
      }
    } notify_guard{this};
    notifying_ = true;
    for (ServiceEvent& se : service_events) {
      Slot* slot = FindSlot(se.query);  // slots are stable: unregisters defer
      if (slot == nullptr || slot->subscriber == nullptr) continue;
      if (slot->subscription_gen != se.computed_gen) continue;
      // At-most-once, never replayed: a throw here drops the remaining
      // failure events for good (query_state() stays authoritative) while
      // plan events stay unsettled and re-detect next flush.
      if (se.kind == ServiceEvent::Kind::kQuarantined) {
        slot->subscriber->OnQueryQuarantined(se.quarantined);
      } else {
        slot->subscriber->OnQueryRehabilitated(se.rehabilitated);
      }
    }
    for (PendingEvent& pe : events) {
      Slot* slot = FindSlot(pe.query);
      if (slot == nullptr) continue;
      if (slot->subscription_gen != pe.computed_gen) {
        // Subscription changed mid-notification: suppressed, and NOT
        // settled — SetSubscriber already left the slot's digest right
        // (cleared on detach, re-baselined on attach) and cleared the
        // rediff flag; re-installing this digest would leave a detached
        // slot holding a dead one.
        continue;
      }
      // Settle the event before firing it: the baseline advances exactly
      // when the event is consumed, so an earlier callback's throw cannot
      // advance a later query past a change its consumer never saw. A
      // generation match implies the subscriber is still the non-null one
      // the event was computed for.
      slot->digest = std::move(pe.new_digest);
      slot->rediff_pending = false;  // settled
      // Counted before the callback runs: a subscriber that throws from
      // its OWN event has still consumed it (at-most-once for the thrower;
      // the settle above forecloses redelivery), so the metrics and the
      // FlushReport record the delivery attempt rather than undercounting.
      ++delivered;
      ++metrics_.plan_changes;
      slot->subscriber->OnPlanChange(pe.event);
    }
  }
  // Budget enforcement runs LAST — after delivery, so no subscriber
  // callback ever observes a mid-flush teardown of an optimizer its event
  // points at — and refreshes the resident gauge the epilogue's report
  // carries. (A throwing subscriber skips it: eviction is best-effort
  // housekeeping, and the next flush enforces again.)
  EnforceMemoBudget(&evictions_this_flush);
  // FlushEpilogue fires here (export + policy OnFlush), then InFlushGuard.
  return batch.changes.size();
}

void ReoptSession::PolicyOnFlush() {
  if (options_.flush_policy == nullptr) return;  // no registry probe either
  // Mutations that raced this flush are already pending for the next
  // epoch; a time-based policy re-arms on them instead of disarming. The
  // registry read happens BEFORE policy_mu_ — this class never holds the
  // policy mutex while touching the registry, so the lock order stays
  // acyclic with mutator threads (registry lock -> subscriber callback ->
  // policy_mu_).
  const size_t probed = registry_->PendingStatCount();
  std::lock_guard<std::mutex> lock(policy_mu_);
  // A mutation can land between the probe and this lock; its ShouldFlush
  // backed off on in_flush_, so a pending_after of 0 here would disarm a
  // deadline the mutation thinks is armed. mutations_since_flush_ (only
  // written under this mutex, reset at flush start) sees every such
  // mutation — the worst case of trusting it is a mutation that made the
  // drained batch after the counter reset, i.e. a spurious re-arm and at
  // most one early flush, the same benign class as the documented
  // reset-before-drain over-count.
  const size_t pending_after =
      std::max(probed, mutations_since_flush_ > 0 ? size_t{1} : size_t{0});
  options_.flush_policy->OnFlush(pending_after);
}

size_t ReoptSession::MaybePolicyFlush(const StatsMutationEvent* event) {
  bool fire = false;
  // Poll() probe: no under-lock mutation snapshot to map, so read the
  // registry up front — never while holding policy_mu_ (lock order, see
  // PolicyOnFlush).
  const size_t polled_pending =
      event == nullptr && options_.flush_policy != nullptr ? registry_->PendingStatCount() : 0;
  const size_t pending = event != nullptr ? event->pending_stats : polled_pending;
  {
    std::lock_guard<std::mutex> lock(policy_mu_);
    if (event != nullptr) {
      // Mutation path: count inside the same critical section the policy
      // evaluates under — one lock acquisition per recorded mutation.
      ++metrics_.mutations_observed;
      ++mutations_since_flush_;
    }
    if (options_.flush_policy != nullptr) {
      FlushPolicyContext ctx;
      ctx.mutations_since_flush = mutations_since_flush_;
      ctx.pending_stats = pending;
      fire = options_.flush_policy->ShouldFlush(ctx);
    }
  }
  // Flush() itself rejects reentrancy and cross-thread races via
  // in_flush_; a rejected policy flush just means the policy fires again
  // on the next mutation or Poll.
  if (fire && !in_flush_.load()) return Flush();
  return 0;
}

size_t ReoptSession::Poll() {
  // A poll while a flush runs has nothing to add: the flush ticks, rehabs,
  // and re-arms the policy itself.
  if (in_flush_.load()) return 0;
  const int64_t tick = ticks_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (quarantined_count_.load(std::memory_order_relaxed) > 0 &&
      next_rehab_tick_.load(std::memory_order_relaxed) <= tick) {
    // A quarantine backoff expired: flush regardless of the policy — the
    // flush's rehab phase is the only place rebuilds run, and a parked
    // policy must not strand a recoverable query.
    return Flush();
  }
  return MaybePolicyFlush(nullptr);
}

void ReoptSession::OnStatsMutated(StatsRegistry& registry, const StatsMutationEvent& event) {
  IQRO_CHECK(&registry == registry_);
  MaybePolicyFlush(&event);  // counts the mutation and evaluates the policy
}

// ---------------------------------------------------------------------------
// QueryHandle
// ---------------------------------------------------------------------------

QueryHandle::QueryHandle(QueryHandle&& other) noexcept
    : session_(std::exchange(other.session_, nullptr)),
      optimizer_(std::exchange(other.optimizer_, nullptr)),
      alive_(std::move(other.alive_)),
      id_(std::exchange(other.id_, -1)) {}

QueryHandle& QueryHandle::operator=(QueryHandle&& other) noexcept {
  if (this != &other) {
    Release();
    session_ = std::exchange(other.session_, nullptr);
    optimizer_ = std::exchange(other.optimizer_, nullptr);
    alive_ = std::move(other.alive_);
    id_ = std::exchange(other.id_, -1);
  }
  return *this;
}

QueryHandle::~QueryHandle() { Release(); }

QueryState QueryHandle::state() const {
  if (!valid()) return QueryState::kHealthy;
  return session_->query_state(id_);
}

void QueryHandle::Subscribe(PlanSubscriber* subscriber) {
  IQRO_CHECK(session_ != nullptr);  // must own a registration
  // Session already destroyed: the registration died with it — defined
  // no-op, consistent with Release() and the destructor.
  if (alive_ == nullptr || !*alive_) return;
  session_->SetSubscriber(id_, subscriber);
}

void QueryHandle::Release() {
  if (session_ == nullptr) return;
  // A handle outliving its session is legal (the token flipped): nothing
  // left to unregister — the dead session already dropped every slot.
  if (alive_ != nullptr && *alive_) session_->UnregisterImpl(id_);
  session_ = nullptr;
  optimizer_ = nullptr;
  alive_.reset();
  id_ = -1;
}

}  // namespace iqro
