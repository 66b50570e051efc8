// The service and core layers driven from outside: a world behind one
// serial ReoptSession, its core-level copy, one flush's worth of core work,
// the optimizer counters of each pass, and the core, stats and service
// metrics a traced run derives from them. Traced runs replay an op stream
// on both copies, op by op, so the service layer peels off the core.
#ifndef BENCH_SUITE_SUITE_REPLAY_H_
#define BENCH_SUITE_SUITE_REPLAY_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/declarative_optimizer.h"
#include "service/reopt_session.h"
#include "service/shared_summary_cache.h"
#include "suite/measure.h"
#include "suite/trace.h"
#include "suite/worlds.h"

namespace bench_suite {

/// Optimizer counters summed over the passes of a run: the per-pass
/// deltas of OptMetrics plus the pass outcomes.
struct PassCounters {
  int64_t flushes = 0;
  int64_t passes = 0;
  int64_t skipped = 0;
  int64_t raw_mutations = 0;
  int64_t changes = 0;
  int64_t eps_seeded = 0;
  int64_t eps_scanned = 0;
  int64_t steps = 0;
  int64_t touched_eps = 0;
  int64_t touched_alts = 0;
  int64_t live_eps = 0;
  int64_t tasks_enqueued = 0;
  int64_t tasks_deduped = 0;
  int64_t memo_probes = 0;
  int64_t memo_hits = 0;
};

/// One pass, recorded inside the timed region and accounted after it: the
/// counter reads (NumLiveEps walks the memo) must stay out of every span.
struct PassRecord {
  iqro::DeclarativeOptimizer* opt = nullptr;
  iqro::OptMetrics before;
  int64_t seeded = 0;
};

/// Runs one ReoptimizeBatch pass under a core.reopt span.
inline PassRecord TimedPass(iqro::DeclarativeOptimizer* opt,
                            const std::vector<iqro::StatChange>& changes, uint64_t epoch,
                            Tracer* tracer, uint64_t op, uint32_t parent) {
  PassRecord p{opt, opt->metrics(), 0};
  ScopedSpan span(tracer, SpanKind::kCoreReopt, op, parent);
  p.seeded = opt->ReoptimizeBatch(changes, epoch);
  return p;
}

/// Adds a finished pass's OptMetrics deltas to `c`. Call before the
/// optimizer's next pass (the round counters reset per pass).
inline void AccountPass(const PassRecord& p, PassCounters* c) {
  const iqro::OptMetrics& m = p.opt->metrics();
  ++c->passes;
  c->eps_seeded += p.seeded;
  c->eps_scanned += m.round_eps_scanned;
  c->steps += m.round_steps;
  c->touched_eps += m.round_touched_eps;
  c->touched_alts += m.round_touched_alts;
  c->live_eps += p.opt->NumLiveEps();
  c->tasks_enqueued += m.tasks_enqueued - p.before.tasks_enqueued;
  c->tasks_deduped += m.tasks_deduped - p.before.tasks_deduped;
  c->memo_probes += m.memo_probes - p.before.memo_probes;
  c->memo_hits += m.memo_hits - p.before.memo_hits;
}

/// Applies a batch under one stats.record span per mutation.
inline void RecordBatch(iqro::StatsRegistry* registry, const Batch& batch, Tracer* tracer,
                        uint64_t op, uint32_t parent = Tracer::kNoSpan) {
  for (const StatMutation& m : batch) {
    ScopedSpan span(tracer, SpanKind::kStatsRecord, op, parent);
    iqro::testing::ApplyMutation(registry, m);
  }
}

/// Stamps the first plan-change event of a flush that changed an operator.
class FlipRecorder final : public iqro::PlanSubscriber {
 public:
  explicit FlipRecorder(int64_t* first_flip_ns) : first_flip_ns_(first_flip_ns) {}
  void OnPlanChange(const iqro::PlanChangeEvent& event) override {
    if (event.diff.changed_operators > 0 && *first_flip_ns_ == 0) *first_flip_ns_ = NowNs();
  }

 private:
  int64_t* first_flip_ns_;
};

/// A world driven through one serial ReoptSession (no pool, no timer, no
/// policy: the daemon's per-world setup), every query subscribed. Reset
/// `first_flip_ns` to 0 before a flush to time its first plan flip.
struct SessionWorld {
  std::unique_ptr<World> world;
  int64_t first_flip_ns = 0;
  std::vector<std::unique_ptr<FlipRecorder>> recorders;
  std::unique_ptr<iqro::ReoptSession> session;
  std::vector<iqro::QueryHandle> handles;  // released before the session dies

  explicit SessionWorld(std::unique_ptr<World> w) : world(std::move(w)) {
    session = std::make_unique<iqro::ReoptSession>(world->registry);
    for (QueryOpt& q : world->queries) {
      recorders.push_back(std::make_unique<FlipRecorder>(&first_flip_ns));
      handles.push_back(session->Register(*q.optimizer, recorders.back().get()));
    }
  }
  SessionWorld(const SessionWorld&) = delete;
  SessionWorld& operator=(const SessionWorld&) = delete;
};

/// Attaches one shared summary cache to every query of a core-level copy,
/// as ReoptSession::Register does, so the copy does the session's work.
struct CoreWorld {
  std::unique_ptr<World> world;
  iqro::SharedSummaryCache cache;

  explicit CoreWorld(std::unique_ptr<World> w) : world(std::move(w)) {
    for (QueryOpt& q : world->queries) q.optimizer->AttachSharedSummaryCache(&cache);
  }
  ~CoreWorld() {
    for (QueryOpt& q : world->queries) q.optimizer->AttachSharedSummaryCache(nullptr);
  }
  CoreWorld(const CoreWorld&) = delete;
  CoreWorld& operator=(const CoreWorld&) = delete;
};

/// The core-level equivalent of one serial ReoptSession flush with every
/// query subscribed: drain, then per query the session's whole-query
/// prefilter, ReoptimizeBatch, and the post-flush plan digest.
inline void CoreFlush(World* w, Tracer* tracer, uint64_t op, PassCounters* c) {
  static const std::vector<iqro::StatChange> kEmpty;
  std::vector<PassRecord> passes;
  passes.reserve(w->queries.size());
  size_t changes = 0;
  {
    ScopedSpan flush(tracer, SpanKind::kCoreFlush, op);
    iqro::StatsRegistry::DrainedBatch batch;
    {
      ScopedSpan drain(tracer, SpanKind::kStatsDrain, op, flush.id());
      batch = w->registry->TakePendingBatch();
    }
    changes = batch.changes.size();
    for (QueryOpt& q : w->queries) {
      if (batch.changes.empty()) break;
      const iqro::RelSet root = q.optimizer->RootRelations();
      const bool affected = std::any_of(batch.changes.begin(), batch.changes.end(),
                                        [root](const iqro::StatChange& ch) {
                                          return iqro::RelIsSubset(ch.scope, root);
                                        });
      if (!affected) {
        q.optimizer->ReoptimizeBatch(kEmpty, batch.epoch);
        ++c->skipped;
        continue;
      }
      passes.push_back(
          TimedPass(q.optimizer.get(), batch.changes, batch.epoch, tracer, op, flush.id()));
      ScopedSpan digest(tracer, SpanKind::kCoreDigest, op, flush.id());
      (void)q.optimizer->ComputePlanDigest();
    }
  }
  ++c->flushes;
  c->changes += static_cast<int64_t>(changes);
  for (const PassRecord& p : passes) AccountPass(p, c);
}

/// What the service-layer replays of a traced run add up: core counters
/// and session metric deltas over the measured ops.
struct ServiceTotals {
  PassCounters pc;
  Samples optimize_ms;  // initial Optimize() of each replayed query
  int64_t flushes = 0;
  int64_t empty_flushes = 0;
  int64_t passes = 0;
  int64_t skipped = 0;
  int64_t plan_changes = 0;
  int64_t summary_hits = 0;
  int64_t summary_misses = 0;
  int64_t peak_memo_bytes = 0;

  /// Adds what `session` counted since `from` (and `hits0`/`misses0`).
  void AddSessionDelta(const iqro::ReoptSession& session, const iqro::ReoptSessionMetrics& from,
                       int64_t hits0, int64_t misses0) {
    const iqro::ReoptSessionMetrics to = session.metrics();
    flushes += to.flushes - from.flushes;
    empty_flushes += to.empty_flushes - from.empty_flushes;
    passes += to.reopt_passes - from.reopt_passes;
    skipped += to.queries_skipped - from.queries_skipped;
    plan_changes += to.plan_changes - from.plan_changes;
    summary_hits += session.summary_cache().hits() - hits0;
    summary_misses += session.summary_cache().misses() - misses0;
  }
};

/// Replays a chain4 world's ops (op id, batch) through a fresh serial
/// ReoptSession and a core-level copy, back to back, each op a flush on
/// both. Ops from index `first_measured` on are traced and counted.
inline void ReplayWorld(uint64_t world_key, int configs,
                        const std::vector<std::pair<uint64_t, const Batch*>>& ops,
                        size_t first_measured, Tracer* tracer, ServiceTotals* out) {
  SessionWorld sw(MakeChainWorld(world_key, configs, &out->optimize_ms));
  CoreWorld cw(MakeChainWorld(world_key, configs, nullptr));
  PassCounters warm;
  iqro::ReoptSessionMetrics m0;
  int64_t hits0 = 0;
  int64_t misses0 = 0;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i == first_measured) {
      m0 = sw.session->metrics();
      hits0 = sw.session->summary_cache().hits();
      misses0 = sw.session->summary_cache().misses();
    }
    const bool measured = i >= first_measured;
    Tracer* t = measured ? tracer : nullptr;
    const auto& [op, batch] = ops[i];
    RecordBatch(sw.world->registry, *batch, t, op);
    {
      ScopedSpan s(t, SpanKind::kServiceFlush, op);
      sw.session->Flush();
    }
    RecordBatch(cw.world->registry, *batch, t, op);
    CoreFlush(cw.world.get(), t, op, measured ? &out->pc : &warm);
    if (measured) out->pc.raw_mutations += static_cast<int64_t>(batch->size());
  }
  if (first_measured < ops.size()) out->AddSessionDelta(*sw.session, m0, hits0, misses0);
  for (const QueryOpt& q : sw.world->queries) {
    out->peak_memo_bytes += q.optimizer->metrics().peak_memo_bytes;
  }
}

/// The core and stats metrics: pass counters, and the core.reopt,
/// core.digest, stats.record and stats.drain spans of `t`.
inline void AddCoreMetrics(const Tracer& t, const PassCounters& c, const Samples& scratch_us,
                           const Samples& optimize_ms, int64_t peak_memo_bytes, MetricSet* m) {
  const Samples reopt_us = t.Durations(SpanKind::kCoreReopt).Scaled(1e-3);
  m->Set("core.reopt_us.p50", reopt_us.P(0.50), "us");
  m->Set("core.reopt_us.p99", reopt_us.P(0.99), "us");
  m->Set("core.scratch_us.p50", scratch_us.Median(), "us");
  m->Set("core.reopt_vs_scratch", SafeRatio(reopt_us.Median(), scratch_us.Median()), "ratio");
  m->Set("core.digest_us.p50", t.Durations(SpanKind::kCoreDigest).Median() / 1e3, "us");
  const double passes = static_cast<double>(c.passes);
  m->Set("core.steps_per_pass", SafeRatio(static_cast<double>(c.steps), passes), "count");
  m->Set("core.touched_eps_per_pass", SafeRatio(static_cast<double>(c.touched_eps), passes),
         "count");
  m->Set("core.touched_alts_per_pass", SafeRatio(static_cast<double>(c.touched_alts), passes),
         "count");
  m->Set("core.eps_seeded_per_pass", SafeRatio(static_cast<double>(c.eps_seeded), passes),
         "count");
  m->Set("core.eps_scanned_per_pass", SafeRatio(static_cast<double>(c.eps_scanned), passes),
         "count");
  m->Set("core.touched_eps_frac",
         SafeRatio(static_cast<double>(c.touched_eps), static_cast<double>(c.live_eps)), "ratio");
  m->Set("core.seed_precision",
         SafeRatio(static_cast<double>(c.eps_seeded), static_cast<double>(c.eps_scanned)),
         "ratio");
  m->Set("core.dedup_ratio",
         SafeRatio(static_cast<double>(c.tasks_deduped),
                   static_cast<double>(c.tasks_enqueued + c.tasks_deduped)),
         "ratio");
  m->Set("core.memo_hit_ratio",
         SafeRatio(static_cast<double>(c.memo_hits), static_cast<double>(c.memo_probes)),
         "ratio");
  m->Set("core.peak_memo_bytes", static_cast<double>(peak_memo_bytes), "bytes");
  m->Set("core.optimize_ms.p50", optimize_ms.Median(), "ms");
  m->Set("stats.record_ns.p50", t.Durations(SpanKind::kStatsRecord).Median(), "ns");
  m->Set("stats.drain_us.p50", t.Durations(SpanKind::kStatsDrain).Median() / 1e3, "us");
  m->Set("stats.coalesce_ratio",
         SafeRatio(static_cast<double>(c.raw_mutations), static_cast<double>(c.changes)),
         "ratio");
}

/// The core, stats and service metrics of a run whose service flushes
/// (service.flush spans) were replayed on core-level copies (core.flush).
inline void AddServiceMetrics(const Tracer& t, const ServiceTotals& x, const Samples& scratch_us,
                              MetricSet* m) {
  AddCoreMetrics(t, x.pc, scratch_us, x.optimize_ms, x.peak_memo_bytes, m);
  const Samples flush_ms = t.Durations(SpanKind::kServiceFlush).Scaled(1e-6);
  m->Set("service.flush_ms.p50", flush_ms.P(0.50), "ms");
  m->Set("service.flush_ms.p99", flush_ms.P(0.99), "ms");
  m->Set("service.self_ms.p50",
         PairedDiffP50(t.PerOp(SpanKind::kServiceFlush), t.PerOp(SpanKind::kCoreFlush)) / 1e6,
         "ms");
  const double flushes = static_cast<double>(x.flushes);
  const double passes = static_cast<double>(x.passes);
  const double skipped = static_cast<double>(x.skipped);
  const double empty = static_cast<double>(x.empty_flushes);
  m->Set("service.passes_per_flush", SafeRatio(passes, flushes), "count");
  m->Set("service.skip_ratio", SafeRatio(skipped, passes + skipped), "ratio");
  m->Set("service.events_per_flush", SafeRatio(static_cast<double>(x.plan_changes), flushes),
         "count");
  m->Set("service.empty_flush_ratio", SafeRatio(empty, flushes + empty), "ratio");
  m->Set("service.summary_hit_ratio",
         SafeRatio(static_cast<double>(x.summary_hits),
                   static_cast<double>(x.summary_hits + x.summary_misses)),
         "ratio");
}

}  // namespace bench_suite

#endif  // BENCH_SUITE_SUITE_REPLAY_H_
