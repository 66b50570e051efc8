// engine_churn: the paper's incremental fixpoint alone. One thread, closed
// loop, TPC-H SF 0.01 Q5 and Q8Join with one default-options optimizer
// each. An op is one seeded mutation followed by Reoptimize(). Every 64th
// op, untimed, a fresh optimizer runs Optimize() at the same statistics and
// must land on the same canonical state. The service, shard and daemon
// layers are bypassed, so a change there must leave this workload flat.
// End-to-end metrics are taken per half-second window (WindowedSamples).
#ifndef BENCH_SUITE_SUITE_ENGINE_CHURN_H_
#define BENCH_SUITE_SUITE_ENGINE_CHURN_H_

#include <memory>
#include <string>
#include <vector>

#include "core/plan_digest.h"
#include "suite/replay.h"
#include "suite/report.h"
#include "suite/trace.h"
#include "suite/worlds.h"

namespace bench_suite {

inline RunResult RunEngineChurn(const RunOptions& o) {
  static const char* const kQueries[] = {"Q5", "Q8Join"};
  constexpr size_t kOracleEvery = 64;
  constexpr double kWindowSeconds = 0.5;  // ~5.5k ops, ~1.5k plan flips per window
  RunResult r;
  Samples setup_s;
  Samples optimize_ms;
  std::unique_ptr<Tpch> tpch;
  std::vector<std::unique_ptr<World>> worlds;
  for (int rep = 0; rep < (o.trace ? 1 : kSetupReps); ++rep) {
    worlds.clear();
    tpch.reset();
    const int64_t t0 = NowNs();
    tpch = MakeTpch();
    for (const char* q : kQueries) worlds.push_back(MakeTpchWorld(tpch.get(), q, 1, &optimize_ms));
    setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // The op stream, generated before timing starts. A run replays it
  // cyclically if it outlasts it; targets are absolute values drawn around
  // the initial statistics, so a repeat is just more churn.
  struct Op {
    int query;
    StatMutation m;
  };
  std::vector<Op> stream(1u << 17);
  Rng rng = StreamRng(o.seed, 1);
  for (Op& op : stream) {
    op.query = rng.Below(2);
    op.m = TpchMutation(rng, *worlds[static_cast<size_t>(op.query)]->registry);
  }

  std::unique_ptr<Tracer> tracer = o.trace ? std::make_unique<Tracer>(1u << 21) : nullptr;
  std::vector<iqro::PlanDigest> last;
  for (auto& w : worlds) last.push_back(w->queries[0].optimizer->ComputePlanDigest());

  Samples traced_ms, untraced_ms, scratch_us;
  PassCounters pc;
  const int64_t warm_end = NowNs() + static_cast<int64_t>(1e9 * std::min(1.0, 0.1 * o.seconds));
  const int64_t end = warm_end + static_cast<int64_t>(1e9 * o.seconds);
  WindowedSamples op_ms(warm_end, o.seconds, kWindowSeconds);
  WindowedSamples plan_ms(warm_end, o.seconds, kWindowSeconds);
  for (uint64_t i = 0;; ++i) {
    const int64_t now = NowNs();
    if (now >= end) break;
    const bool measured = now >= warm_end;
    const Op& op = stream[i % stream.size()];
    World& w = *worlds[static_cast<size_t>(op.query)];
    iqro::DeclarativeOptimizer* opt = w.queries[0].optimizer.get();
    // Traced runs trace every other op and leave the rest bare, so the
    // two halves give the tracing overhead on one op stream.
    Tracer* t = tracer != nullptr && measured && i % 2 == 0 ? tracer.get() : nullptr;
    int64_t t0 = 0;
    int64_t t1 = 0;
    if (t == nullptr) {
      t0 = NowNs();
      iqro::testing::ApplyMutation(w.registry, op.m);
      opt->Reoptimize();
      t1 = NowNs();
    } else {
      PassRecord pass;
      t0 = NowNs();
      {
        ScopedSpan span(t, SpanKind::kOp, i);
        {
          ScopedSpan record(t, SpanKind::kStatsRecord, i, span.id());
          iqro::testing::ApplyMutation(w.registry, op.m);
        }
        iqro::StatsRegistry::DrainedBatch batch;
        {
          ScopedSpan drain(t, SpanKind::kStatsDrain, i, span.id());
          batch = w.registry->TakePendingBatch();
        }
        pass = TimedPass(opt, batch.changes, batch.epoch, t, i, span.id());
        pc.changes += static_cast<int64_t>(batch.changes.size());
      }
      t1 = NowNs();
      ++pc.raw_mutations;
      ++pc.flushes;
      AccountPass(pass, &pc);
    }
    if (!measured) continue;
    const double ms = NsToMs(t1 - t0);
    op_ms.Add(t0, ms);
    (t != nullptr ? traced_ms : untraced_ms).Add(ms);

    // Untimed: did the op flip the plan (an operator changed, not only a
    // cost), and every 64th op the from-scratch oracle.
    iqro::PlanDigest digest;
    {
      ScopedSpan span(t, SpanKind::kCoreDigest, i);
      digest = opt->ComputePlanDigest();
    }
    if (iqro::DiffPlanDigests(last[static_cast<size_t>(op.query)], digest).changed_operators > 0) {
      plan_ms.Add(t0, ms);
    }
    last[static_cast<size_t>(op.query)] = std::move(digest);
    ++r.attempted;
    if (i % kOracleEvery == kOracleEvery - 1) {
      auto fresh = FreshTpchAt(tpch.get(), kQueries[op.query], *w.registry);
      const auto scratch =
          ScratchCanonicals(&fresh->registry, fresh->enumerator.get(), 1, &scratch_us);
      r.mismatches += CountMismatches(w, scratch, o.Repro());
    }
  }
  for (size_t q = 0; q < worlds.size(); ++q) {
    auto fresh = FreshTpchAt(tpch.get(), kQueries[q], *worlds[q]->registry);
    const auto scratch = ScratchCanonicals(&fresh->registry, fresh->enumerator.get(), 1, &scratch_us);
    r.mismatches += CountMismatches(*worlds[q], scratch, o.Repro());
  }
  r.failed = r.mismatches;

  MetricSet& m = r.metrics;
  if (!o.trace) {
    m.Set("op_p50_ms", op_ms.P(0.50), "ms");
    m.Set("op_p90_ms", op_ms.P(0.90), "ms");
    m.Set("ops_per_s", op_ms.PerSecondOfSum(), "1/s");
    m.Set("plan_p50_ms", plan_ms.P(0.50), "ms");
    m.Set("plan_p90_ms", plan_ms.P(0.90), "ms");
    m.Set("setup_s", setup_s.Median(), "s");
    m.Set("rss_mb", MaxRssMb(), "MB");
    r.notes.push_back("engine_churn: " + std::to_string(op_ms.size()) + " ops in " +
                      std::to_string(op_ms.windows()) + " windows, " +
                      std::to_string(plan_ms.size()) + " plan flips, " +
                      std::to_string(scratch_us.size()) + " oracle checks");
    return r;
  }
  int64_t peak = 0;
  for (auto& w : worlds) peak += w->queries[0].optimizer->metrics().peak_memo_bytes;
  AddCoreMetrics(*tracer, pc, scratch_us, optimize_ms, peak, &m);
  m.Set("trace.overhead_pct", 100.0 * (SafeRatio(traced_ms.Median(), untraced_ms.Median()) - 1),
        "%");
  AddDecomposition("engine_churn decomposition",
                   {{"op", tracer->Durations(SpanKind::kOp).Median() / 1e6},
                    {"  stats.record", tracer->Durations(SpanKind::kStatsRecord).Median() / 1e6},
                    {"  stats.drain", tracer->Durations(SpanKind::kStatsDrain).Median() / 1e6},
                    {"  core.reopt", tracer->Durations(SpanKind::kCoreReopt).Median() / 1e6},
                    {"op self", tracer->SelfTimes(SpanKind::kOp).Median() / 1e6}},
                   {{0, 3}}, &r);
  if (!o.trace_file.empty()) tracer->WriteCsv(o.trace_file);
  return r;
}

}  // namespace bench_suite

#endif  // BENCH_SUITE_SUITE_ENGINE_CHURN_H_
