// session_hot_world: one hot world, where sharding cannot help. One thread,
// closed loop, TPC-H SF 0.01 Q5 with 64 optimizer configurations cycling
// the seven option sets, each with its own summary calculator, cost model
// and plan subscriber, in one serial ReoptSession (no pool, no timer: the
// daemon's per-world setup). An op is four seeded mutations, then Flush().
// The work is in the service (prefilter, dispatch, digest diff, notify,
// shared summary cache) and the core, with no socket. End-to-end metrics
// are taken per 3.5 s window (WindowedSamples).
#ifndef BENCH_SUITE_SUITE_SESSION_HOT_WORLD_H_
#define BENCH_SUITE_SUITE_SESSION_HOT_WORLD_H_

#include <memory>
#include <string>
#include <vector>

#include "suite/replay.h"
#include "suite/report.h"
#include "suite/trace.h"
#include "suite/worlds.h"

namespace bench_suite {

inline RunResult RunSessionHotWorld(const RunOptions& o) {
  constexpr int kConfigs = 64;
  constexpr uint64_t kOracleEvery = 32;
  constexpr double kWindowSeconds = 3.5;  // ~200 flushes, ~100 plan flips per window
  RunResult r;
  Samples setup_s;
  ServiceTotals totals;
  std::unique_ptr<Tpch> tpch;
  std::unique_ptr<SessionWorld> sw;
  for (int rep = 0; rep < (o.trace ? 1 : kSetupReps); ++rep) {
    sw.reset();
    tpch.reset();
    const int64_t t0 = NowNs();
    tpch = MakeTpch();
    sw = std::make_unique<SessionWorld>(MakeTpchWorld(tpch.get(), "Q5", kConfigs, &totals.optimize_ms));
    setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
  }
  World& w = *sw->world;

  std::vector<Batch> stream(4096);
  Rng rng = StreamRng(o.seed, 2);
  for (Batch& b : stream) {
    for (int k = 0; k < 4; ++k) b.push_back(TpchMutation(rng, *w.registry));
  }

  std::unique_ptr<Tracer> tracer = o.trace ? std::make_unique<Tracer>(1u << 21) : nullptr;
  // Traced runs peel the service off: each op is replayed right after it
  // on an identical world at the core level (drain, prefilter,
  // ReoptimizeBatch, digest per query), so both layers run the same op
  // under the same conditions.
  std::unique_ptr<CoreWorld> core =
      o.trace ? std::make_unique<CoreWorld>(MakeTpchWorld(tpch.get(), "Q5", kConfigs, nullptr))
              : nullptr;
  PassCounters warm;
  Samples traced_ms, untraced_ms, scratch_us;
  bool started = false;
  iqro::ReoptSessionMetrics m0;
  int64_t hits0 = 0;
  int64_t misses0 = 0;
  const int64_t warm_end = NowNs() + static_cast<int64_t>(1e9 * std::min(1.0, 0.1 * o.seconds));
  const double seconds = (o.trace ? 0.5 : 1.0) * o.seconds;
  const int64_t end = warm_end + static_cast<int64_t>(1e9 * seconds);
  WindowedSamples op_ms(warm_end, seconds, kWindowSeconds);
  WindowedSamples plan_ms(warm_end, seconds, kWindowSeconds);
  for (uint64_t i = 0;; ++i) {
    const int64_t now = NowNs();
    if (now >= end) break;
    const bool measured = now >= warm_end;
    if (measured && !started) {
      started = true;
      m0 = sw->session->metrics();
      hits0 = sw->session->summary_cache().hits();
      misses0 = sw->session->summary_cache().misses();
    }
    Tracer* t = tracer != nullptr && measured && i % 2 == 0 ? tracer.get() : nullptr;
    const Batch& batch = stream[i % stream.size()];
    sw->first_flip_ns = 0;
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(t, SpanKind::kOp, i);
      RecordBatch(w.registry, batch, t, i, span.id());
      ScopedSpan flush(t, SpanKind::kServiceFlush, i, span.id());
      sw->session->Flush();
    }
    const int64_t t1 = NowNs();
    if (core != nullptr) {
      Tracer* ct = measured ? tracer.get() : nullptr;
      RecordBatch(core->world->registry, batch, ct, i);
      CoreFlush(core->world.get(), ct, i, measured ? &totals.pc : &warm);
      if (measured) totals.pc.raw_mutations += static_cast<int64_t>(batch.size());
    }
    if (!measured) continue;
    const double ms = NsToMs(t1 - t0);
    op_ms.Add(t0, ms);
    (t != nullptr ? traced_ms : untraced_ms).Add(ms);
    if (sw->first_flip_ns != 0) plan_ms.Add(t0, NsToMs(sw->first_flip_ns - t0));
    ++r.attempted;
    if (i % kOracleEvery == kOracleEvery - 1) {
      auto fresh = FreshTpchAt(tpch.get(), "Q5", *w.registry);
      const auto scratch =
          ScratchCanonicals(&fresh->registry, fresh->enumerator.get(), kConfigs, &scratch_us);
      r.mismatches += CountMismatches(w, scratch, o.Repro());
    }
  }
  totals.AddSessionDelta(*sw->session, m0, hits0, misses0);
  {
    auto fresh = FreshTpchAt(tpch.get(), "Q5", *w.registry);
    const auto scratch =
        ScratchCanonicals(&fresh->registry, fresh->enumerator.get(), kConfigs, &scratch_us);
    r.mismatches += CountMismatches(w, scratch, o.Repro());
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
    r.notes.push_back("session_hot_world: " + std::to_string(op_ms.size()) + " flushes in " +
                      std::to_string(op_ms.windows()) + " windows, " +
                      std::to_string(plan_ms.size()) + " with a plan flip");
    return r;
  }

  for (const QueryOpt& q : w.queries) totals.peak_memo_bytes += q.optimizer->metrics().peak_memo_bytes;
  AddServiceMetrics(*tracer, totals, scratch_us, &m);
  m.Set("trace.overhead_pct", 100.0 * (SafeRatio(traced_ms.Median(), untraced_ms.Median()) - 1),
        "%");
  AddDecomposition(
      "session_hot_world decomposition",
      {{"op", tracer->Durations(SpanKind::kOp).Median() / 1e6},
       {"service.flush", m.Get("service.flush_ms.p50")},
       {"core.flush (replay)", tracer->Durations(SpanKind::kCoreFlush).Median() / 1e6},
       {"  stats.drain", tracer->Durations(SpanKind::kStatsDrain).Median() / 1e6},
       {"  core.reopt x passes", m.Get("core.reopt_us.p50") / 1e3 * m.Get("service.passes_per_flush")},
       {"  core.digest x passes", m.Get("core.digest_us.p50") / 1e3 * m.Get("service.passes_per_flush")},
       {"service self", m.Get("service.self_ms.p50")}},
      {{0, 1}, {1, 2}}, &r);
  if (!o.trace_file.empty()) tracer->WriteCsv(o.trace_file);
  return r;
}

}  // namespace bench_suite

#endif  // BENCH_SUITE_SUITE_SESSION_HOT_WORLD_H_
