// MetricsExporter: the session's flush-level counters, wired out.
//
// ReoptSession::last_flush() has always exposed the most recent flush's
// aggregated OptMetrics, but nothing *collected* the sequence — the
// ROADMAP's "wire it to a reporter" item. A MetricsExporter attached via
// ReoptSessionOptions receives one FlushReport per dispatched (non-empty)
// flush, on the flushing thread, after subscribers have been notified; the
// shipped JsonMetricsExporter accumulates them into the same JSON dialect
// the bench reports use (bench_util/json_report), so flush trajectories
// land next to BENCH_*.json artifacts and diff the same way.
#ifndef IQRO_SERVICE_METRICS_EXPORTER_H_
#define IQRO_SERVICE_METRICS_EXPORTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "service/session_metrics.h"

namespace iqro {

/// One dispatched flush, summarized. Values are snapshots taken after the
/// flush completed: events delivered and deferred unregistrations already
/// applied (`queries` still counts the dispatch-time registrations).
struct FlushReport {
  /// Ordinal of this flush (ReoptSessionMetrics::flushes after it).
  int64_t flush_index = 0;
  /// Registry epoch of the drained batch.
  uint64_t flush_epoch = 0;
  /// Coalesced StatChanges dispatched (> 0 by construction).
  int64_t changes = 0;
  /// Registered queries at dispatch time / queries the prefilter skipped.
  int64_t queries = 0;
  int64_t queries_skipped = 0;
  /// PlanChangeEvents delivered by this flush.
  int64_t plan_changes = 0;
  /// Registered queries not dispatched because they are quarantined or
  /// parked (snapshot at dispatch time).
  int64_t queries_quarantined = 0;
  /// Strikes this flush recorded (failed passes + failed rebuilds).
  int64_t quarantines = 0;
  /// Rehabilitations this flush performed.
  int64_t rehabilitations = 0;
  /// Memo lifecycle activity of this flush: budget evictions performed and
  /// evicted queries rehydrated (seed restore or rebuild fallback).
  int64_t evictions = 0;
  int64_t rehydrations = 0;
  /// Estimated resident memo bytes after this flush's budget enforcement
  /// (ReoptSessionMetrics::resident_memo_bytes at report time).
  int64_t resident_memo_bytes = 0;
  /// Cumulative shared-summary-cache outcomes at report time
  /// (ReoptSession::summary_cache() — cross-query summary sharing).
  int64_t summary_shared_hits = 0;
  int64_t summary_shared_misses = 0;
  /// Wall-clock duration of this flush (drain through delivery and budget
  /// enforcement), measured on the flushing thread. The stream-churn bench
  /// derives its flush-latency percentiles from this.
  double flush_ms = 0;
  /// Aggregated OptMetrics of the dispatched passes.
  FlushOptStats opt;
  /// Cumulative session counters after this flush.
  ReoptSessionMetrics session;
};

/// Prometheus text-exposition rendering of one cumulative session counter
/// snapshot: one `iqro_session_<counter>` sample per ReoptSessionMetrics
/// field (counters suffixed `_total`, the residency gauge bare), each
/// preceded by its `# TYPE` header. `labels` is a pre-rendered label body
/// ('shard="0"') spliced into every sample, or empty for none. The
/// daemon's GET /metrics scrape renders each shard's session with it.
std::string PrometheusSessionText(const ReoptSessionMetrics& m, const std::string& labels);

class MetricsExporter {
 public:
  virtual ~MetricsExporter() = default;
  /// Called once per dispatched flush, on the flushing thread, after
  /// subscriber notification — even when a subscriber callback threw (the
  /// flush did dispatch; the report is owed). Must not call back into the
  /// session, mutate the registry, or throw (invoked from the flush
  /// epilogue's destructor).
  virtual void OnFlushMetrics(const FlushReport& report) = 0;
};

/// Accumulates FlushReports and renders them as a JSON array (insertion
/// order == flush order) via bench_util's serializer. Not thread-safe
/// beyond the session contract (one flush at a time); attach one exporter
/// per session.
class JsonMetricsExporter final : public MetricsExporter {
 public:
  void OnFlushMetrics(const FlushReport& report) override;

  int64_t num_reports() const { return static_cast<int64_t>(reports_.size()); }
  const std::vector<FlushReport>& reports() const { return reports_; }

  /// The accumulated reports as a JSON array literal.
  std::string ToJson() const;

  /// Writes `{"flushes": [...]}` to BENCH_<name>.json via
  /// bench_util/json_report (honors $IQRO_BENCH_OUT_DIR).
  void WriteBenchReport(const std::string& name) const;

 private:
  std::vector<FlushReport> reports_;
};

}  // namespace iqro

#endif  // IQRO_SERVICE_METRICS_EXPORTER_H_
