#include "bench_util/json_metrics_exporter.h"

#include "bench_util/json_report.h"

namespace iqro {

namespace {

bench::JsonObj ReportJson(const FlushReport& r) {
  bench::JsonObj opt;
  opt.Put("passes", r.opt.passes)
      .Put("eps_seeded", r.opt.eps_seeded)
      .Put("eps_scanned", r.opt.eps_scanned)
      .Put("fixpoint_steps", r.opt.fixpoint_steps)
      .Put("best_changes", r.opt.best_changes)
      .Put("rebest_eps", r.opt.rebest_eps)
      .Put("touched_eps", r.opt.touched_eps)
      .Put("touched_alts", r.opt.touched_alts)
      .Put("tasks_enqueued", r.opt.tasks_enqueued);
  bench::JsonObj session;
  session.Put("mutations_observed", r.session.mutations_observed)
      .Put("flushes", r.session.flushes)
      .Put("empty_flushes", r.session.empty_flushes)
      .Put("changes_flushed", r.session.changes_flushed)
      .Put("reopt_passes", r.session.reopt_passes)
      .Put("queries_skipped", r.session.queries_skipped)
      .Put("eps_seeded", r.session.eps_seeded)
      .Put("plan_changes", r.session.plan_changes)
      .Put("quarantines", r.session.quarantines)
      .Put("rehabilitations", r.session.rehabilitations)
      .Put("queries_parked", r.session.queries_parked)
      .Put("evictions", r.session.evictions)
      .Put("rehydrations", r.session.rehydrations)
      .Put("resident_memo_bytes", r.session.resident_memo_bytes);
  bench::JsonObj obj;
  obj.Put("flush_index", r.flush_index)
      .Put("flush_epoch", static_cast<int64_t>(r.flush_epoch))
      .Put("changes", r.changes)
      .Put("queries", r.queries)
      .Put("queries_skipped", r.queries_skipped)
      .Put("plan_changes", r.plan_changes)
      .Put("queries_quarantined", r.queries_quarantined)
      .Put("quarantines", r.quarantines)
      .Put("rehabilitations", r.rehabilitations)
      .Put("evictions", r.evictions)
      .Put("rehydrations", r.rehydrations)
      .Put("resident_memo_bytes", r.resident_memo_bytes)
      .Put("summary_shared_hits", r.summary_shared_hits)
      .Put("summary_shared_misses", r.summary_shared_misses)
      .Put("flush_ms", r.flush_ms)
      .Put("opt", opt)
      .Put("session", session);
  return obj;
}

bench::JsonArr ReportsArr(const std::vector<FlushReport>& reports) {
  bench::JsonArr arr;
  for (const FlushReport& r : reports) arr.Add(ReportJson(r));
  return arr;
}

}  // namespace

void JsonMetricsExporter::OnFlushMetrics(const FlushReport& report) {
  reports_.push_back(report);
}

std::string JsonMetricsExporter::ToJson() const { return ReportsArr(reports_).ToString(); }

void JsonMetricsExporter::WriteBenchReport(const std::string& name) const {
  bench::JsonObj root;
  root.Put("flushes", ReportsArr(reports_));
  bench::WriteBenchJson(name, root);
}

}  // namespace iqro
