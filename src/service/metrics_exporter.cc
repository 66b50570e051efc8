#include "service/metrics_exporter.h"

#include <cstdio>

#include "bench_util/json_report.h"

namespace iqro {

namespace {

/// One exposition sample with its # TYPE header. Values are int64 counters
/// and gauges; %lld keeps them exact (no %g rounding).
void PromSample(std::string* out, const char* name, const char* type, const std::string& labels,
                int64_t value) {
  out->append("# TYPE ");
  out->append(name);
  out->push_back(' ');
  out->append(type);
  out->push_back('\n');
  out->append(name);
  if (!labels.empty()) {
    out->push_back('{');
    out->append(labels);
    out->push_back('}');
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), " %lld\n", static_cast<long long>(value));
  out->append(buf);
}

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

std::string PrometheusSessionText(const ReoptSessionMetrics& m, const std::string& labels) {
  std::string out;
  PromSample(&out, "iqro_session_mutations_observed_total", "counter", labels,
             m.mutations_observed);
  PromSample(&out, "iqro_session_flushes_total", "counter", labels, m.flushes);
  PromSample(&out, "iqro_session_empty_flushes_total", "counter", labels, m.empty_flushes);
  PromSample(&out, "iqro_session_changes_flushed_total", "counter", labels, m.changes_flushed);
  PromSample(&out, "iqro_session_reopt_passes_total", "counter", labels, m.reopt_passes);
  PromSample(&out, "iqro_session_queries_skipped_total", "counter", labels, m.queries_skipped);
  PromSample(&out, "iqro_session_eps_seeded_total", "counter", labels, m.eps_seeded);
  PromSample(&out, "iqro_session_plan_changes_total", "counter", labels, m.plan_changes);
  PromSample(&out, "iqro_session_quarantines_total", "counter", labels, m.quarantines);
  PromSample(&out, "iqro_session_rehabilitations_total", "counter", labels, m.rehabilitations);
  PromSample(&out, "iqro_session_queries_parked_total", "counter", labels, m.queries_parked);
  PromSample(&out, "iqro_session_evictions_total", "counter", labels, m.evictions);
  PromSample(&out, "iqro_session_rehydrations_total", "counter", labels, m.rehydrations);
  PromSample(&out, "iqro_session_resident_memo_bytes", "gauge", labels, m.resident_memo_bytes);
  return out;
}

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
