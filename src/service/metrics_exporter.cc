#include "service/metrics_exporter.h"

#include <cstdio>

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

}  // namespace iqro
