// JsonMetricsExporter: a MetricsExporter (service/metrics_exporter.h) that
// accumulates a session's FlushReports into the JSON dialect the bench
// reports use (bench_util/json_report), so flush trajectories land next to
// BENCH_*.json artifacts and diff the same way.
#ifndef IQRO_BENCH_UTIL_JSON_METRICS_EXPORTER_H_
#define IQRO_BENCH_UTIL_JSON_METRICS_EXPORTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "service/metrics_exporter.h"

namespace iqro {

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

#endif  // IQRO_BENCH_UTIL_JSON_METRICS_EXPORTER_H_
