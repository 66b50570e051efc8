// The metric vocabulary (names and units, identical to BENCHMARK.json), run
// options, and the result line. Every run prints every metric of its kind:
// end-to-end metrics when untraced, per-layer metrics when traced. A
// per-layer metric of a layer the workload does not reach reads 0.
#ifndef BENCH_SUITE_SUITE_REPORT_H_
#define BENCH_SUITE_SUITE_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "suite/measure.h"

namespace bench_suite {

struct MetricDecl {
  std::string name;
  std::string unit;
};

inline const std::vector<MetricDecl>& EndToEndMetrics() {
  static const std::vector<MetricDecl> kDecls = {
      {"op_p50_ms", "ms"},   {"op_p90_ms", "ms"}, {"ops_per_s", "1/s"}, {"plan_p50_ms", "ms"},
      {"plan_p90_ms", "ms"}, {"setup_s", "s"},    {"rss_mb", "MB"},
  };
  return kDecls;
}

/// The ingest workload's open-loop rate ladder, in RecordStatBatch/s.
inline const std::vector<int>& LadderRates() {
  static const std::vector<int> kRates = {500, 1000, 2000, 4000, 8000, 16000, 32000, 64000};
  return kRates;
}

inline const std::vector<MetricDecl>& PerLayerMetrics() {
  static const std::vector<MetricDecl> kDecls = [] {
    std::vector<MetricDecl> d = {
        {"core.reopt_us.p50", "us"},
        {"core.reopt_us.p99", "us"},
        {"core.scratch_us.p50", "us"},
        {"core.reopt_vs_scratch", "ratio"},
        {"core.digest_us.p50", "us"},
        {"core.steps_per_pass", "count"},
        {"core.touched_eps_per_pass", "count"},
        {"core.touched_alts_per_pass", "count"},
        {"core.eps_seeded_per_pass", "count"},
        {"core.eps_scanned_per_pass", "count"},
        {"core.touched_eps_frac", "ratio"},
        {"core.seed_precision", "ratio"},
        {"core.dedup_ratio", "ratio"},
        {"core.memo_hit_ratio", "ratio"},
        {"core.peak_memo_bytes", "bytes"},
        {"core.optimize_ms.p50", "ms"},
        {"stats.record_ns.p50", "ns"},
        {"stats.drain_us.p50", "us"},
        {"stats.coalesce_ratio", "ratio"},
        {"service.flush_ms.p50", "ms"},
        {"service.flush_ms.p99", "ms"},
        {"service.self_ms.p50", "ms"},
        {"service.passes_per_flush", "count"},
        {"service.skip_ratio", "ratio"},
        {"service.events_per_flush", "count"},
        {"service.empty_flush_ratio", "ratio"},
        {"service.summary_hit_ratio", "ratio"},
        {"shard.flush_call_ms.p50", "ms"},
        {"shard.flush_call_ms.p99", "ms"},
        {"shard.ops_per_s", "1/s"},
        {"shard.hop_ms.p50", "ms"},
        {"shard.query_skew", "ratio"},
        {"shard.record_call_us.p50", "us"},
        {"shard.flushes_per_s", "1/s"},
        {"shard.changes_per_flush", "count"},
        {"wire.encode_ns.record_batch", "ns"},
        {"wire.decode_ns.record_batch", "ns"},
        {"wire.encode_ns.plan_change", "ns"},
        {"wire.decode_ns.server_msg", "ns"},
        {"wire.bytes.record_batch", "bytes"},
        {"wire.bytes_per_flush", "bytes"},
        {"client.record_rtt_us.p50", "us"},
        {"client.record_rtt_us.p99", "us"},
        {"client.flush_rtt_ms.p50", "ms"},
        {"client.flush_rtt_ms.p99", "ms"},
        {"client.events_per_flush", "count"},
        {"daemon.self_ms.p50", "ms"},
        {"daemon.serialization", "ratio"},
        {"ingest.max_rate_bps", "1/s"},
        {"ingest.saturated_bps", "1/s"},
    };
    for (int rate : LadderRates()) {
      const std::string r = std::to_string(rate);
      d.push_back({"client.ack_p99_ms." + r, "ms"});
      d.push_back({"client.plan_p99_ms." + r, "ms"});
      d.push_back({"client.probe_miss_ratio." + r, "ratio"});
      d.push_back({"gen.late_p99_ms." + r, "ms"});
      d.push_back({"shard.drain_ms." + r, "ms"});
    }
    d.push_back({"trace.overhead_pct", "%"});
    return d;
  }();
  return kDecls;
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 28;
  bool trace = false;
  std::string trace_file;  // traced runs: write every span here as CSV

  /// The command line that reproduces this run.
  std::string Repro() const {
    return "python3 bench_suite/run.py --workload " + workload + " --seed " +
           std::to_string(seed) + " --seconds " + std::to_string(static_cast<int>(seconds)) +
           " --trace " + (trace ? "1" : "0");
  }
};

/// Set-up repetitions per untraced run; setup_s is their median.
inline constexpr int kSetupReps = 15;

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;  // oracle disagreements (also counted in failed)
  MetricSet metrics;
  std::vector<std::string> notes;  // human-readable lines printed before the result

  bool correct() const { return mismatches == 0 && attempted > 0; }
};

/// Appends "name p50" rows and a check that no child span's p50 exceeds
/// its parent's by more than 10% on the same op stream.
inline void AddDecomposition(const std::string& title,
                             const std::vector<std::pair<std::string, double>>& rows_ms,
                             const std::vector<std::pair<size_t, size_t>>& parent_child,
                             RunResult* r) {
  r->notes.push_back(title + " (p50, ms):");
  for (const auto& [name, ms] : rows_ms) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "  %-28s %12.6f", name.c_str(), ms);
    r->notes.push_back(buf);
  }
  for (const auto& [p, c] : parent_child) {
    const bool ok = rows_ms[c].second <= 1.10 * rows_ms[p].second;
    r->notes.push_back(std::string("  check ") + rows_ms[c].first + " <= 1.1 x " +
                       rows_ms[p].first + ": " + (ok ? "ok" : "VIOLATED"));
  }
}

/// Prints every declared metric of the run's kind, one per line, then the
/// result as one JSON object on the last line of stdout. Returns false when
/// an end-to-end metric was never measured (a bug in the workload).
inline bool PrintResult(const RunOptions& opts, const RunResult& r) {
  const std::vector<MetricDecl>& decls = opts.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const std::string& line : r.notes) std::printf("%s\n", line.c_str());
  bool complete = true;
  std::string json = "{\"correct\": " + std::string(r.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < decls.size(); ++i) {
    const MetricDecl& d = decls[i];
    if (!opts.trace && !r.metrics.Has(d.name)) {
      std::fprintf(stderr, "bench_suite: workload %s did not measure %s\n", opts.workload.c_str(),
                   d.name.c_str());
      complete = false;
    }
    const double v = r.metrics.Get(d.name);
    std::printf("  %-32s %14.6g %s\n", d.name.c_str(), v, d.unit.c_str());
    json += (i == 0 ? "" : ", ") + JsonString(d.name) + ": {\"value\": " + JsonNumber(v) +
            ", \"unit\": " + JsonString(d.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return complete;
}

}  // namespace bench_suite

#endif  // BENCH_SUITE_SUITE_REPORT_H_
