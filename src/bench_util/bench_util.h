// Shared helpers for the figure/table reproduction binaries: aligned table
// printing, repetition timing, and TPC-H query contexts.
#ifndef IQRO_BENCH_UTIL_BENCH_UTIL_H_
#define IQRO_BENCH_UTIL_BENCH_UTIL_H_

#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/json_report.h"
#include "workload/context.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"
#include "workload/world.h"

namespace iqro::bench {

/// Fixed-width console table; prints a title, header row and data rows.
class TablePrinter {
 public:
  TablePrinter(std::string title, std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

  /// {"title":..., "headers":[...], "rows":[[...], ...]} for the JSON report.
  JsonObj ToJson() const;

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// The common report scaffolding: {"bench": name, "metrics": ..., "tables":
/// [...]}. Benches append their extra fields to the returned object, then
/// hand it to WriteBenchJson(name, root). Keeping the scaffold here means a
/// schema change edits one function, not every bench binary.
JsonObj BenchRoot(const std::string& name, const JsonObj& metrics,
                  std::initializer_list<const TablePrinter*> tables);

/// Formats `v` with `digits` fractional digits.
std::string Num(double v, int digits = 2);

/// Median wall time of `fn` over `reps` runs, in milliseconds.
double MedianMs(int reps, const std::function<void()>& fn);

/// The p-th percentile (p in [0, 1], nearest-rank with rounding) of the
/// samples in `v`; 0 on an empty vector. Takes `v` by value and sorts the
/// copy. The latency-percentile helper shared by bench_adversarial and
/// bench_daemon_load.
double Percentile(std::vector<double> v, double p);

/// Wall time of one run of `fn`, in milliseconds.
double OnceMs(const std::function<void()>& fn);

/// Wires a QueryContext for `query_name` over the fixture.
std::unique_ptr<QueryContext> MakeContext(const TpchFixture& fixture,
                                          const std::string& query_name);

}  // namespace iqro::bench

#endif  // IQRO_BENCH_UTIL_BENCH_UTIL_H_
