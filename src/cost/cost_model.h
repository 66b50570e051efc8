// CostModel: the paper's Fn_scancost / Fn_nonscancost / Fn_sum. All costs
// read summaries and scan-cost multipliers through the live StatsRegistry,
// so a registry update immediately changes the costs this model reports —
// that is the signal the incremental re-optimizer propagates.
#ifndef IQRO_COST_COST_MODEL_H_
#define IQRO_COST_COST_MODEL_H_

#include "cost/physical.h"
#include "cost/prop_table.h"
#include "stats/summary.h"

namespace iqro {

/// Cost coefficients; one abstract "cost unit" ~ one simple per-tuple step.
/// The defaults are calibrated against the repository's own executor
/// (hash indexes make "random" probes cheap; producing an output row —
/// allocation + column scatter — dominates per-tuple work).
struct CostParams {
  double tuple_cpu = 1.0;       // per-tuple pipeline step
  double seq_read = 1.0;        // per-row sequential access
  double rand_read = 1.8;       // per index probe (hash lookup)
  double hash_build = 2.0;      // per build-side row
  double hash_probe = 1.2;      // per probe-side row
  double merge_cpu = 1.0;       // per row of either merge input
  double sort_cpu = 0.4;        // x n log2(n)
  double nl_pair_cpu = 0.25;    // per examined pair in a nested-loop join
  double output_row = 2.5;      // per produced join output row
  double index_ref = 8.0;       // fixed cost of opening an index handle

  bool operator==(const CostParams&) const = default;
};

class CostModel {
 public:
  CostModel(const SummaryCalculator* summaries, CostParams params = CostParams{});

  const SummaryCalculator& summaries() const { return *summaries_; }
  const CostParams& params() const { return params_; }

  /// Fn_scancost: full cost of a leaf alternative producing relation `rel`
  /// (singleton expression) via `op`. Includes the relation's scan-cost
  /// multiplier from the registry.
  double ScanCost(int rel, PhysOp op) const;

  /// Fn_nonscancost for a join alternative: local (root-operator-only) cost
  /// of joining `left` and `right` into `out = left | right` using `op`.
  double JoinLocalCost(PhysOp op, RelSet left, RelSet right) const;

  /// Fn_nonscancost for the sort enforcer over expression `e`.
  double SortLocalCost(RelSet e) const;

  /// Fn_sum.
  static double Sum(double left, double right, double local) {
    return left + right + local;
  }

 private:
  const SummaryCalculator* summaries_;
  CostParams params_;
};

}  // namespace iqro

#endif  // IQRO_COST_COST_MODEL_H_
