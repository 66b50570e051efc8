// AdaptiveStreamProcessor: the cost-based adaptive query processing loop of
// §5.4 — the data-partitioned model of [15]: execution pauses at slice
// boundaries ("split points"), runtime statistics feed the optimizer, and
// the plan may change for the next slice. Window state persists across
// plan switches ([26]-style migration: windows carry over, join hash state
// is rebuilt for the new plan — see DESIGN.md §4).
//
// The re-optimizer inside the loop is pluggable: the paper's incremental
// declarative optimizer, a from-scratch procedural optimizer (the
// "Tukwila-style non-incremental" baseline of Fig. 9), or none (the static
// good/bad plans of Fig. 10).
#ifndef IQRO_AQP_ADAPTIVE_H_
#define IQRO_AQP_ADAPTIVE_H_

#include <memory>
#include <vector>

#include "baseline/volcano.h"
#include "core/declarative_optimizer.h"
#include "exec/executor.h"
#include "stream/segtoll.h"
#include "workload/context.h"

namespace iqro {

struct AqpOptions {
  enum class ReoptMode {
    kIncremental,         // persistent DeclarativeOptimizer + Reoptimize()
    kScratch,             // fresh Volcano optimization every slice
    kScratchDeclarative,  // fresh declarative optimization every slice
                          // (isolates incrementality from engine constants)
    kNone,                // fixed plan (set via SetFixedPlan)
  };
  ReoptMode reopt = ReoptMode::kIncremental;
  /// Cumulative statistics average observations over all slices; non-
  /// cumulative snaps to the latest slice (Fig. 10's two AQP variants).
  bool cumulative_stats = true;
  /// Relative feedback corrections below this threshold are ignored —
  /// converged statistics stop producing optimizer deltas entirely.
  double feedback_deadband = 0.02;
  OptimizerOptions optimizer_options = OptimizerOptions::Default();
};

struct SliceReport {
  int64_t slice = 0;
  double reopt_ms = 0;      // time spent producing this slice's plan
  double exec_ms = 0;       // time spent executing the slice
  int64_t output_rows = 0;
  int64_t window_rows = 0;  // total rows across the five windows
  bool plan_changed = false;
  double estimated_cost = 0;
  int64_t touched_eps = 0;  // incremental mode: state touched by the re-opt
};

class AdaptiveStreamProcessor {
 public:
  AdaptiveStreamProcessor(SegTollSetup* setup, AqpOptions options);
  ~AdaptiveStreamProcessor();

  /// Fixes the executed plan (ReoptMode::kNone). The plan must come from a
  /// processor over the same query (e.g. a prior adaptive run).
  void SetFixedPlan(std::unique_ptr<PlanTree> plan);

  /// Ingests one slice of events ending at logical time `now`, produces
  /// the slice's plan per the re-optimization mode, executes it over the
  /// current windows, and feeds observed statistics back.
  SliceReport ProcessSlice(const std::vector<CarLocEvent>& batch, int64_t now);

  const PlanTree* current_plan() const { return current_plan_.get(); }
  const DeclarativeOptimizer* optimizer() const { return optimizer_.get(); }
  StatsRegistry& registry() { return world_->registry; }
  const PropTable& props() const { return world_->props; }

 private:
  void RefreshWindowStatistics();

  SegTollSetup* setup_;
  AqpOptions options_;
  std::unique_ptr<QueryContext> world_;
  std::unique_ptr<DeclarativeOptimizer> optimizer_;
  std::unique_ptr<PlanTree> current_plan_;
  int64_t slice_count_ = 0;
};

}  // namespace iqro

#endif  // IQRO_AQP_ADAPTIVE_H_
