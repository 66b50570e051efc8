#include "aqp/adaptive.h"

#include <chrono>

#include "common/check.h"
#include "exec/feedback.h"

namespace iqro {

namespace {
double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}
}  // namespace

AdaptiveStreamProcessor::AdaptiveStreamProcessor(SegTollSetup* setup, AqpOptions options)
    : setup_(setup), options_(options) {
  // "Zero statistical information" start (§5.4): bind against the (empty)
  // windows; defaults apply everywhere.
  world_ = MakeQueryContext(&setup_->catalog, setup_->query, CollectCatalogStats(setup_->catalog));
  optimizer_ = std::make_unique<DeclarativeOptimizer>(
      world_->enumerator.get(), world_->cost_model.get(), &world_->registry,
      options_.optimizer_options);
}

AdaptiveStreamProcessor::~AdaptiveStreamProcessor() = default;

void AdaptiveStreamProcessor::SetFixedPlan(std::unique_ptr<PlanTree> plan) {
  IQRO_CHECK(options_.reopt == AqpOptions::ReoptMode::kNone);
  current_plan_ = std::move(plan);
}

void AdaptiveStreamProcessor::RefreshWindowStatistics() {
  // Window cardinalities are known exactly at a split point; local
  // predicate selectivities are re-estimated from the live window.
  for (int r = 0; r < setup_->query.num_relations(); ++r) {
    const Table& t = setup_->windows[static_cast<size_t>(r)]->table();
    const double rows = std::max<double>(1.0, t.num_rows());
    if (rows != world_->registry.base_rows(r)) world_->registry.SetBaseRows(r, rows);
    const auto locals = setup_->query.LocalsOf(r);
    if (!locals.empty() && t.num_rows() > 0) {
      int64_t pass = 0;
      Layout layout(RelSingleton(r), setup_->query, setup_->catalog);
      Row row;
      for (uint32_t i = 0; i < t.num_rows(); ++i) {
        auto stored = t.Row(i);
        row.assign(stored.begin(), stored.end());
        bool ok = true;
        for (const auto& p : locals) {
          if (!EvalLocalPredicate(p, row, layout)) {
            ok = false;
            break;
          }
        }
        if (ok) ++pass;
      }
      double sel = std::max(1e-6, static_cast<double>(pass) / static_cast<double>(rows));
      if (std::abs(sel - world_->registry.local_selectivity(r)) > 1e-9) {
        world_->registry.SetLocalSelectivity(r, sel);
      }
    }
  }
}

SliceReport AdaptiveStreamProcessor::ProcessSlice(const std::vector<CarLocEvent>& batch,
                                                  int64_t now) {
  SliceReport report;
  report.slice = slice_count_;

  setup_->Advance(batch, now);
  RefreshWindowStatistics();
  for (const auto& w : setup_->windows) report.window_rows += w->size();

  // ---- re-optimization at the split point ----
  auto reopt_start = std::chrono::steady_clock::now();
  std::unique_ptr<PlanTree> new_plan;
  switch (options_.reopt) {
    case AqpOptions::ReoptMode::kIncremental: {
      if (slice_count_ == 0) {
        optimizer_->Optimize();
      } else {
        optimizer_->Reoptimize();
      }
      new_plan = optimizer_->GetBestPlan();
      report.touched_eps = optimizer_->metrics().round_touched_eps;
      break;
    }
    case AqpOptions::ReoptMode::kScratch: {
      world_->registry.TakePending();  // a full re-optimization consumes all deltas
      VolcanoOptimizer volcano(world_->enumerator.get(), world_->cost_model.get());
      volcano.Optimize();
      new_plan = volcano.GetBestPlan();
      break;
    }
    case AqpOptions::ReoptMode::kScratchDeclarative: {
      world_->registry.TakePending();
      DeclarativeOptimizer fresh(world_->enumerator.get(), world_->cost_model.get(),
                                 &world_->registry, options_.optimizer_options);
      fresh.Optimize();
      new_plan = fresh.GetBestPlan();
      break;
    }
    case AqpOptions::ReoptMode::kNone: {
      world_->registry.TakePending();
      IQRO_CHECK(current_plan_ != nullptr);  // SetFixedPlan first
      break;
    }
  }
  report.reopt_ms = ElapsedMs(reopt_start);

  if (new_plan != nullptr) {
    report.plan_changed =
        current_plan_ == nullptr || !new_plan->SameShape(*current_plan_);
    // Plan switch: window state carries over; per-plan operator state is
    // rebuilt by the slice executor ([26]-style migration by rebuild).
    current_plan_ = std::move(new_plan);
  }
  report.estimated_cost = current_plan_->cost;

  // ---- execute the slice over the current windows ----
  auto exec_start = std::chrono::steady_clock::now();
  Executor executor(&setup_->catalog, &setup_->query, world_->graph.get(), &world_->props);
  ExecutionResult result = executor.Execute(*current_plan_, /*collect_rows=*/false);
  report.exec_ms = ElapsedMs(exec_start);
  report.output_rows = result.root_rows;

  // ---- statistics feedback for the next split point ----
  const double blend =
      options_.cumulative_stats ? 1.0 / static_cast<double>(slice_count_ + 1) : 1.0;
  ApplyObservedCardinalities(result.observed, &world_->registry, blend,
                             options_.feedback_deadband);

  ++slice_count_;
  return report;
}

}  // namespace iqro
