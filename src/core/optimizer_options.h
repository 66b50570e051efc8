// Pruning-technique toggles (§3) and execution knobs of the declarative
// optimizer. The paper's evaluated configurations map to:
//
//   AggSel                -> UseAggSel()            (aggregate selection +
//                                                    tuple source suppression)
//   AggSel+RefCount       -> UseAggSelRefCount()
//   AggSel+Branch&Bound   -> UseAggSelBounding()
//   All                   -> Default()
//   Evita-Raced style     -> UseEvitaRaced()        (aggregate selection only,
//                                                    no suppression/refcount/bounds)
//   no pruning            -> UseNoPruning()
#ifndef IQRO_CORE_OPTIMIZER_OPTIONS_H_
#define IQRO_CORE_OPTIMIZER_OPTIONS_H_

#include <cstdint>

namespace iqro {

/// Work-queue discipline; pruning effectiveness depends on exploration
/// order (§3.1), so this is a first-class ablation knob. Initial
/// optimization drains one queue in this order. A ReoptimizeBatch pass
/// drains by ascending |expr| instead and applies the discipline within
/// each level (see DeclarativeOptimizer::ReoptimizeBatch).
enum class QueueDiscipline : uint8_t {
  kLifo,  // depth-first-like; default (best pruning in initial optimization)
  kFifo,  // breadth-first-like
};

struct OptimizerOptions {
  /// §3.1: only propagate a PlanCost that beats the group's current best;
  /// losers are retained in the aggregate but leave the pipeline.
  bool use_agg_selection = true;
  /// §3.1: map pruned PlanCost tuples to deletions of their SearchSpace
  /// source rows, cutting off (or undoing) subtree exploration.
  /// Requires use_agg_selection.
  bool use_source_suppression = true;
  /// §3.2: garbage-collect (expr, prop) entries whose parent plans are all
  /// pruned. Requires use_source_suppression.
  bool use_ref_counting = true;
  /// §3.3: recursive bounding (order-independent branch-and-bound).
  /// Requires use_agg_selection.
  bool use_bounding = true;

  QueueDiscipline discipline = QueueDiscipline::kLifo;

  /// Safety valve for the fixpoint loop.
  uint64_t max_steps = 500'000'000;

  static OptimizerOptions Default() { return OptimizerOptions{}; }

  static OptimizerOptions UseAggSel() {
    OptimizerOptions o;
    o.use_ref_counting = false;
    o.use_bounding = false;
    return o;
  }

  static OptimizerOptions UseAggSelRefCount() {
    OptimizerOptions o;
    o.use_bounding = false;
    return o;
  }

  static OptimizerOptions UseAggSelBounding() {
    OptimizerOptions o;
    o.use_ref_counting = false;
    return o;
  }

  /// The pruning level of the Evita Raced declarative optimizer [8]:
  /// prune only against logically equivalent plans for the same output
  /// properties; never delete SearchSpace rows or plan-table entries.
  static OptimizerOptions UseEvitaRaced() {
    OptimizerOptions o;
    o.use_source_suppression = false;
    o.use_ref_counting = false;
    o.use_bounding = false;
    return o;
  }

  static OptimizerOptions UseNoPruning() {
    OptimizerOptions o;
    o.use_agg_selection = false;
    o.use_source_suppression = false;
    o.use_ref_counting = false;
    o.use_bounding = false;
    return o;
  }

  bool operator==(const OptimizerOptions&) const = default;

  bool Valid() const {
    if (use_source_suppression && !use_agg_selection) return false;
    if (use_ref_counting && !use_source_suppression) return false;
    if (use_bounding && !use_agg_selection) return false;
    return true;
  }
};

}  // namespace iqro

#endif  // IQRO_CORE_OPTIMIZER_OPTIONS_H_
