// Counters the evaluation harness reads: exploration volume, pruning
// effectiveness, and per-re-optimization touched-state ratios (the paper's
// Figures 4-8 metrics).
#ifndef IQRO_CORE_METRICS_H_
#define IQRO_CORE_METRICS_H_

#include <cstdint>

namespace iqro {

struct OptMetrics {
  // Cumulative exploration counters.
  int64_t eps_enumerated = 0;      // distinct (expr, prop) pairs Fn_split ran on
  int64_t alts_created = 0;        // SearchSpace rows ever instantiated
  int64_t alts_full_costed = 0;    // distinct alternatives that got a full PlanCost
  int64_t cost_computations = 0;   // PlanCost (re)computations, incl. partial
  int64_t suppressions = 0;        // SearchSpace deletions (tuple source suppression)
  int64_t reintroductions = 0;     // SearchSpace re-insertions (§4.1 "undo")
  int64_t ep_gcs = 0;              // plan-table entries garbage-collected (§3.2)
  int64_t ep_activations = 0;      // refcount 0 -> 1 transitions
  int64_t steps = 0;               // fixpoint work items processed

  // Data-layer counters (perf engineering): memo table traffic, worklist
  // traffic, and the memo's peak resident footprint.
  int64_t memo_probes = 0;         // hot-path memo lookups (GetOrCreateEP only;
                                   // cold FindEP during plan extraction is not counted)
  int64_t memo_hits = 0;           // probes that found an existing entry
  int64_t tasks_enqueued = 0;      // worklist pushes that made it past dedup
  int64_t tasks_deduped = 0;       // enqueues suppressed by the queued bits
  int64_t peak_memo_bytes = 0;     // high-water estimate of memo residency
  int64_t eps_scanned = 0;         // seeding candidates examined by the scope
                                   // index (vs eps seeded: scan efficiency)

  // Counters for the current (re)optimization round; reset via BeginRound().
  int64_t round_touched_eps = 0;   // plan-table entries receiving any delta
  int64_t round_touched_alts = 0;  // alternatives recomputed/suppressed/re-added
  int64_t round_steps = 0;
  int64_t round_eps_scanned = 0;
  int64_t round_best_changes = 0;  // propagated BestCost changes (RunBestDirty)
  int64_t round_rebest_eps = 0;    // entries whose propagated best changed
                                   // more than once this round

  void BeginRound() {
    round_touched_eps = 0;
    round_touched_alts = 0;
    round_steps = 0;
    round_eps_scanned = 0;
    round_best_changes = 0;
    round_rebest_eps = 0;
  }
};

}  // namespace iqro

#endif  // IQRO_CORE_METRICS_H_
