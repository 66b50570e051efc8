// Session-level counter types, split out of reopt_session.h so the metrics
// exporter (service/metrics_exporter.h) can speak them without pulling in
// the session itself.
#ifndef IQRO_SERVICE_SESSION_METRICS_H_
#define IQRO_SERVICE_SESSION_METRICS_H_

#include <cstdint>

namespace iqro {

struct ReoptSessionMetrics {
  int64_t mutations_observed = 0;  // value-changing post-freeze mutations seen
  int64_t flushes = 0;             // Flush() calls that dispatched >= 1 change
  int64_t empty_flushes = 0;       // batches absorbed entirely by coalescing
  int64_t changes_flushed = 0;     // coalesced StatChanges dispatched
  int64_t reopt_passes = 0;        // per-memo ReoptimizeBatch fixpoints
  int64_t queries_skipped = 0;     // registered memos untouched by a flush
  int64_t eps_seeded = 0;          // memo entries seeded across all passes
  int64_t plan_changes = 0;        // PlanChangeEvents delivered to subscribers
  // ---- failure domain (docs/ARCHITECTURE.md "Failure domains") ----
  int64_t quarantines = 0;         // failed passes/rebuilds (strikes, one per memo)
  int64_t rehabilitations = 0;     // quarantined memos restored by a rebuild
  int64_t queries_parked = 0;      // memos that exhausted their strikes
  // ---- memo lifecycle (docs/ARCHITECTURE.md "Memo lifecycle") ----
  int64_t evictions = 0;           // memos spilled to a serialized seed
  int64_t rehydrations = 0;        // evicted memos restored (seed or rebuild)
  /// Gauge, not a counter: estimated resident memo bytes across healthy
  /// non-evicted memos (each counted once), as of the end of the last
  /// flush that measured it (every dispatched flush; also refreshed by
  /// EvictQuery/RehydrateQuery).
  int64_t resident_memo_bytes = 0;
};

/// Aggregated OptMetrics deltas of the most recent non-empty flush, summed
/// over every dispatched pass: each pass adds its own round counters once
/// it has returned.
struct FlushOptStats {
  int64_t passes = 0;          // ReoptimizeBatch fixpoints this flush
  int64_t eps_seeded = 0;      // memo entries seeded
  int64_t eps_scanned = 0;     // seeding candidates the scope index examined
  int64_t fixpoint_steps = 0;  // sum of per-optimizer round_steps
  int64_t best_changes = 0;    // sum of per-optimizer round_best_changes
  int64_t rebest_eps = 0;      // sum of per-optimizer round_rebest_eps
  int64_t touched_eps = 0;     // sum of per-optimizer round_touched_eps
  int64_t touched_alts = 0;    // sum of per-optimizer round_touched_alts
  int64_t tasks_enqueued = 0;  // worklist pushes across all passes
};

}  // namespace iqro

#endif  // IQRO_SERVICE_SESSION_METRICS_H_
