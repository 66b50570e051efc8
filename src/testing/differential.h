// Differential oracle: proves Reoptimize() ≡ from-scratch optimization on
// generated (query, stat-churn) scenarios.
//
// For every churn prefix it checks the incremental optimizer against
//   (1) a fresh DeclarativeOptimizer::Optimize() with the same options on
//       the updated statistics: equal BestCost, same-shape GetBestPlan,
//       byte-identical CanonicalDumpState;
//   (2) the System-R baseline (exhaustive ground truth over the same plan
//       space) and the Volcano baseline;
//   (3) DeclarativeOptimizer::ValidateInvariants() at every fixpoint;
// and re-derives the returned plan's cost bottom-up through the cost model.
//
// Failures reproduce from the printed seed; ShrinkScenario minimizes the
// failing (query, churn) pair before reporting.
#ifndef IQRO_TESTING_DIFFERENTIAL_H_
#define IQRO_TESTING_DIFFERENTIAL_H_

#include <functional>
#include <string>

#include "enumerate/plan_tree.h"
#include "testing/query_gen.h"
#include "testing/scenario.h"
#include "testing/stat_churn.h"

namespace iqro::testing {

struct GeneratorKnobs {
  QueryGenOptions query;
  ChurnGenOptions churn;
  /// Fraction of scenarios generated against the shared TPC-H catalog
  /// instead of a synthetic one.
  double p_tpch = 0.25;
};

/// Deterministically expands a seed into a full scenario (catalog, query,
/// optimizer options, churn). Same seed + same knobs -> identical scenario.
Scenario GenerateScenario(uint64_t seed, const GeneratorKnobs& knobs = {});

struct DiffOptions {
  /// Run ValidateInvariants at every fixpoint. Disabled for fault-injection
  /// runs: an intentionally under-seeded optimizer holds stale-but-
  /// consistent state and the freshness CHECK would abort the process
  /// instead of letting the oracle report the divergence.
  bool validate_invariants = true;
  bool check_systemr = true;
  bool check_volcano = true;
  bool check_dump = true;
  /// 0: legacy mode — one Reoptimize() per churn step.
  /// k >= 1: batch mode — churn steps are applied in groups of k and
  /// flushed through a ReoptSession (exercising the coalescer and the
  /// multi-query dispatcher), with a same-options shadow optimizer
  /// registered alongside the primary; after every flush both must agree
  /// with the from-scratch oracle AND with each other byte-for-byte.
  int batch_steps = 0;
  /// Only meaningful in batch mode. 0: the session flushes serially.
  /// N >= 1: the session dispatches on an N-thread pool — and a *serial
  /// mirror* world (its own registry/enumerator/optimizers, same scenario,
  /// same mutations, serial session) runs every flush in lockstep; after
  /// each flush the pooled primary and shadow must be byte-identical
  /// (CanonicalDumpState) to their serial twins. That is the direct
  /// "parallel flush ≡ serial flush" claim, on top of the existing
  /// "≡ from-scratch" oracle which the pooled optimizers still face.
  int worker_threads = 0;
  /// Fault rotation: derive a deterministic fault plan from the scenario
  /// seed (site, action, hit ordinal), arm it, and confine the counting
  /// windows to the PRIMARY world's flushes — the oracle's from-scratch
  /// optimizers and the mirror world run the very same fault-point-bearing
  /// code with counting disabled, so they never fault. In batch mode an
  /// injected fault quarantines a query; the harness then drives recovery
  /// flushes until nothing is quarantined and holds the recovered state to
  /// the full oracle AND byte-identical (CanonicalDumpState) to the
  /// never-faulted mirror, which runs even when worker_threads == 0. In
  /// legacy mode the throw surfaces to the caller; the harness asserts the
  /// strong exception guarantee (!optimized()) and recovers via
  /// RebuildFromScratch(). Either way, a run whose fault ordinal is never
  /// reached degenerates to the plain differential check.
  bool fault_rotation = false;
  /// Lifecycle rotation (batch mode only): at every flush boundary a
  /// seed-derived roll either does nothing, EVICTS registered queries
  /// (memo spilled to a serialized seed and torn down — the next flush
  /// rehydrates them, naturally when its batch is relevant or manually
  /// right after it when not), or SNAPSHOT-RESTARTS the primary world
  /// (ReoptSession::SaveSnapshot, destroy the session/optimizers/world,
  /// rebuild a fresh world, LoadSnapshot, re-subscribe). The primary must
  /// stay byte-identical (CanonicalDumpState) to the never-evicted,
  /// never-restarted mirror world — which always runs under this rotation
  /// — and to the from-scratch oracle, and the notification stream must
  /// be unchanged. Lifecycle operations run OUTSIDE fault windows, so a
  /// fault-rotation plan never fires inside them.
  bool lifecycle_rotation = false;
  double rel_tol = 1e-9;
};

/// Deliberate fault for harness self-tests: silently discard one pending
/// StatChange before a Reoptimize() (the under-seeding bug class the oracle
/// must catch).
struct FaultInjection {
  enum class Kind : uint8_t { kNone, kDropSeed };
  Kind kind = Kind::kNone;
  int step = 0;  // churn step whose seeding is sabotaged
};

/// Recomputes a plan's cumulative cost bottom-up from the cost model —
/// end-to-end verification of the optimizer's arithmetic. Shared by the
/// oracle and the unit tests so both agree on what "recomputed" means.
double RecomputeTreeCost(const PlanTree& tree, const CostModel& model);

struct DiffResult {
  bool ok = true;
  /// -1: the initial optimization diverged; >= 0: index of the churn step
  /// after which the divergence appeared.
  int fail_step = -2;
  std::string message;
  /// Fault-rotation runs only: how many injected faults actually fired
  /// (0 when the seed-chosen ordinal was never reached). On success the
  /// harness has already proven quarantines == faults fired and full
  /// recovery; callers use this to report fault coverage.
  int64_t faults_fired = 0;
  /// Workload-shape counters for per-class attribution (scenario_class.h):
  /// churn boundaries executed, boundaries after which the primary query's
  /// best plan changed *shape* (SameShape — operator/join-order change, not
  /// a mere cost move), PlanChangeEvents delivered (batch mode), and the
  /// session's cumulative seeding counters (batch mode).
  int64_t flushes = 0;
  int64_t plan_flips = 0;
  int64_t plan_changes = 0;
  int64_t eps_seeded = 0;
  int64_t eps_scanned = 0;
};

DiffResult RunScenario(const Scenario& scenario, const DiffOptions& options = {},
                       const FaultInjection& fault = {});

/// Greedily minimizes a failing scenario while `fails` keeps returning
/// true: drops churn steps and mutations, strips predicates, windows,
/// aggregates and whole relations. `budget` caps the number of `fails`
/// evaluations.
Scenario ShrinkScenario(const Scenario& failing,
                        const std::function<bool(const Scenario&)>& fails, int budget = 400);

}  // namespace iqro::testing

#endif  // IQRO_TESTING_DIFFERENTIAL_H_
