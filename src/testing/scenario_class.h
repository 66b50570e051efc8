// Adversarial scenario classes: workloads engineered to be hostile, layered
// on top of the random generators (testing/differential.h) and held to the
// same oracle discipline. ROADMAP direction 5's frontier — the shapes a
// production feedback loop produces at rate and a random sweep only grazes:
//
//   kPlanFlip     churn constructed by *probing the oracle* so nearly every
//                 flush crosses a plan boundary (digest/notification and
//                 quarantine paths never get a quiet flush);
//   kScopeOverlap 16..64 registered queries over one small relation
//                 alphabet, so every mutation's affected set is nearly the
//                 whole session (the subset index's dense fallback and the
//                 shared summary cache under maximum contention);
//   kHandleStorm  register/unregister churn interleaved with flushes under
//                 a tight memo_byte_budget (evict/rehydrate edges, LRU-tick
//                 freshness, resident-byte accounting);
//   kStreamChurn  windowed-query scenarios with long drift-style churn —
//                 the differential twin of the sustained linear-road stream
//                 driver (bench_adversarial).
//
// kRandom, kPlanFlip and kStreamChurn run through RunScenario and therefore
// keep the full mode rotation (batch/faults/lifecycle). The storm
// classes (kScopeOverlap, kHandleStorm) run through a dedicated storm
// runner with their own oracle — one fresh from-scratch optimizer per
// distinct option set per flush, System-R + Volcano ground truth, and a
// no-budget mirror session executing the identical seed-derived
// schedule that every registered query must match byte-for-byte
// (CanonicalDumpState). Storm classes deterministically IGNORE the fault
// and lifecycle rotations (ScenarioClassHonorsRotations) — their adversary
// is the registration/eviction schedule itself, and a repro line pinning
// --faults/--lifecycle replays them identically either way.
//
// The class is part of a scenario's identity: the differential driver
// rotates it from the seed (DeriveScenarioClass), pins it with
// --scenario-class=N, and echoes it in every repro line (docs/TESTING.md
// "Adversarial scenario classes").
#ifndef IQRO_TESTING_SCENARIO_CLASS_H_
#define IQRO_TESTING_SCENARIO_CLASS_H_

#include <cstdint>

#include "testing/differential.h"

namespace iqro::testing {

enum class ScenarioClass : uint8_t {
  kRandom = 0,
  kPlanFlip = 1,
  kScopeOverlap = 2,
  kHandleStorm = 3,
  kStreamChurn = 4,
};

inline constexpr int kNumScenarioClasses = 5;

const char* ScenarioClassName(ScenarioClass cls);

/// The sweep's class rotation, derived from seed bits 3..5 so it composes
/// independently with the flush-mode (seed % 4), fault (seed % 2) and
/// lifecycle (bit 2) rotations: rolls 0..3 stay kRandom
/// (half of all seeds keep the PR 2 random sweep), rolls 4..7 map to the
/// four adversarial classes, one each.
ScenarioClass DeriveScenarioClass(uint64_t seed);

/// True for classes that run through RunScenario and honor the fault and
/// lifecycle rotations; false for the storm classes, which ignore both.
bool ScenarioClassHonorsRotations(ScenarioClass cls);

/// Expands a seed into a class-shaped scenario. kRandom defers to
/// GenerateScenario unchanged; the other classes reshape the generator
/// knobs (small alphabets for the storms, forced windows for stream churn)
/// and kPlanFlip constructs its churn by probing the from-scratch oracle:
/// every churn step is accepted only after a fresh optimization of
/// (prefix + candidate) proves the best plan's *shape* changed — falling
/// back to the last candidate when no probe flips, so generation always
/// terminates and the scenario stays pure replayable data. Deterministic:
/// same (seed, class, knobs) -> identical scenario, probing included.
Scenario GenerateClassScenario(uint64_t seed, ScenarioClass cls,
                               const GeneratorKnobs& knobs = {});

/// What a class run observed, for per-class bench/CI attribution. Filled
/// from DiffResult counters for the RunScenario-backed classes and by the
/// storm runner directly for the storm classes.
struct ClassRunStats {
  int64_t flushes = 0;
  /// Flushes after which the primary query's best plan had a different
  /// shape (operator/join-order change, not just a cost move).
  int64_t plan_flips = 0;
  /// Delivered PlanChangeEvents across every registered query.
  int64_t plan_changes = 0;
  /// Peak registered queries (storm classes; 1 + shadow otherwise).
  int64_t queries = 0;
  int64_t registrations = 0;
  int64_t releases = 0;
  int64_t evictions = 0;
  int64_t rehydrations = 0;
  int64_t eps_seeded = 0;
  int64_t eps_scanned = 0;
  int64_t summary_hits = 0;
  int64_t summary_misses = 0;
  int64_t max_resident_bytes = 0;

  void Accumulate(const ClassRunStats& o);
};

/// Runs a scenario under its class contract. kRandom/kPlanFlip/kStreamChurn
/// dispatch to RunScenario with `options` unchanged (full rotation support);
/// storm classes dispatch to the storm runner with fault/lifecycle rotation
/// cleared (see above) and `options.batch_steps` floored at 1 (storms are
/// session workloads; there is no legacy change-at-a-time storm).
/// `stats`, when non-null, receives the run's class counters (accumulated,
/// so one struct can aggregate a sweep).
DiffResult RunClassScenario(const Scenario& scenario, ScenarioClass cls,
                            const DiffOptions& options, ClassRunStats* stats = nullptr);

}  // namespace iqro::testing

#endif  // IQRO_TESTING_SCENARIO_CLASS_H_
