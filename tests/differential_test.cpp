// Randomized differential harness driver: thousands of generated
// (query, stat-churn) scenarios, each proving Reoptimize() ≡ from-scratch
// (see src/testing/). Runs as a time-boxed ctest target and as a CLI for
// overnight runs:
//
//   ./differential_test --seed=12345 --iters=100000 --time_budget_ms=0
//
// --seed=N          base seed (scenario i uses seed N+i); default 1
// --iters=N         scenarios to attempt; default 2000
// --time_budget_ms=N  stop early after this much wall clock (0 = unlimited)
// --workers=N       force worker_threads=N for every batch-mode scenario
//                   (default -1: rotate seed % 3; the TSan CI smoke pins 4)
// --faults=N        fault rotation: 1 = every scenario re-runs with a
//                   seed-derived injected fault (quarantine/recovery must
//                   land byte-identical to a never-faulted mirror), 0 =
//                   never (default -1: odd seeds fault-rotate)
// --lifecycle=N     lifecycle rotation (batch mode only): 1 = every
//                   batch-mode scenario rolls seed-derived evictions and
//                   snapshot-restarts at flush boundaries (the disturbed
//                   primary must stay byte-identical to an undisturbed
//                   mirror), 0 = never (default -1: seed bit 2 rotates)
// --scenario-class=N  force every scenario into one adversarial class
//                   (0=random 1=plan-flip 2=scope-overlap 3=handle-storm
//                   4=stream-churn; see src/testing/scenario_class.h).
//                   Default -1: rotate from seed bits 3..5 — half the
//                   seeds stay random, the rest split across the four
//                   adversarial classes. Storm classes (2, 3) ignore the
//                   fault/lifecycle rotations by design.
//
// Every failure prints the scenario seed, the active flush mode (legacy /
// batch_steps=K serial / batch_steps=K workers=W / faults) AND a
// paste-ready repro command — the mode rotation is part of the scenario's
// identity, and a bare `--seed=N --iters=1` does NOT pin rotation state
// that came from forced flags (a failure found under --faults=1 on an even
// seed, or under any --workers override, would silently replay in a
// different mode). The printed command therefore always pins --workers and
// --faults to the effective values; a shrunk minimal scenario is printed
// too. A SIGABRT handler prints the same seed+mode+repro lines even when
// an optimizer-internal IQRO_CHECK aborts.
//
// This file defines its own main() (flag parsing), so CMakeLists.txt links
// it against gtest without gtest_main.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/declarative_optimizer.h"
#include "testing/differential.h"
#include "testing/scenario_class.h"

namespace iqro::testing {
namespace {

uint64_t g_base_seed = 1;
int g_iters = 2000;
int g_time_budget_ms = 120'000;
int g_force_workers = -1;  // --workers override; -1 = rotate seed % 3
int g_force_faults = -1;   // --faults override; -1 = odd seeds fault-rotate
int g_force_lifecycle = -1;  // --lifecycle override; -1 = seed bit 2 rotates
int g_force_class = -1;  // --scenario-class override; -1 = rotate seed bits 3..5

// Mode of the scenario currently executing, for the SIGABRT handler: a
// seed alone does not reproduce a batch/parallel failure (the flush mode
// rotation is part of the repro), so the handler prints all of it.
volatile uint64_t g_current_seed = 0;
volatile int g_current_batch_steps = 0;
volatile int g_current_workers = 0;
volatile int g_current_faults = 0;
volatile int g_current_lifecycle = 0;
volatile int g_current_class = 0;
// 1 while the executing scenario's mode is the seed-derived rotation of
// the main Agree sweep — the only case a CLI repro command can express.
// (FaultRotatedScenariosRecoverToMirrorState pins non-seed-derived modes
// that no flag combination reproduces, so its aborts print mode only.)
volatile int g_mode_seed_derived = 0;

// The main sweep's flush-mode rotation, factored out so the printed repro
// command is derived from the SAME function the sweep uses — the repro
// self-test below round-trips it.
struct ScenarioMode {
  int batch_steps = 0;     // 0 = legacy; 1..3 = batch sizes
  int worker_threads = 0;  // 0 = serial dispatch
  bool fault_rotation = false;
  bool lifecycle_rotation = false;  // batch mode only
  ScenarioClass scenario_class = ScenarioClass::kRandom;
};

ScenarioMode DeriveMode(uint64_t seed, int force_workers, int force_faults,
                        int force_lifecycle, int force_class) {
  ScenarioMode m;
  m.batch_steps = static_cast<int>(seed % 4);
  if (m.batch_steps >= 1) {
    m.worker_threads = force_workers >= 0 ? force_workers : static_cast<int>(seed % 3);
  }
  m.fault_rotation = force_faults == 1 || (force_faults < 0 && seed % 2 == 1);
  // Bit 2 is independent of the batch_steps (seed % 4) and fault (seed % 2)
  // rotations, so lifecycle churn overlaps every other mode combination.
  m.lifecycle_rotation =
      m.batch_steps >= 1 &&
      (force_lifecycle == 1 || (force_lifecycle < 0 && ((seed >> 2) & 1) == 1));
  // Bits 3..5 rotate the adversarial class, again independently of every
  // rotation above, so each class sees all flush modes across a sweep.
  m.scenario_class = force_class >= 0
                         ? static_cast<ScenarioClass>(force_class % kNumScenarioClasses)
                         : DeriveScenarioClass(seed);
  return m;
}

// Paste-ready replay flags for a failing seed. --workers/--faults are
// ALWAYS pinned to the effective mode: forcing them round-trips through
// DeriveMode to the original mode (batch_steps is pure seed arithmetic,
// and a forced value is only read where the rotation would have applied),
// so the replay runs the exact fault plan the failure used.
std::string ReproCommand(uint64_t seed, const ScenarioMode& mode) {
  return "--seed=" + std::to_string(seed) +
         " --iters=1 --workers=" + std::to_string(mode.worker_threads) +
         " --faults=" + std::string(mode.fault_rotation ? "1" : "0") +
         " --lifecycle=" + std::string(mode.lifecycle_rotation ? "1" : "0") +
         " --scenario-class=" + std::to_string(static_cast<int>(mode.scenario_class));
}

extern "C" void DifferentialAbortHandler(int) {
  // Async-signal-safe: manual formatting + write(2).
  char buf[400];
  size_t len = 0;
  const auto append_str = [&](const char* s) {
    while (*s != '\0' && len + 1 < sizeof(buf)) buf[len++] = *s++;
  };
  const auto append_u64 = [&](uint64_t v) {
    char digits[24];
    int n = 0;
    do {
      digits[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0 && len + 1 < sizeof(buf)) buf[len++] = digits[--n];
  };
  append_str("\ndifferential_test: aborted while running scenario seed=");
  append_u64(g_current_seed);
  if (g_current_batch_steps <= 0) {
    append_str(" mode=legacy");
  } else {
    append_str(" mode=batch_steps=");
    append_u64(static_cast<uint64_t>(g_current_batch_steps));
    if (g_current_workers <= 0) {
      append_str(" serial");
    } else {
      append_str(" workers=");
      append_u64(static_cast<uint64_t>(g_current_workers));
    }
  }
  if (g_current_faults != 0) append_str(" faults=1");
  if (g_current_lifecycle != 0) append_str(" lifecycle=1");
  append_str(" class=");
  append_str(ScenarioClassName(static_cast<ScenarioClass>(g_current_class)));
  append_str("\n");
  if (g_mode_seed_derived != 0) {
    append_str("reproduce: ./differential_test --seed=");
    append_u64(g_current_seed);
    append_str(" --iters=1 --workers=");
    append_u64(static_cast<uint64_t>(g_current_workers));
    append_str(" --faults=");
    append_u64(static_cast<uint64_t>(g_current_faults));
    append_str(" --lifecycle=");
    append_u64(static_cast<uint64_t>(g_current_lifecycle));
    append_str(" --scenario-class=");
    append_u64(static_cast<uint64_t>(g_current_class));
    append_str("\n");
  }
  ssize_t ignored = write(STDERR_FILENO, buf, len);
  (void)ignored;
  std::signal(SIGABRT, SIG_DFL);
}

std::string FailureReport(const Scenario& scenario, const DiffResult& result,
                          const DiffOptions& options, const FaultInjection& fault) {
  std::string out = "divergence at step " + std::to_string(result.fail_step) + ":\n" +
                    result.message + "\n\noriginal scenario:\n" + ScenarioToString(scenario);
  auto fails = [&](const Scenario& candidate) {
    return !RunScenario(candidate, options, fault).ok;
  };
  Scenario shrunk = ShrinkScenario(scenario, fails);
  DiffResult shrunk_result = RunScenario(shrunk, options, fault);
  out += "\nshrunk scenario:\n" + ScenarioToString(shrunk) + "\nshrunk failure: " +
         shrunk_result.message + "\n";
  return out;
}

/// FailureReport for class-dispatched runs: shrinking replays candidates
/// through RunClassScenario so a storm-class failure shrinks under the
/// storm contract (same sessions, same schedule), not the 2-query one.
std::string ClassFailureReport(const Scenario& scenario, ScenarioClass cls,
                               const DiffResult& result, const DiffOptions& options) {
  std::string out = "divergence at step " + std::to_string(result.fail_step) + " (class " +
                    ScenarioClassName(cls) + "):\n" + result.message +
                    "\n\noriginal scenario:\n" + ScenarioToString(scenario);
  auto fails = [&](const Scenario& candidate) {
    return !RunClassScenario(candidate, cls, options).ok;
  };
  Scenario shrunk = ShrinkScenario(scenario, fails);
  DiffResult shrunk_result = RunClassScenario(shrunk, cls, options);
  out += "\nshrunk scenario:\n" + ScenarioToString(shrunk) + "\nshrunk failure: " +
         shrunk_result.message + "\n";
  return out;
}

TEST(DifferentialHarnessTest, GeneratorIsDeterministic) {
  g_current_batch_steps = 0;
  g_current_workers = 0;
  for (uint64_t seed : {1ull, 7ull, 1234567ull}) {
    g_current_seed = seed;
    Scenario a = GenerateScenario(seed);
    Scenario b = GenerateScenario(seed);
    EXPECT_EQ(ScenarioToString(a), ScenarioToString(b)) << "seed " << seed;
  }
  EXPECT_NE(ScenarioToString(GenerateScenario(1)), ScenarioToString(GenerateScenario(2)));
}

// The tentpole: thousands of generated scenarios, zero divergences between
// Reoptimize() and every from-scratch oracle. Scenarios rotate through
// flush modes: legacy change-at-a-time Reoptimize(), ReoptSession batch
// flushes grouping 1..3 churn steps (batch mode also rides a same-options
// shadow optimizer through every flush — multi-query dispatch is checked
// by the same 2,000-scenario run), and — within batch mode — serial vs
// thread-pool dispatch (worker_threads = seed % 3; pooled scenarios run a
// serial mirror world in lockstep and must match it byte-for-byte).
TEST(DifferentialHarnessTest, GeneratedScenariosAgreeWithFromScratchOracle) {
  const auto start = std::chrono::steady_clock::now();
  const GeneratorKnobs knobs;
  int64_t ran = 0;
  int64_t reopt_checks = 0;
  int64_t batched_runs = 0;
  int64_t parallel_runs = 0;
  int64_t fault_runs = 0;
  int64_t faults_fired = 0;
  int64_t lifecycle_runs = 0;
  int64_t class_runs[kNumScenarioClasses] = {};
  bool time_box_hit = false;
  for (int i = 0; i < g_iters; ++i) {
    if (g_time_budget_ms > 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start);
      if (elapsed.count() > g_time_budget_ms) {
        std::fprintf(stderr, "time budget hit after %lld scenarios (of %d requested)\n",
                     static_cast<long long>(ran), g_iters);
        time_box_hit = true;
        break;
      }
    }
    const uint64_t seed = g_base_seed + static_cast<uint64_t>(i);
    DiffOptions options;
    // Mode is a function of the seed and the force flags (not the loop
    // index), so the printed ReproCommand — which pins the force flags to
    // the effective values — replays a failure in the mode that found it.
    // Fault rotation: odd seeds (or all, under --faults=1) re-run their
    // flushes with a seed-derived injected fault; the harness then proves
    // recovery lands identical to a never-faulted mirror world. Scenario
    // classes rotate from seed bits 3..5 (or pin via --scenario-class=):
    // half the seeds stay random, the rest run the adversarial classes.
    const ScenarioMode mode =
        DeriveMode(seed, g_force_workers, g_force_faults, g_force_lifecycle, g_force_class);
    const ScenarioClass cls = mode.scenario_class;
    Scenario scenario = GenerateClassScenario(seed, cls, knobs);
    options.batch_steps = mode.batch_steps;
    options.worker_threads = mode.worker_threads;
    options.fault_rotation = mode.fault_rotation;
    options.lifecycle_rotation = mode.lifecycle_rotation;
    if (options.batch_steps >= 1) {
      ++batched_runs;
      if (options.worker_threads >= 1) ++parallel_runs;
    }
    // The storm classes deterministically ignore the fault/lifecycle
    // rotations (scenario_class.h), so they don't count as coverage.
    if (options.fault_rotation && ScenarioClassHonorsRotations(cls)) ++fault_runs;
    if (options.lifecycle_rotation && ScenarioClassHonorsRotations(cls)) ++lifecycle_runs;
    ++class_runs[static_cast<int>(cls)];
    g_current_seed = seed;
    g_current_batch_steps = options.batch_steps;
    g_current_workers = options.worker_threads;
    g_current_faults = options.fault_rotation ? 1 : 0;
    g_current_lifecycle = options.lifecycle_rotation ? 1 : 0;
    g_current_class = static_cast<int>(cls);
    g_mode_seed_derived = 1;
    DiffResult result = RunClassScenario(scenario, cls, options);
    g_mode_seed_derived = 0;
    ++ran;
    reopt_checks += static_cast<int64_t>(scenario.churn.size());
    faults_fired += result.faults_fired;
    if (!result.ok) {
      FAIL() << "seed " << seed << " (class=" << ScenarioClassName(cls)
             << " batch_steps=" << options.batch_steps
             << " worker_threads=" << options.worker_threads
             << " fault_rotation=" << options.fault_rotation
             << " lifecycle_rotation=" << options.lifecycle_rotation << ")\n"
             << "reproduce: ./differential_test " << ReproCommand(seed, mode) << "\n"
             << ClassFailureReport(scenario, cls, result, options);
    }
  }
  if (ran >= 4) {
    EXPECT_GT(batched_runs, 0);
  }
  if (ran >= 12 && g_force_workers != 0) {
    EXPECT_GT(parallel_runs, 0);  // the rotation actually covers the pool
  }
  if (fault_runs >= 50) {
    // The fault plan's ordinals are sized so a real fraction of seeds
    // fire; a sweep this big with zero fired faults means the rotation is
    // silently checking nothing.
    EXPECT_GT(faults_fired, 0);
  }
  // The storm classes never run the fault/lifecycle rotations, so a sweep
  // pinned to one of them (--scenario-class=2/3) legitimately has zero
  // lifecycle-rotated runs — the coverage expectation only applies when
  // rotation-honoring scenarios were actually in the mix.
  const bool pinned_storm =
      g_force_class >= 0 &&
      !ScenarioClassHonorsRotations(static_cast<ScenarioClass>(g_force_class));
  if (ran >= 16 && g_force_lifecycle != 0 && !pinned_storm) {
    EXPECT_GT(lifecycle_runs, 0);  // lifecycle rotation actually covers runs
  }
  // 64 consecutive seeds cover every value of bits 3..5, so an unforced
  // sweep that large must have run every adversarial class at least once.
  if (ran >= 64 && g_force_class < 0) {
    for (int c = 0; c < kNumScenarioClasses; ++c) {
      EXPECT_GT(class_runs[c], 0)
          << "class " << ScenarioClassName(static_cast<ScenarioClass>(c)) << " never rotated in";
    }
  }
  std::fprintf(stderr,
               "differential: %lld scenarios, %lld reoptimize/from-scratch checks, "
               "%lld fault-rotated (%lld faults fired), %lld lifecycle-rotated, "
               "0 divergences\n",
               static_cast<long long>(ran), static_cast<long long>(reopt_checks),
               static_cast<long long>(fault_runs), static_cast<long long>(faults_fired),
               static_cast<long long>(lifecycle_runs));
  std::fprintf(stderr,
               "scenario classes: %lld random, %lld plan-flip, %lld scope-overlap, "
               "%lld handle-storm, %lld stream-churn\n",
               static_cast<long long>(class_runs[0]), static_cast<long long>(class_runs[1]),
               static_cast<long long>(class_runs[2]), static_cast<long long>(class_runs[3]),
               static_cast<long long>(class_runs[4]));
  // Without a binding time box the full requested count must have run. A
  // time-boxed run on a slow machine (sanitized Debug CI) checks whatever
  // fit — the CI sanitize matrix pins a separate unboxed 200-scenario
  // smoke, so a trimmed run here is not a coverage hole.
  if (!time_box_hit) {
    EXPECT_EQ(ran, g_iters);
  } else {
    EXPECT_GE(ran, 1);
  }
}

// Class generation is deterministic — the probing generator (kPlanFlip)
// included: the probe sequence is a pure function of the seed, so a repro
// line regenerates the identical scenario.
TEST(DifferentialHarnessTest, ClassGeneratorIsDeterministic) {
  g_current_batch_steps = 0;
  g_current_workers = 0;
  for (int c = 0; c < kNumScenarioClasses; ++c) {
    const auto cls = static_cast<ScenarioClass>(c);
    const uint64_t seed = 9000 + static_cast<uint64_t>(c);
    g_current_seed = seed;
    g_current_class = c;
    Scenario a = GenerateClassScenario(seed, cls);
    Scenario b = GenerateClassScenario(seed, cls);
    EXPECT_EQ(ScenarioToString(a), ScenarioToString(b)) << ScenarioClassName(cls);
  }
  g_current_class = 0;
}

// The adversarial classes, pinned without flags so every ctest run covers
// them even when the sweep above is trimmed by its time box. Each class
// must hold the full oracle + mirror contract AND actually exhibit its
// pathology: plan-flip scenarios flip plans at a high rate, scope-overlap
// storms keep 16+ queries registered and hit the shared summary cache,
// handle storms evict and rehydrate under their budget.
TEST(DifferentialHarnessTest, AdversarialClassesHoldOracleAndMirror) {
  struct ClassCase {
    ScenarioClass cls;
    int iters;
  };
  const ClassCase cases[] = {
      {ScenarioClass::kPlanFlip, 12},
      {ScenarioClass::kScopeOverlap, 6},
      {ScenarioClass::kHandleStorm, 10},
      {ScenarioClass::kStreamChurn, 10},
  };
  for (const ClassCase& cc : cases) {
    ClassRunStats acc;
    const uint64_t base = 7000 + 100 * static_cast<uint64_t>(cc.cls);
    for (int i = 0; i < cc.iters; ++i) {
      const uint64_t seed = base + static_cast<uint64_t>(i);
      DiffOptions options;
      // Plan-flip churn is probed step-at-a-time, so flush groups of 1
      // measure the flip rate the generator engineered; the other classes
      // rotate batch size and pool dispatch like the main sweep.
      options.batch_steps = cc.cls == ScenarioClass::kPlanFlip ? 1 : 1 + (i % 3);
      options.worker_threads = (i % 2 == 0) ? 0 : 2;
      g_current_seed = seed;
      g_current_batch_steps = options.batch_steps;
      g_current_workers = options.worker_threads;
      g_current_class = static_cast<int>(cc.cls);
      Scenario scenario = GenerateClassScenario(seed, cc.cls);
      DiffResult result = RunClassScenario(scenario, cc.cls, options, &acc);
      ASSERT_TRUE(result.ok) << "class=" << ScenarioClassName(cc.cls) << " seed " << seed
                             << " (batch_steps=" << options.batch_steps
                             << " worker_threads=" << options.worker_threads << ")\n"
                             << ClassFailureReport(scenario, cc.cls, result, options);
    }
    EXPECT_GT(acc.flushes, 0) << ScenarioClassName(cc.cls);
    switch (cc.cls) {
      case ScenarioClass::kPlanFlip: {
        // The generator probes the oracle per step; with flush groups of 1
        // the measured flip rate is the engineered one. Random churn flips
        // well under half its flushes; the probing floor is far above it.
        const double rate =
            static_cast<double>(acc.plan_flips) / static_cast<double>(acc.flushes);
        EXPECT_GE(rate, 0.8) << acc.plan_flips << "/" << acc.flushes;
        break;
      }
      case ScenarioClass::kScopeOverlap:
        EXPECT_GE(acc.queries, 16);
        EXPECT_GT(acc.summary_hits, 0);
        break;
      case ScenarioClass::kHandleStorm:
        EXPECT_GT(acc.evictions, 0);
        EXPECT_GT(acc.rehydrations, 0);
        EXPECT_GT(acc.registrations, 4);
        EXPECT_GT(acc.releases, 0);
        break;
      case ScenarioClass::kStreamChurn:
        EXPECT_GT(acc.eps_seeded, 0);
        break;
      default:
        break;
    }
    std::fprintf(stderr,
                 "class %s: %lld flushes, %lld plan flips, %lld plan changes, "
                 "%lld/%lld reg/rel, %lld/%lld evict/rehydrate, "
                 "%lld/%lld summary hit/miss, peak queries %lld\n",
                 ScenarioClassName(cc.cls), static_cast<long long>(acc.flushes),
                 static_cast<long long>(acc.plan_flips),
                 static_cast<long long>(acc.plan_changes),
                 static_cast<long long>(acc.registrations),
                 static_cast<long long>(acc.releases), static_cast<long long>(acc.evictions),
                 static_cast<long long>(acc.rehydrations),
                 static_cast<long long>(acc.summary_hits),
                 static_cast<long long>(acc.summary_misses),
                 static_cast<long long>(acc.queries));
  }
  g_current_class = 0;
}

// The robustness tentpole, pinned without flags: scenarios run with
// seed-derived faults injected into their flushes must quarantine exactly
// the failing query, keep serving the rest, recover via rebuild, and land
// byte-identical (CanonicalDumpState) to a never-faulted mirror world —
// and across the sweep at least one fault must actually fire, or the
// rotation is checking nothing.
TEST(DifferentialHarnessTest, FaultRotatedScenariosRecoverToMirrorState) {
  const GeneratorKnobs knobs;
  int64_t fired = 0;
  for (uint64_t seed = 5000; seed < 5048; ++seed) {
    Scenario scenario = GenerateScenario(seed, knobs);
    DiffOptions options;
    options.batch_steps = 1 + static_cast<int>(seed % 3);  // always batch mode
    options.worker_threads = static_cast<int>(seed % 2);   // serial and pooled
    options.fault_rotation = true;
    g_current_seed = seed;
    g_current_batch_steps = options.batch_steps;
    g_current_workers = options.worker_threads;
    g_current_faults = 1;
    DiffResult result = RunScenario(scenario, options);
    ASSERT_TRUE(result.ok) << "seed " << seed << " (batch_steps=" << options.batch_steps
                           << " worker_threads=" << options.worker_threads
                           << " fault_rotation=1): "
                           << FailureReport(scenario, result, options, FaultInjection{});
    fired += result.faults_fired;
  }
  g_current_faults = 0;
  EXPECT_GT(fired, 0);
  std::fprintf(stderr, "fault rotation: 48 scenarios, %lld faults fired, full recovery\n",
               static_cast<long long>(fired));
}

// The lifecycle tentpole, pinned without flags: every scenario runs in
// batch mode with lifecycle rotation forced on — seed-derived evictions
// and snapshot/destroy/restore cycles at flush boundaries — and must land
// byte-identical to an undisturbed mirror world and the from-scratch
// oracle after every flush.
TEST(DifferentialHarnessTest, LifecycleRotatedScenariosMatchMirrorState) {
  const GeneratorKnobs knobs;
  for (uint64_t seed = 6000; seed < 6048; ++seed) {
    Scenario scenario = GenerateScenario(seed, knobs);
    DiffOptions options;
    options.batch_steps = 1 + static_cast<int>(seed % 3);  // always batch mode
    options.worker_threads = static_cast<int>(seed % 2);   // serial and pooled
    options.lifecycle_rotation = true;
    g_current_seed = seed;
    g_current_batch_steps = options.batch_steps;
    g_current_workers = options.worker_threads;
    g_current_lifecycle = 1;
    DiffResult result = RunScenario(scenario, options);
    ASSERT_TRUE(result.ok) << "seed " << seed << " (batch_steps=" << options.batch_steps
                           << " worker_threads=" << options.worker_threads
                           << " lifecycle_rotation=1): "
                           << FailureReport(scenario, result, options, FaultInjection{});
  }
  g_current_lifecycle = 0;
  std::fprintf(stderr, "lifecycle rotation: 48 scenarios, evict/rehydrate and "
                       "snapshot-restart matched the undisturbed mirror\n");
}

// Repro-line pin: for every launch configuration (bare, forced workers,
// forced faults on/off), parsing the printed ReproCommand's flags and
// re-deriving the mode must land on the exact rotation state the failing
// run used. The historical bug: the printed guidance omitted --faults (and
// only conditionally mentioned --workers), so a failure found under
// --faults=1 on an even seed — e.g. the CI fault-injection smoke — replayed
// with no fault plan at all, and forced-worker failures replayed at
// seed % 3 workers.
TEST(DifferentialHarnessTest, ReproCommandPinsRotationState) {
  const int worker_forces[] = {-1, 0, 2};
  const int fault_forces[] = {-1, 0, 1};
  const int lifecycle_forces[] = {-1, 0, 1};
  const int class_forces[] = {-1, 0, 3};
  for (uint64_t seed = 100; seed < 140; ++seed) {
    for (int fw : worker_forces) {
      for (int ff : fault_forces) {
        for (int fl : lifecycle_forces) {
          for (int fc : class_forces) {
            const ScenarioMode mode = DeriveMode(seed, fw, ff, fl, fc);
            const std::string cmd = ReproCommand(seed, mode);
            ASSERT_NE(cmd.find("--seed=" + std::to_string(seed)), std::string::npos) << cmd;
            ASSERT_NE(cmd.find("--iters=1"), std::string::npos) << cmd;
            // All rotation flags must be pinned unconditionally.
            const size_t wpos = cmd.find("--workers=");
            const size_t fpos = cmd.find("--faults=");
            const size_t lpos = cmd.find("--lifecycle=");
            const size_t cpos = cmd.find("--scenario-class=");
            ASSERT_NE(wpos, std::string::npos) << cmd;
            ASSERT_NE(fpos, std::string::npos) << cmd;
            ASSERT_NE(lpos, std::string::npos) << cmd;
            ASSERT_NE(cpos, std::string::npos) << cmd;
            // Replay: the harness parses these flags into the force globals
            // and derives the mode again — it must reconstruct the original.
            const int replay_workers = std::atoi(cmd.c_str() + wpos + 10);
            const int replay_faults = std::atoi(cmd.c_str() + fpos + 9);
            const int replay_lifecycle = std::atoi(cmd.c_str() + lpos + 12);
            const int replay_class = std::atoi(cmd.c_str() + cpos + 17);
            const ScenarioMode replay =
                DeriveMode(seed, replay_workers, replay_faults, replay_lifecycle, replay_class);
            EXPECT_EQ(replay.batch_steps, mode.batch_steps) << cmd;
            EXPECT_EQ(replay.worker_threads, mode.worker_threads) << cmd;
            EXPECT_EQ(replay.fault_rotation, mode.fault_rotation) << cmd;
            EXPECT_EQ(replay.lifecycle_rotation, mode.lifecycle_rotation) << cmd;
            EXPECT_EQ(replay.scenario_class, mode.scenario_class) << cmd;
          }
        }
      }
    }
  }
}

// Harness self-test: an injected fault (silently dropping one delta seed
// before a Reoptimize) must be caught by the oracle, reproduce from its
// seed, and shrink to a smaller scenario that still exhibits the fault.
TEST(DifferentialHarnessTest, InjectedFaultIsCaughtAndShrunk) {
  GeneratorKnobs knobs;
  knobs.churn.p_noop = 0.0;  // every mutation records a real StatChange
  DiffOptions options;
  // An under-seeded optimizer holds stale costs; the freshness CHECK in
  // ValidateInvariants would abort before the oracle could report.
  options.validate_invariants = false;
  const FaultInjection fault{FaultInjection::Kind::kDropSeed, 0};

  int caught = 0;
  g_current_batch_steps = 0;
  g_current_workers = 0;
  for (uint64_t seed = 9000; seed < 9120 && caught == 0; ++seed) {
    g_current_seed = seed;
    Scenario scenario = GenerateScenario(seed, knobs);
    if (scenario.churn.empty()) continue;
    // The same scenario must pass without the fault...
    DiffResult clean = RunScenario(scenario, options);
    ASSERT_TRUE(clean.ok) << "seed " << seed << " fails even unfaulted: " << clean.message;
    // ...and the dropped seed must be caught (some drops are shadowed by
    // other changes in the batch, so we scan seeds until one bites).
    DiffResult faulted = RunScenario(scenario, options, fault);
    if (faulted.ok) continue;
    ++caught;
    EXPECT_GE(faulted.fail_step, 0) << faulted.message;

    // Reproducibility: the same seed regenerates the same failure.
    Scenario again = GenerateScenario(seed, knobs);
    EXPECT_EQ(ScenarioToString(again), ScenarioToString(scenario));
    DiffResult repro = RunScenario(again, options, fault);
    EXPECT_FALSE(repro.ok);

    // Shrinking keeps the failure and never grows the scenario.
    auto fails = [&](const Scenario& candidate) {
      return !RunScenario(candidate, options, fault).ok;
    };
    Scenario shrunk = ShrinkScenario(scenario, fails);
    EXPECT_FALSE(RunScenario(shrunk, options, fault).ok);
    auto mutation_count = [](const Scenario& sc) {
      size_t n = 0;
      for (const ChurnStep& s : sc.churn) n += s.mutations.size();
      return n;
    };
    EXPECT_LE(mutation_count(shrunk), mutation_count(scenario));
    EXPECT_LE(shrunk.query.num_relations(), scenario.query.num_relations());
    std::fprintf(stderr, "injected fault caught at seed %llu; shrunk scenario:\n%s",
                 static_cast<unsigned long long>(seed), ScenarioToString(shrunk).c_str());
  }
  EXPECT_EQ(caught, 1) << "no seed in the scanned range produced a detectable fault";
}

// A scenario replayed twice lands on byte-identical canonical dumps — the
// oracle's equality is well-defined (no hidden nondeterminism in the
// harness itself).
TEST(DifferentialHarnessTest, ScenarioReplayIsByteStable) {
  g_current_seed = 4242;
  g_current_batch_steps = 0;
  g_current_workers = 0;
  Scenario scenario = GenerateScenario(4242);
  auto run_dump = [&] {
    auto world = BuildWorld(scenario.catalog, scenario.query);
    DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                             &world->registry, scenario.options);
    opt.Optimize();
    ApplyChurnPrefix(&world->registry, scenario, scenario.churn.size());
    opt.Reoptimize();
    return opt.CanonicalDumpState();
  };
  const std::string first = run_dump();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(run_dump(), first);
}

}  // namespace
}  // namespace iqro::testing

int main(int argc, char** argv) {
  // Strip harness flags before handing the rest to gtest.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--seed=", 7) == 0) {
      iqro::testing::g_base_seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strncmp(arg, "--iters=", 8) == 0) {
      iqro::testing::g_iters = std::atoi(arg + 8);
    } else if (std::strncmp(arg, "--time_budget_ms=", 17) == 0) {
      iqro::testing::g_time_budget_ms = std::atoi(arg + 17);
    } else if (std::strncmp(arg, "--workers=", 10) == 0) {
      iqro::testing::g_force_workers = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--faults=", 9) == 0) {
      iqro::testing::g_force_faults = std::atoi(arg + 9);
    } else if (std::strncmp(arg, "--lifecycle=", 12) == 0) {
      iqro::testing::g_force_lifecycle = std::atoi(arg + 12);
    } else if (std::strncmp(arg, "--scenario-class=", 17) == 0) {
      iqro::testing::g_force_class = std::atoi(arg + 17);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  ::testing::InitGoogleTest(&argc, argv);
  std::signal(SIGABRT, iqro::testing::DifferentialAbortHandler);
  return RUN_ALL_TESTS();
}
