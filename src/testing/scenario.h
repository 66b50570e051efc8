// Scenario: a self-contained, replayable (catalog, query, optimizer-config,
// stat-churn) tuple — the unit of work of the randomized differential
// harness. Every field is explicit data (no hidden RNG state), so a failing
// scenario can be shrunk by deleting parts of it and re-run byte-for-byte.
//
// The harness proves the paper's central claim (§4): after any sequence of
// statistics updates, Reoptimize() lands in exactly the state a fresh
// DeclarativeOptimizer::Optimize() computes under the new statistics.
#ifndef IQRO_TESTING_SCENARIO_H_
#define IQRO_TESTING_SCENARIO_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/optimizer_options.h"
#include "query/query_spec.h"
#include "stats/stats_registry.h"
#include "workload/context.h"
#include "workload/world.h"

namespace iqro::testing {

const char* StatMutationKindName(StatMutation::Kind k);

/// One batch of mutations applied before a single Reoptimize() call.
struct ChurnStep {
  std::vector<StatMutation> mutations;
};

/// The world is spec data (workload/world.h), so a scenario is built with
/// BuildWorld(scenario.catalog, scenario.query).
struct Scenario {
  uint64_t seed = 0;  // generator seed; printed with every failure
  CatalogSpec catalog;
  QuerySpec query;
  std::string options_name;
  OptimizerOptions options;
  std::vector<ChurnStep> churn;
};

/// Applies every mutation of churn steps [0, n_steps) in order.
void ApplyChurnPrefix(StatsRegistry* registry, const Scenario& scenario, size_t n_steps);

/// Human-readable rendering: seed, options, catalog, query, churn — the
/// repro block printed with every failure report.
std::string ScenarioToString(const Scenario& scenario);

// ---- names the benchmark directory spells ----------------------------------
// bench_suite/ is built from this tree but changes only with the benchmark;
// it still names the world vocabulary as iqro::testing. These forward to
// workload/world.h and exist for it alone.
using ::iqro::ApplyMutation;
using ::iqro::CatalogSpec;
using ::iqro::StatMutation;
using ::iqro::SyntheticTableSpec;
using ScenarioWorld = ::iqro::QueryContext;
inline std::unique_ptr<ScenarioWorld> BuildScenarioWorld(const Scenario& s) {
  return BuildWorld(s.catalog, s.query);
}
inline const std::vector<std::pair<std::string, OptimizerOptions>>& ScenarioOptionSets() {
  return NamedOptionSets();
}

}  // namespace iqro::testing

#endif  // IQRO_TESTING_SCENARIO_H_
