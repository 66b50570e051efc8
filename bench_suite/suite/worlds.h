// Inputs and fixtures shared by the workloads: the seeded generator, the
// TPC-H and chain4 worlds, the seeded statistics streams, and the
// from-scratch oracle.
#ifndef BENCH_SUITE_SUITE_WORLDS_H_
#define BENCH_SUITE_SUITE_WORLDS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/declarative_optimizer.h"
#include "suite/measure.h"
#include "testing/differential.h"
#include "testing/scenario.h"
#include "workload/context.h"
#include "workload/queries.h"
#include "workload/tpch_gen.h"

namespace bench_suite {

using iqro::testing::StatMutation;
using MutKind = iqro::testing::StatMutation::Kind;
using Batch = std::vector<StatMutation>;

/// splitmix64: the suite's own generator, so input streams depend only on
/// the seed and on this file.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
  double LogUniform(double lo, double hi) {
    return std::exp(std::log(lo) + Uniform() * (std::log(hi) - std::log(lo)));
  }

 private:
  uint64_t s_;
};

/// One independent stream per (seed, purpose, index).
inline Rng StreamRng(uint64_t seed, uint64_t purpose, uint64_t index = 0) {
  Rng mix(seed * 0x100000001B3ull ^ (purpose << 40) ^ index);
  return Rng(mix.Next());
}

inline const std::vector<std::pair<std::string, iqro::OptimizerOptions>>& OptionSets() {
  return iqro::testing::ScenarioOptionSets();
}

// ---- TPC-H -----------------------------------------------------------------

struct Tpch {
  iqro::Catalog catalog;
  std::vector<iqro::TableStats> stats;
};

/// TPC-H at scale factor 0.01, uniform, generator seed 42.
inline std::unique_ptr<Tpch> MakeTpch() {
  auto t = std::make_unique<Tpch>();
  iqro::TpchConfig cfg;
  cfg.scale_factor = 0.01;
  iqro::GenerateTpch(&t->catalog, cfg);
  t->stats = iqro::CollectCatalogStats(t->catalog);
  return t;
}

inline std::unique_ptr<iqro::QueryContext> MakeTpchContext(Tpch* tpch, const std::string& query) {
  return iqro::MakeQueryContext(&tpch->catalog, iqro::MakeTpchQuery(&tpch->catalog, query),
                                tpch->stats);
}

/// One statistic moved to its initial value times a factor drawn
/// log-uniformly from [1/8, 8] (the paper's Fig. 8 range). Kinds: scan
/// cost, base rows, local selectivity, join selectivity, cardinality
/// multiplier on a join edge. Selectivities are capped at 1.
inline StatMutation TpchMutation(Rng& rng, const iqro::StatsRegistry& initial) {
  const double f = rng.LogUniform(1.0 / 8, 8);
  const int rel = rng.Below(initial.num_relations());
  const int edge = rng.Below(initial.num_edges());
  StatMutation m;
  switch (rng.Below(5)) {
    case 0:
      m = {MutKind::kScanCost, rel, 0, f};
      break;
    case 1:
      m = {MutKind::kBaseRows, rel, 0, initial.base_rows(rel) * f};
      break;
    case 2:
      m = {MutKind::kLocalSelectivity, rel, 0, std::min(1.0, initial.local_selectivity(rel) * f)};
      break;
    case 3:
      m = {MutKind::kJoinSelectivity, edge, 0, std::min(1.0, initial.join_selectivity(edge) * f)};
      break;
    default:
      m = {MutKind::kCardMultiplier, 0, initial.edge(edge).endpoints, f};
      break;
  }
  return m;
}

// ---- chain4: the daemon workloads' world (bench_daemon_load's shape) -------

inline iqro::testing::CatalogSpec Chain4Catalog(uint64_t world_key) {
  iqro::testing::CatalogSpec catalog;
  for (int i = 0; i < 4; ++i) {
    iqro::testing::SyntheticTableSpec t;
    t.name = "t";
    t.name += std::to_string(i);  // not "t" + ...: GCC 12 warns falsely (-Wrestrict)
    t.rows = 1000.0 * (i + 1);
    t.width = 16;
    t.cols.push_back({0, 9999, 2000});
    t.hist_seed = world_key * 16 + static_cast<uint64_t>(i) + 1;
    catalog.tables.push_back(std::move(t));
  }
  return catalog;
}

inline iqro::QuerySpec Chain4Query() {
  iqro::QuerySpec q;
  q.name = "chain4";
  for (int i = 0; i < 4; ++i) {
    iqro::QueryRelation rel;
    rel.table = i;
    rel.alias = "r";
    rel.alias += std::to_string(i);
    q.relations.push_back(std::move(rel));
  }
  for (int i = 0; i < 3; ++i) {
    iqro::JoinPredicate j;
    j.left_rel = i;
    j.right_rel = i + 1;
    q.joins.push_back(j);
  }
  q.locals.push_back({3, 0, iqro::PredOp::kLt, 5000, 0});
  return q;
}

/// A swing wide enough to change join orders: one statistic set to a value
/// drawn log-uniformly over orders of magnitude.
inline StatMutation FlipMutation(Rng& rng) {
  const int rel = rng.Below(4);
  switch (rng.Below(4)) {
    case 0:
      return {MutKind::kBaseRows, rel, 0, rng.LogUniform(20, 5e6)};
    case 1:
      return {MutKind::kJoinSelectivity, rng.Below(3), 0, rng.LogUniform(1e-4, 0.6)};
    case 2:
      return {MutKind::kLocalSelectivity, rel, 0, rng.LogUniform(0.05, 0.9)};
    default:
      return {MutKind::kScanCost, rel, 0, rng.LogUniform(1.0 / 8, 8)};
  }
}

/// The two ends of a decisive plan flip on chain4 (a probe alternates them).
inline Batch ProbeBatch(bool high) {
  return {{MutKind::kBaseRows, 0, 0, high ? 5e6 : 20.0},
          {MutKind::kJoinSelectivity, 0, 0, high ? 1e-4 : 0.6},
          {MutKind::kBaseRows, 2, 0, high ? 4e5 : 800.0},
          {MutKind::kLocalSelectivity, 3, 0, high ? 0.05 : 0.9}};
}

// ---- worlds -------------------------------------------------------------------

/// One optimizer configuration, wired the way the sharded service wires
/// it: its own summary calculator and cost model over the world's shared
/// registry and enumerator.
struct QueryOpt {
  size_t option_index = 0;
  std::unique_ptr<iqro::SummaryCalculator> summaries;
  std::unique_ptr<iqro::CostModel> cost_model;
  std::unique_ptr<iqro::DeclarativeOptimizer> optimizer;
};

/// A world (statistics, join graph, enumerator) with `configs` optimizer
/// configurations cycling through OptionSets(), each optimized. Built from
/// TPC-H or from a chain4 spec. Not movable: the enumerator borrows the
/// query stored here.
struct World {
  std::unique_ptr<iqro::QueryContext> ctx;  // TPC-H backing
  iqro::testing::Scenario scenario;        // chain4 backing
  std::unique_ptr<iqro::testing::ScenarioWorld> world;
  iqro::StatsRegistry* registry = nullptr;
  iqro::PlanEnumerator* enumerator = nullptr;
  std::vector<QueryOpt> queries;

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
};

/// Adds `configs` optimized configurations; each Optimize() time is added
/// to `optimize_ms` when given.
inline void AddConfigs(World* w, int configs, Samples* optimize_ms) {
  for (int k = 0; k < configs; ++k) {
    QueryOpt q;
    q.option_index = static_cast<size_t>(k) % OptionSets().size();
    q.summaries = std::make_unique<iqro::SummaryCalculator>(w->registry);
    q.cost_model = std::make_unique<iqro::CostModel>(q.summaries.get());
    q.optimizer = std::make_unique<iqro::DeclarativeOptimizer>(
        w->enumerator, q.cost_model.get(), w->registry, OptionSets()[q.option_index].second);
    const int64_t t0 = NowNs();
    q.optimizer->Optimize();
    if (optimize_ms != nullptr) optimize_ms->Add(NsToMs(NowNs() - t0));
    w->queries.push_back(std::move(q));
  }
}

inline std::unique_ptr<World> MakeTpchWorld(Tpch* tpch, const std::string& query, int configs,
                                            Samples* optimize_ms) {
  auto w = std::make_unique<World>();
  w->ctx = MakeTpchContext(tpch, query);
  w->registry = &w->ctx->registry;
  w->enumerator = w->ctx->enumerator.get();
  AddConfigs(w.get(), configs, optimize_ms);
  return w;
}

inline std::unique_ptr<World> MakeChainWorld(uint64_t world_key, int configs,
                                             Samples* optimize_ms) {
  auto w = std::make_unique<World>();
  w->scenario.catalog = Chain4Catalog(world_key);
  w->scenario.query = Chain4Query();
  w->world = iqro::testing::BuildScenarioWorld(w->scenario);
  w->registry = &w->world->registry;
  w->enumerator = w->world->enumerator.get();
  AddConfigs(w.get(), configs, optimize_ms);
  return w;
}

// ---- the from-scratch oracle ------------------------------------------------

/// For the first `sets` option sets: the canonical state of a fresh
/// optimizer over the given statistics. Each Optimize() time (us) is added
/// to `scratch_us`.
inline std::vector<std::string> ScratchCanonicals(iqro::StatsRegistry* registry,
                                                  iqro::PlanEnumerator* enumerator, size_t sets,
                                                  Samples* scratch_us) {
  std::vector<std::string> out;
  for (size_t i = 0; i < std::min(sets, OptionSets().size()); ++i) {
    iqro::SummaryCalculator summaries(registry);
    iqro::CostModel cost_model(&summaries);
    iqro::DeclarativeOptimizer fresh(enumerator, &cost_model, registry, OptionSets()[i].second);
    const int64_t t0 = NowNs();
    fresh.Optimize();
    scratch_us->Add(static_cast<double>(NowNs() - t0) / 1e3);
    out.push_back(fresh.CanonicalDumpState());
  }
  return out;
}

/// A fresh TPC-H world at the live registry's current statistics.
inline std::unique_ptr<iqro::QueryContext> FreshTpchAt(Tpch* tpch, const std::string& query,
                                                       const iqro::StatsRegistry& live) {
  auto ctx = MakeTpchContext(tpch, query);
  std::string state;
  live.SerializeState(&state);
  ctx->registry.RestoreState(state);
  return ctx;
}

/// Counts the queries of `w` whose canonical state differs from the
/// from-scratch state of their option set, and prints a repro line for the
/// first one.
inline int64_t CountMismatches(const World& w, const std::vector<std::string>& scratch,
                               const std::string& repro) {
  int64_t bad = 0;
  for (size_t i = 0; i < w.queries.size(); ++i) {
    const QueryOpt& q = w.queries[i];
    if (q.optimizer->CanonicalDumpState() != scratch[q.option_index]) {
      if (bad == 0) {
        std::fprintf(stderr, "oracle mismatch: query %zu (%s) differs from scratch; repro: %s\n",
                     i, OptionSets()[q.option_index].first.c_str(), repro.c_str());
      }
      ++bad;
    }
  }
  return bad;
}

}  // namespace bench_suite

#endif  // BENCH_SUITE_SUITE_WORLDS_H_
