#include "test_util.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/str_util.h"

namespace iqro::testing {

const char* GraphShapeName(GraphShape s) {
  switch (s) {
    case GraphShape::kChain:
      return "chain";
    case GraphShape::kStar:
      return "star";
    case GraphShape::kCycle:
      return "cycle";
    case GraphShape::kClique:
      return "clique";
  }
  return "?";
}

std::unique_ptr<TestWorld> MakeWorld(const WorldOptions& options) {
  auto world = std::make_unique<TestWorld>();
  Rng rng(options.seed);

  // Schema-only tables: col0 = key, col1 = fk, col2 = payload.
  for (int i = 0; i < options.num_relations; ++i) {
    Schema schema;
    schema.name = StrFormat("t%d", i);
    schema.columns = {{"c0", ColumnType::kInt}, {"c1", ColumnType::kInt},
                      {"c2", ColumnType::kInt}};
    TableId id = world->catalog.CreateTable(schema);
    Table& t = world->catalog.table(id);
    if (rng.NextBool(options.index_probability)) t.BuildIndex(0);
    if (rng.NextBool(options.index_probability * 0.5)) t.BuildIndex(1);
    if (rng.NextBool(options.clustering_probability)) t.SetClusteredOn(0);
  }

  // Query relations + join edges per shape. Edge columns: lower slot uses
  // c0, higher slot uses c1 (arbitrary but consistent).
  QuerySpec& q = world->query;
  q.name = StrFormat("synthetic_%s_%d", GraphShapeName(options.shape), options.num_relations);
  for (int i = 0; i < options.num_relations; ++i) {
    q.relations.push_back({static_cast<TableId>(i), StrFormat("r%d", i), WindowSpec{}});
  }
  auto add_edge = [&](int a, int b) { q.joins.push_back({a, 0, b, 1, PredOp::kEq}); };
  const int n = options.num_relations;
  switch (options.shape) {
    case GraphShape::kChain:
      for (int i = 0; i + 1 < n; ++i) add_edge(i, i + 1);
      break;
    case GraphShape::kStar:
      for (int i = 1; i < n; ++i) add_edge(0, i);
      break;
    case GraphShape::kCycle:
      for (int i = 0; i + 1 < n; ++i) add_edge(i, i + 1);
      if (n > 2) add_edge(0, n - 1);
      break;
    case GraphShape::kClique:
      for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) add_edge(i, j);
      }
      break;
  }
  // Synthetic statistics.
  world->registry.Reset(n);
  for (int i = 0; i < n; ++i) {
    double rows = std::pow(10.0, 1.0 + 3.0 * rng.NextDouble());  // 10 .. 10^4
    world->registry.SetBaseRows(i, std::floor(rows));
    world->registry.SetLocalSelectivity(i, 0.05 + 0.95 * rng.NextDouble());
    world->registry.SetRowWidth(i, 1.0 + std::floor(rng.NextDouble() * 8));
  }
  for (const auto& j : q.joins) {
    double sel = std::pow(10.0, -4.0 * rng.NextDouble());  // 1 .. 1e-4
    world->registry.AddEdge(j.Endpoints(), sel);
  }
  WireQueryContext(world.get(), &world->catalog);
  return world;
}

void ApplyRandomStatUpdate(TestWorld* world, Rng& rng) {
  StatsRegistry& reg = world->registry;
  const int n = reg.num_relations();
  const double factor = std::pow(2.0, rng.NextInRange(-3, 3));
  switch (rng.NextBelow(5)) {
    case 0: {
      int e = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(reg.num_edges())));
      reg.SetJoinSelectivity(e, std::min(1.0, reg.join_selectivity(e) * factor));
      break;
    }
    case 1: {
      int r = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(n)));
      reg.SetScanCostMultiplier(r, std::max(0.05, reg.scan_cost_multiplier(r) * factor));
      break;
    }
    case 2: {
      int r = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(n)));
      reg.SetBaseRows(r, std::max(1.0, std::floor(reg.base_rows(r) * factor)));
      break;
    }
    case 3: {
      int r = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(n)));
      reg.SetLocalSelectivity(r, std::clamp(reg.local_selectivity(r) * factor, 1e-6, 1.0));
      break;
    }
    case 4: {
      // Scale the output of a random connected expression (Fig. 5 style).
      auto by_size = world->graph->ConnectedSubsetsBySize();
      std::vector<RelSet> candidates;
      for (const auto& group : by_size) {
        for (RelSet s : group) {
          if (RelCount(s) >= 2) candidates.push_back(s);
        }
      }
      if (candidates.empty()) break;
      RelSet scope = candidates[rng.NextBelow(candidates.size())];
      reg.SetCardMultiplier(scope, factor);
      break;
    }
  }
}

}  // namespace iqro::testing
