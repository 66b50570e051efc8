#include "workload/world.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "common/rng.h"
#include "common/str_util.h"
#include "query/bind_stats.h"
#include "query/join_graph.h"
#include "workload/tpch_gen.h"

namespace iqro {

void ApplyMutation(StatsRegistry* registry, const StatMutation& m) {
  switch (m.kind) {
    case StatMutation::Kind::kBaseRows:
      registry->SetBaseRows(m.target, m.value);
      break;
    case StatMutation::Kind::kLocalSelectivity:
      registry->SetLocalSelectivity(m.target, m.value);
      break;
    case StatMutation::Kind::kRowWidth:
      registry->SetRowWidth(m.target, m.value);
      break;
    case StatMutation::Kind::kScanCost:
      registry->SetScanCostMultiplier(m.target, m.value);
      break;
    case StatMutation::Kind::kJoinSelectivity:
      registry->SetJoinSelectivity(m.target, m.value);
      break;
    case StatMutation::Kind::kCardMultiplier:
      registry->SetCardMultiplier(m.scope, m.value);
      break;
  }
}

std::unique_ptr<TpchFixture> MakeTpchFixture(double scale_factor, double zipf_theta,
                                             uint32_t partition, uint64_t seed) {
  auto fixture = std::make_unique<TpchFixture>();
  TpchConfig cfg;
  cfg.scale_factor = scale_factor;
  cfg.zipf_theta = zipf_theta;
  cfg.partition = partition;
  cfg.seed = seed;
  GenerateTpch(&fixture->catalog, cfg);
  fixture->stats = CollectCatalogStats(fixture->catalog);
  return fixture;
}

const TpchFixture& SharedTpchFixture() {
  static const TpchFixture* fixture = MakeTpchFixture(0.002).release();
  return *fixture;
}

TableStats MakeSyntheticTableStats(const SyntheticTableSpec& spec) {
  TableStats ts;
  ts.rows = spec.rows;
  ts.row_width = spec.width;
  ts.columns.resize(spec.cols.size());
  Rng rng(spec.hist_seed);
  for (size_t c = 0; c < spec.cols.size(); ++c) {
    const SyntheticColumnSpec& cs = spec.cols[c];
    ColumnStats& out = ts.columns[c];
    out.min = cs.min;
    out.max = cs.max;
    out.ndv = std::min(cs.ndv, spec.rows);
    // Sample a small value population and build a real equi-depth histogram
    // so predicate selectivities flow through the production estimator.
    // Unsigned arithmetic: the span of a validated column fits in uint64.
    const size_t samples = static_cast<size_t>(std::min(256.0, std::max(1.0, spec.rows)));
    std::vector<int64_t> values(samples);
    const uint64_t domain = static_cast<uint64_t>(cs.max) - static_cast<uint64_t>(cs.min) + 1;
    for (size_t i = 0; i < samples; ++i) {
      values[i] = static_cast<int64_t>(static_cast<uint64_t>(cs.min) + rng.NextBelow(domain));
    }
    out.histogram = Histogram::Build(values, 16);
  }
  return ts;
}

const std::vector<std::pair<std::string, OptimizerOptions>>& NamedOptionSets() {
  static const auto* sets = new std::vector<std::pair<std::string, OptimizerOptions>>{
      {"all", OptimizerOptions::Default()},
      {"aggsel", OptimizerOptions::UseAggSel()},
      {"aggsel+refcount", OptimizerOptions::UseAggSelRefCount()},
      {"aggsel+bounding", OptimizerOptions::UseAggSelBounding()},
      {"evita", OptimizerOptions::UseEvitaRaced()},
      {"nopruning", OptimizerOptions::UseNoPruning()},
      {"all-fifo", [] {
         OptimizerOptions fifo = OptimizerOptions::Default();
         fifo.discipline = QueueDiscipline::kFifo;
         return fifo;
       }()},
  };
  return *sets;
}

const OptimizerOptions* FindOptionSet(const std::string& name) {
  for (const auto& [set_name, options] : NamedOptionSets()) {
    if (set_name == name) return &options;
  }
  return nullptr;
}

std::string WorldSpecError(const CatalogSpec& catalog, const QuerySpec& query) {
  const int nrel = query.num_relations();
  if (nrel < 1 || nrel > kMaxRelations) {
    return StrFormat("query must have 1..%d relations, has %d", kMaxRelations, nrel);
  }
  if (!catalog.use_tpch && catalog.tables.empty()) return "synthetic catalog has no tables";
  std::unordered_set<std::string> names;
  for (const SyntheticTableSpec& t : catalog.tables) {
    if (catalog.use_tpch) break;
    if (!names.insert(t.name).second) return "duplicate table name " + t.name;
    if (t.clustered_on >= static_cast<int>(t.cols.size())) {
      return StrFormat("table %s clustered on column %d of %zu", t.name.c_str(), t.clustered_on,
                       t.cols.size());
    }
    for (const SyntheticColumnSpec& c : t.cols) {
      if (c.max < c.min || static_cast<uint64_t>(c.max) - static_cast<uint64_t>(c.min) + 1 == 0) {
        return StrFormat("table %s has a column range [%lld, %lld]", t.name.c_str(),
                         static_cast<long long>(c.min), static_cast<long long>(c.max));
      }
    }
  }
  const int ntab = catalog.use_tpch ? kTpchTables : static_cast<int>(catalog.tables.size());
  for (const QueryRelation& rel : query.relations) {
    if (rel.table < 0 || rel.table >= ntab) {
      return StrFormat("relation references table %d of %d", rel.table, ntab);
    }
  }
  const auto bad_ref = [nrel](int rel, int col) { return rel < 0 || rel >= nrel || col < 0; };
  for (const JoinPredicate& j : query.joins) {
    if (bad_ref(j.left_rel, j.left_col) || bad_ref(j.right_rel, j.right_col) ||
        j.left_rel == j.right_rel) {
      return StrFormat("join r%d.c%d = r%d.c%d is not between two relations", j.left_rel,
                       j.left_col, j.right_rel, j.right_col);
    }
  }
  for (const LocalPredicate& l : query.locals) {
    if (bad_ref(l.rel, l.col)) return StrFormat("local predicate references r%d.c%d", l.rel, l.col);
  }
  for (const std::vector<ColRef>* refs : {&query.projections, &query.group_by}) {
    for (const ColRef& c : *refs) {
      if (bad_ref(c.rel, c.col)) return StrFormat("column reference r%d.c%d", c.rel, c.col);
    }
  }
  // The enumerator plans no cross products, so a disconnected query has no
  // plan for its root.
  if (!JoinGraph(query).IsConnected(query.AllRelations())) return "join graph is not connected";
  return "";
}

std::unique_ptr<QueryContext> BuildWorld(const CatalogSpec& catalog, QuerySpec query) {
  const std::string error = WorldSpecError(catalog, query);
  if (!error.empty()) throw std::invalid_argument(error);
  if (catalog.use_tpch) {
    const TpchFixture& tpch = SharedTpchFixture();
    return MakeQueryContext(&tpch.catalog, std::move(query), tpch.stats);
  }
  auto ctx = std::make_unique<QueryContext>();
  std::vector<TableStats> stats;
  for (const SyntheticTableSpec& t : catalog.tables) {
    Schema schema;
    schema.name = t.name;
    for (size_t c = 0; c < t.cols.size(); ++c) {
      schema.columns.push_back({StrFormat("c%zu", c), ColumnType::kInt});
    }
    Table& table = ctx->catalog.table(ctx->catalog.CreateTable(schema));
    for (size_t c = 0; c < t.cols.size() && c < 32; ++c) {
      if ((t.indexed_cols >> c) & 1) table.BuildIndex(static_cast<int>(c));
    }
    if (t.clustered_on >= 0) table.SetClusteredOn(t.clustered_on);
    stats.push_back(MakeSyntheticTableStats(t));
  }
  ctx->query = std::move(query);
  BindStats(ctx->query, stats, &ctx->registry);
  WireQueryContext(ctx.get(), &ctx->catalog);
  return ctx;
}

}  // namespace iqro
