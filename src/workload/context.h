// QueryContext: everything needed to optimize (and re-optimize) one query —
// join graph, bound statistics, summaries, cost model and the shared plan
// enumerator. One context is shared by all optimizer implementations under
// comparison, which is how the evaluation keeps "common code across the
// implementations" (§5).
#ifndef IQRO_WORKLOAD_CONTEXT_H_
#define IQRO_WORKLOAD_CONTEXT_H_

#include <memory>
#include <vector>

#include "catalog/catalog.h"
#include "cost/cost_model.h"
#include "enumerate/plan_enumerator.h"
#include "query/join_graph.h"
#include "query/query_spec.h"
#include "stats/stats_registry.h"
#include "stats/summary.h"
#include "stats/table_stats.h"

namespace iqro {

struct QueryContext {
  /// A synthetic world's catalog (BuildWorld, test fixtures); empty when
  /// the enumerator reads a shared catalog instead.
  Catalog catalog;
  QuerySpec query;
  std::unique_ptr<JoinGraph> graph;
  StatsRegistry registry;
  std::unique_ptr<SummaryCalculator> summaries;
  std::unique_ptr<CostModel> cost_model;
  PropTable props;
  std::unique_ptr<PlanEnumerator> enumerator;
};

/// Collects statistics for every table in `catalog`.
std::vector<TableStats> CollectCatalogStats(const Catalog& catalog, int histogram_buckets = 32);

/// Wires the rest of a context whose query and statistics are in place:
/// join graph, frozen registry, summaries, cost model, and one enumerator
/// over `catalog`.
void WireQueryContext(QueryContext* ctx, const Catalog* catalog,
                      CostParams cost_params = CostParams{});

/// Wires a full optimization context for `query`: binds statistics from
/// `per_table_stats`, then WireQueryContext.
std::unique_ptr<QueryContext> MakeQueryContext(const Catalog* catalog, QuerySpec query,
                                               const std::vector<TableStats>& per_table_stats,
                                               CostParams cost_params = CostParams{});

}  // namespace iqro

#endif  // IQRO_WORKLOAD_CONTEXT_H_
