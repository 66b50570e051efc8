#include "workload/context.h"

#include "query/bind_stats.h"

namespace iqro {

std::vector<TableStats> CollectCatalogStats(const Catalog& catalog, int histogram_buckets) {
  std::vector<TableStats> stats(static_cast<size_t>(catalog.num_tables()));
  for (int t = 0; t < catalog.num_tables(); ++t) {
    stats[static_cast<size_t>(t)] = CollectTableStats(catalog.table(t), histogram_buckets);
  }
  return stats;
}

std::unique_ptr<QueryContext> MakeQueryContext(const Catalog* catalog, QuerySpec query,
                                               const std::vector<TableStats>& per_table_stats,
                                               CostParams cost_params) {
  auto ctx = std::make_unique<QueryContext>();
  ctx->query = std::move(query);
  BindStats(ctx->query, per_table_stats, &ctx->registry);
  WireQueryContext(ctx.get(), catalog, cost_params);
  return ctx;
}

void WireQueryContext(QueryContext* ctx, const Catalog* catalog, CostParams cost_params) {
  ctx->graph = std::make_unique<JoinGraph>(ctx->query);
  ctx->registry.Freeze();
  ctx->summaries = std::make_unique<SummaryCalculator>(&ctx->registry);
  ctx->cost_model = std::make_unique<CostModel>(ctx->summaries.get(), cost_params);
  ctx->enumerator = std::make_unique<PlanEnumerator>(&ctx->query, ctx->graph.get(), catalog,
                                                     &ctx->props);
}

}  // namespace iqro
