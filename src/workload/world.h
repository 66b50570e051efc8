// The world vocabulary: the catalog spec + query that a registration names,
// the statistics mutations a running system feeds a world, and BuildWorld,
// which turns specs from outside the process into a wired QueryContext.
// reoptd, the differential harness and the benches all build worlds here.
#ifndef IQRO_WORKLOAD_WORLD_H_
#define IQRO_WORKLOAD_WORLD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/relset.h"
#include "core/optimizer_options.h"
#include "query/query_spec.h"
#include "stats/stats_registry.h"
#include "stats/table_stats.h"
#include "workload/context.h"

namespace iqro {

/// Synthetic column description; a histogram is synthesized from `hist_seed`
/// samples uniform in [min, max], so local-predicate selectivities are
/// estimated through the real Histogram code path.
struct SyntheticColumnSpec {
  int64_t min = 0;
  int64_t max = 0;
  double ndv = 1;
};

struct SyntheticTableSpec {
  std::string name;
  double rows = 1;
  double width = 1;
  std::vector<SyntheticColumnSpec> cols;
  uint32_t indexed_cols = 0;  // bitmask over columns
  int clustered_on = -1;
  uint64_t hist_seed = 0;
};

/// Either a list of synthetic tables or the shared TPC-H catalog.
struct CatalogSpec {
  bool use_tpch = false;
  std::vector<SyntheticTableSpec> tables;  // synthetic mode only
};

/// One statistics mutation with an *absolute* target value: replay does not
/// depend on the registry's current contents.
struct StatMutation {
  enum class Kind : uint8_t {
    kBaseRows,          // target = relation slot
    kLocalSelectivity,  // target = relation slot
    kRowWidth,          // target = relation slot
    kScanCost,          // target = relation slot
    kJoinSelectivity,   // target = edge id (query.joins order)
    kCardMultiplier,    // scope = expression; value 1 removes the override
  };
  Kind kind = Kind::kBaseRows;
  int target = 0;
  RelSet scope = 0;
  double value = 0;
};

/// Applies one mutation to a (frozen) registry.
void ApplyMutation(StatsRegistry* registry, const StatMutation& m);

/// A generated TPC-H catalog plus its collected statistics.
struct TpchFixture {
  Catalog catalog;
  std::vector<TableStats> stats;
};

/// Builds (and caches nothing — call once per binary) a TPC-H fixture.
std::unique_ptr<TpchFixture> MakeTpchFixture(double scale_factor, double zipf_theta = 0.0,
                                             uint32_t partition = 0, uint64_t seed = 42);

/// The fixture every `use_tpch` world binds: scale 0.002, built once per
/// process.
const TpchFixture& SharedTpchFixture();

/// Builds per-table statistics for a synthetic table spec (real histograms
/// over sampled values; no rows are materialized).
TableStats MakeSyntheticTableStats(const SyntheticTableSpec& spec);

/// The optimizer configurations a registration may name: the paper's
/// evaluated pruning levels plus the FIFO discipline ("all", "aggsel",
/// "aggsel+refcount", "aggsel+bounding", "evita", "nopruning", "all-fifo").
const std::vector<std::pair<std::string, OptimizerOptions>>& NamedOptionSets();

/// The set called `name`, or null.
const OptimizerOptions* FindOptionSet(const std::string& name);

/// Why BuildWorld cannot build these specs (a bad table, relation, column
/// or edge reference, a disconnected join graph, a duplicate table name, a
/// missing clustering column, a column range with max < min or spanning
/// all of int64), or "".
std::string WorldSpecError(const CatalogSpec& catalog, const QuerySpec& query);

/// The world for `query` over `catalog` (synthetic tables owned by the
/// context, or the shared TPC-H fixture), statistics bound and frozen.
/// Deterministic. Throws std::invalid_argument(WorldSpecError(...)).
std::unique_ptr<QueryContext> BuildWorld(const CatalogSpec& catalog, QuerySpec query);

}  // namespace iqro

#endif  // IQRO_WORKLOAD_WORLD_H_
