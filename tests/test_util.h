// Shared fixtures: synthetic "worlds" (catalog + query + statistics) with
// controllable join-graph shapes, used by the cross-optimizer equivalence
// and incremental-correctness property tests.
#ifndef IQRO_TESTS_TEST_UTIL_H_
#define IQRO_TESTS_TEST_UTIL_H_

#include <memory>

#include "common/rng.h"
#include "workload/context.h"

namespace iqro::testing {

enum class GraphShape { kChain, kStar, kCycle, kClique };

const char* GraphShapeName(GraphShape s);

/// A fully wired optimization context over synthetic statistics (tables are
/// schema-only; no rows are stored; the catalog is the context's own). All
/// members have stable addresses.
using TestWorld = QueryContext;

struct WorldOptions {
  int num_relations = 4;
  GraphShape shape = GraphShape::kChain;
  uint64_t seed = 1;
  /// Probability that a table has an index on its join columns.
  double index_probability = 0.6;
  /// Probability that a table is stored clustered on column 0.
  double clustering_probability = 0.5;
};

std::unique_ptr<TestWorld> MakeWorld(const WorldOptions& options);

/// Applies one random statistics update to the (frozen) registry; the kind
/// and magnitude are drawn from `rng`.
void ApplyRandomStatUpdate(TestWorld* world, Rng& rng);

}  // namespace iqro::testing

#endif  // IQRO_TESTS_TEST_UTIL_H_
