// Summaries (the paper's `md` values): estimated cardinality and row width
// of a query expression's output, derived canonically from the
// StatsRegistry under the usual independence assumptions.
//
// The canonical formula — base cardinalities x join-edge selectivities x
// what-if multipliers — makes every decomposition of the same expression
// agree, which is what lets the paper memoize Fn_nonscansummary per
// expression and lets all our optimizer implementations share cost inputs.
#ifndef IQRO_STATS_SUMMARY_H_
#define IQRO_STATS_SUMMARY_H_

#include "common/flat_map.h"
#include "common/relset.h"
#include "stats/stats_registry.h"

namespace iqro {

struct Summary {
  double rows = 0;
  double width = 0;
};

/// Cross-calculator summary store: registered queries of one session share
/// epoch-keyed summary computation for overlapping relation sets (a Summary
/// is a pure function of registry state, so any calculator over the same
/// registry computes the identical value). Abstract here so stats/ stays
/// service-agnostic; the concrete locked implementation lives in
/// src/service/shared_summary_cache.h. Implementations must treat `epoch`
/// as part of the key (stale-epoch lookups must miss).
class SummarySharedCache {
 public:
  virtual ~SummarySharedCache() = default;
  /// True and fills `*out` iff a value for (epoch, s) is present.
  virtual bool Lookup(uint64_t epoch, RelSet s, Summary* out) const = 0;
  virtual void Insert(uint64_t epoch, RelSet s, const Summary& value) = 0;
};

/// Single-threaded: the epoch-keyed cache is unsynchronized, and each
/// calculator is driven by the one thread that flushes its optimizer. The
/// cache is a flat table, so a new epoch clears it without freeing nodes.
class SummaryCalculator {
 public:
  explicit SummaryCalculator(const StatsRegistry* registry) : registry_(registry) {}

  /// Summary of the expression joining exactly the relations in `s`,
  /// with all local predicates applied (Fn_scansummary for singletons,
  /// Fn_nonscansummary otherwise). Memoized per registry epoch.
  Summary Get(RelSet s) const;

  const StatsRegistry& registry() const { return *registry_; }

  /// Points this calculator at a cross-calculator shared store, consulted
  /// on local-cache misses (hit: the Compute is skipped; miss: the computed
  /// value is published). nullptr detaches. The shared store must outlive
  /// the attachment and be fed only from calculators over the same
  /// registry. Const because the cache infrastructure is logically-const
  /// state.
  void AttachSharedCache(SummarySharedCache* shared) const { shared_ = shared; }

 private:
  Summary Compute(RelSet s) const;
  /// Local-miss path: shared-cache lookup, else Compute + publish.
  Summary ComputeThroughShared(uint64_t epoch, RelSet s) const;

  const StatsRegistry* registry_;
  mutable uint64_t cached_epoch_ = 0;
  mutable FlatMap64<Summary> cache_;
  mutable SummarySharedCache* shared_ = nullptr;
};

}  // namespace iqro

#endif  // IQRO_STATS_SUMMARY_H_
