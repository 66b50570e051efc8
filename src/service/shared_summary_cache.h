// SharedSummaryCache: the session-level implementation of the
// SummarySharedCache interface (stats/summary.h) — one epoch-keyed summary
// store shared by every query registered in a ReoptSession, so overlapping
// relation sets pay for Fn_scansummary/Fn_nonscansummary once per flush
// epoch instead of once per query.
//
// Epoch contract (docs/ARCHITECTURE.md "O(affected) seeding and shared
// summaries"):
//  * The store holds values for exactly ONE registry epoch at a time.
//    Insert at a newer epoch clears and re-keys; Lookup/Insert at an older
//    epoch than the store's miss/no-op — a straggler can never resurrect a
//    stale value.
//  * A flush drains one batch and runs all of its passes before any
//    further mutation can land (the registry and its session belong to one
//    thread), so every pass of one flush agrees on the epoch. Values are
//    returned by copy (Summary is two doubles), so there is no reference
//    lifetime to protect, unlike the per-calculator cache.
//  * Unsynchronized, like the session that owns it: only the session's
//    passes and its other calls (Register, rehydration, snapshot load)
//    price plans, all on the session's thread.
#ifndef IQRO_SERVICE_SHARED_SUMMARY_CACHE_H_
#define IQRO_SERVICE_SHARED_SUMMARY_CACHE_H_

#include <cstdint>

#include "common/flat_map.h"
#include "common/relset.h"
#include "stats/summary.h"

namespace iqro {

class SharedSummaryCache final : public SummarySharedCache {
 public:
  bool Lookup(uint64_t epoch, RelSet s, Summary* out) const override;
  void Insert(uint64_t epoch, RelSet s, const Summary& value) override;

  /// Lookup outcomes since construction.
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }

  /// Entries stored for the current epoch.
  size_t size() const { return cache_.size(); }

 private:
  uint64_t epoch_ = 0;
  FlatMap64<Summary> cache_;
  mutable int64_t hits_ = 0;
  mutable int64_t misses_ = 0;
};

}  // namespace iqro

#endif  // IQRO_SERVICE_SHARED_SUMMARY_CACHE_H_
