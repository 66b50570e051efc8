// SharedSummaryCache: the session-level implementation of the
// SummarySharedCache interface (stats/summary.h) — one epoch-keyed summary
// store shared by every query registered in a ReoptSession, so overlapping
// relation sets pay for Fn_scansummary/Fn_nonscansummary once per flush
// epoch instead of once per query.
//
// Epoch/locking contract (docs/ARCHITECTURE.md "Shared summary cache"):
//  * The store holds values for exactly ONE registry epoch at a time.
//    Insert at a newer epoch clears and re-keys; Lookup/Insert at an older
//    epoch than the store's miss/no-op — a straggler can never resurrect a
//    stale value.
//  * During a flush the registry's reader lock pins the epoch for the whole
//    dispatch window, so every pass of one flush agrees on the epoch.
//    Values are returned by copy (Summary is two doubles), so there is no
//    reference lifetime to protect, unlike the per-calculator cache.
//  * Internally locked (shared_mutex: hit path is a shared lock + find);
//    the session flushes on one thread, so the lock is uncontended.
//  * Racing inserts of one (epoch, s) write identical values (a Summary is
//    a pure function of registry state at that epoch); first insert wins.
#ifndef IQRO_SERVICE_SHARED_SUMMARY_CACHE_H_
#define IQRO_SERVICE_SHARED_SUMMARY_CACHE_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <unordered_map>

#include "common/relset.h"
#include "stats/summary.h"

namespace iqro {

class SharedSummaryCache final : public SummarySharedCache {
 public:
  bool Lookup(uint64_t epoch, RelSet s, Summary* out) const override;
  void Insert(uint64_t epoch, RelSet s, const Summary& value) override;

  /// Lookup outcomes since construction (relaxed; exact once quiesced —
  /// read them under the same rules as ReoptSession::metrics()).
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }

  /// Entries stored for the current epoch.
  size_t size() const;

 private:
  mutable std::shared_mutex mu_;
  uint64_t epoch_ = 0;
  std::unordered_map<RelSet, Summary> cache_;
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
};

}  // namespace iqro

#endif  // IQRO_SERVICE_SHARED_SUMMARY_CACHE_H_
