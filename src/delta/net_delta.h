// NetDeltaTable: coalesces a keyed stream of statistics mutations into one
// net delta per statistic.
//
// The paper observes that incremental re-optimization is cheapest when
// updates are *batched* before the delta fixpoint runs (§4): a sequence of
// changes to the same statistic needs only one round of delta propagation,
// and a sequence that ends where it started needs none. This table is the
// data structure behind that batching: each mutation is recorded against a
// 64-bit statistic identity together with the value the statistic held
// *before* the mutation. The first record of a key in a batch captures that
// value as the key's baseline; every later record of the same key collapses
// into the existing entry (the baseline is what matters — intermediate
// values were never consumed by anyone). At flush time the owner compares
// each entry's baseline against the statistic's current value: equal means
// the churn netted to zero and the entry is dropped; different means exactly
// one delta is emitted, regardless of how many mutations produced it.
//
// Entries preserve insertion order so that flushes are deterministic
// (byte-stable dumps and replayable differential scenarios depend on this).
// Lookup is an open-addressing probe (common/flat_map.h); the entry payload
// lives in a flat vector.
#ifndef IQRO_DELTA_NET_DELTA_H_
#define IQRO_DELTA_NET_DELTA_H_

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/flat_map.h"

namespace iqro {

class NetDeltaTable {
 public:
  struct Entry {
    uint64_t key = 0;      // statistic identity (owner-defined packing)
    double baseline = 0;   // value of the statistic before its first
                           // mutation in the current batch
  };

  /// Records a mutation of the statistic identified by `key` whose value
  /// before the mutation was `value_before`. Returns true when this created
  /// a new entry (first mutation of that key in the batch); false when the
  /// mutation collapsed into an existing entry, whose original baseline is
  /// kept.
  bool Record(uint64_t key, double value_before) {
    auto [slot, inserted] = index_.TryEmplace(key, 0u);
    if (!inserted) return false;
    *slot = static_cast<uint32_t>(entries_.size());
    entries_.push_back({key, value_before});
    return true;
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Entries in insertion order (the order their keys first mutated).
  const Entry& entry(size_t i) const { return entries_[i]; }

  /// Removes the most recently inserted entry. Fault-injection hook for the
  /// differential harness: the statistic itself stays mutated, but its
  /// delta is silently lost. Returns false when the table is empty.
  bool PopBack() {
    if (entries_.empty()) return false;
    index_.Erase(entries_.back().key);
    entries_.pop_back();
    return true;
  }

  void Clear() {
    entries_.clear();
    index_.Clear();
  }

 private:
  std::vector<Entry> entries_;
  FlatMap64<uint32_t> index_;  // key -> entries_ position
};

}  // namespace iqro

#endif  // IQRO_DELTA_NET_DELTA_H_
