#include "service/shared_summary_cache.h"

namespace iqro {

namespace {

/// One writer: a plain load and store, no locked read-modify-write.
void Bump(std::atomic<int64_t>* counter) {
  counter->store(counter->load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

}  // namespace

bool SharedSummaryCache::Lookup(uint64_t epoch, RelSet s, Summary* out) const {
  if (epoch_ == epoch) {
    if (const Summary* hit = cache_.Find(s)) {
      *out = *hit;
      Bump(&hits_);
      return true;
    }
  }
  Bump(&misses_);
  return false;
}

void SharedSummaryCache::Insert(uint64_t epoch, RelSet s, const Summary& value) {
  if (epoch < epoch_) return;  // straggler from a superseded epoch: drop
  if (epoch > epoch_) {
    cache_.Clear();
    epoch_ = epoch;
  }
  cache_.TryEmplace(s, value);  // first insert wins (identical values)
}

}  // namespace iqro
