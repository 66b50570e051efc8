#include "service/shared_summary_cache.h"

namespace iqro {

bool SharedSummaryCache::Lookup(uint64_t epoch, RelSet s, Summary* out) const {
  if (epoch_ == epoch) {
    if (const Summary* hit = cache_.Find(s)) {
      *out = *hit;
      ++hits_;
      return true;
    }
  }
  ++misses_;
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
