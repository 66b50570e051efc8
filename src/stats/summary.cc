#include "stats/summary.h"

#include "common/check.h"

namespace iqro {

const Summary& SummaryCalculator::Get(RelSet s) const {
  if (cached_epoch_ != registry_->epoch()) {
    cache_.clear();
    cached_epoch_ = registry_->epoch();
  }
  auto it = cache_.find(s);
  if (it != cache_.end()) return it->second;
  return cache_.emplace(s, ComputeThroughShared(cached_epoch_, s)).first->second;
}

Summary SummaryCalculator::ComputeThroughShared(uint64_t epoch, RelSet s) const {
  Summary out;
  if (shared_ != nullptr && shared_->Lookup(epoch, s, &out)) return out;
  out = Compute(s);
  if (shared_ != nullptr) shared_->Insert(epoch, s, out);
  return out;
}

Summary SummaryCalculator::Compute(RelSet s) const {
  IQRO_DCHECK(RelCount(s) >= 1);
  Summary out;
  out.rows = 1.0;
  out.width = 0.0;
  RelForEach(s, [&](int r) {
    out.rows *= registry_->EffectiveRows(r);
    out.width += registry_->row_width(r);
  });
  for (int e = 0; e < registry_->num_edges(); ++e) {
    const JoinEdgeStats& edge = registry_->edge(e);
    if (RelIsSubset(edge.endpoints, s)) out.rows *= edge.selectivity;
  }
  out.rows *= registry_->CardMultiplier(s);
  if (out.rows < 0) out.rows = 0;
  return out;
}

}  // namespace iqro
