#include "stats/stats_registry.h"

#include <algorithm>
#include <exception>
#include <mutex>

#include "common/check.h"
#include "common/serialize.h"

namespace iqro {

StatsRegistry::StatsRegistry(int num_relations) { Reset(num_relations); }

void StatsRegistry::Reset(int num_relations) {
  IQRO_CHECK(num_relations >= 0 && num_relations <= kMaxRelations);
  // Reset is setup-time only: a subscribed session may still dispatch to
  // optimizers built over the OLD relation slots (out-of-bounds reads).
  // Destroy sessions before resetting the world they watch.
  IQRO_CHECK(subscribers_.empty());
  num_relations_ = num_relations;
  base_rows_.assign(static_cast<size_t>(num_relations), 1.0);
  local_sel_.assign(static_cast<size_t>(num_relations), 1.0);
  row_width_.assign(static_cast<size_t>(num_relations), 1.0);
  scan_mult_.assign(static_cast<size_t>(num_relations), 1.0);
  edges_.clear();
  card_mults_.clear();
  frozen_ = false;
  epoch_ = 1;
  drained_epoch_ = 1;
  pending_.Clear();
  coalesce_ = CoalesceStats{};
}

int StatsRegistry::AddEdge(RelSet endpoints, double selectivity) {
  IQRO_CHECK(!frozen_);
  IQRO_CHECK(RelCount(endpoints) == 2);
  edges_.push_back({endpoints, selectivity});
  return static_cast<int>(edges_.size()) - 1;
}

bool StatsRegistry::RecordLocked(StatId stat, uint64_t target, double value_before) {
  ++epoch_;
  if (!frozen_) return false;
  ++coalesce_.recorded;
  // First mutation of this statistic in the batch captures the baseline;
  // later ones collapse into it (only the net delta ever reaches an
  // optimizer).
  if (!pending_.Record(StatKey(stat, target), value_before)) ++coalesce_.collapsed;
  return true;
}

void StatsRegistry::NotifySubscribers(const StatsMutationEvent& event) {
  // Outside the lock: a subscriber may flush (TakePendingBatch takes the
  // lock itself) from inside the callback. Indexed loop: callbacks must
  // not Subscribe/Unsubscribe (see header), but an index never dangles the
  // way a vector iterator would. `event` was snapshotted under the lock
  // that published the mutation, so every subscriber sees the consistent
  // (epoch, pending size) pair of *this* mutation even when later mutators
  // are already racing ahead.
  //
  // Every subscriber is notified even when an earlier one throws (a
  // session's policy-triggered flush may propagate a PlanSubscriber
  // exception): skipping the rest would silently starve their flush
  // policies of the mutation count. The first exception rethrows after
  // the loop.
  std::exception_ptr first_error;
  for (size_t i = 0; i < subscribers_.size(); ++i) {
    try {
      subscribers_[i]->OnStatsMutated(*this, event);
    } catch (...) {
      if (first_error == nullptr) first_error = std::current_exception();
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

void StatsRegistry::SetScalar(StatId stat, int target, std::vector<double>& slots, double value) {
  bool notify;
  StatsMutationEvent event;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    double& v = slots[static_cast<size_t>(target)];
    if (v == value) return;  // no-op
    const double before = v;
    v = value;
    notify = RecordLocked(stat, static_cast<uint64_t>(target), before);
    event = SnapshotEventLocked();
  }
  if (notify) NotifySubscribers(event);
}

double StatsRegistry::CurrentValue(StatId stat, uint64_t target) const {
  switch (stat) {
    case StatId::kBaseRows:
      return base_rows_[static_cast<size_t>(target)];
    case StatId::kLocalSel:
      return local_sel_[static_cast<size_t>(target)];
    case StatId::kRowWidth:
      return row_width_[static_cast<size_t>(target)];
    case StatId::kScanMult:
      return scan_mult_[static_cast<size_t>(target)];
    case StatId::kJoinSel:
      return edges_[static_cast<size_t>(target)].selectivity;
    case StatId::kCardMult:
      return ScopeMultiplier(static_cast<RelSet>(target));
  }
  IQRO_CHECK(false);
}

void StatsRegistry::SetBaseRows(int rel, double rows) {
  SetScalar(StatId::kBaseRows, rel, base_rows_, rows);
}

void StatsRegistry::SetLocalSelectivity(int rel, double sel) {
  SetScalar(StatId::kLocalSel, rel, local_sel_, sel);
}

void StatsRegistry::SetRowWidth(int rel, double width) {
  SetScalar(StatId::kRowWidth, rel, row_width_, width);
}

void StatsRegistry::SetScanCostMultiplier(int rel, double mult) {
  SetScalar(StatId::kScanMult, rel, scan_mult_, mult);
}

void StatsRegistry::SetJoinSelectivity(int edge_id, double sel) {
  IQRO_CHECK(edge_id >= 0 && edge_id < num_edges());
  bool notify;
  StatsMutationEvent event;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    double& v = edges_[static_cast<size_t>(edge_id)].selectivity;
    if (v == sel) return;
    const double before = v;
    v = sel;
    notify = RecordLocked(StatId::kJoinSel, static_cast<uint64_t>(edge_id), before);
    event = SnapshotEventLocked();
  }
  if (notify) NotifySubscribers(event);
}

bool StatsRegistry::SetCardMultiplierLocked(RelSet scope, double factor) {
  for (auto it = card_mults_.begin(); it != card_mults_.end(); ++it) {
    if (it->first != scope) continue;
    if (it->second == factor) return false;
    const double before = it->second;
    if (factor == 1.0) {
      // Back at 1 is the same as absent: drop the entry, keeping the
      // others in order. CardMultiplier multiplies the remaining factors in
      // the same order, and a factor of 1 is exact, so no value moves.
      card_mults_.erase(it);
    } else {
      it->second = factor;
    }
    return RecordLocked(StatId::kCardMult, scope, before);
  }
  if (factor == 1.0) return false;  // absent scope already means factor 1
  card_mults_.emplace_back(scope, factor);
  return RecordLocked(StatId::kCardMult, scope, 1.0);
}

void StatsRegistry::SetCardMultiplier(RelSet scope, double factor) {
  IQRO_CHECK(RelCount(scope) >= 1);
  bool notify;
  StatsMutationEvent event;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    notify = SetCardMultiplierLocked(scope, factor);
    event = SnapshotEventLocked();
  }
  if (notify) NotifySubscribers(event);
}

void StatsRegistry::ScaleCardMultiplier(RelSet scope, double factor) {
  IQRO_CHECK(RelCount(scope) >= 1);
  bool notify;
  StatsMutationEvent event;
  {
    // One critical section for the whole read-modify-write: the read half
    // (ScopeMultiplier walks card_mults_, which a racing mutator may
    // reallocate) and the write half must see the same vector, and two
    // racing Scales must compose rather than lose one factor.
    std::unique_lock<std::shared_mutex> lock(mu_);
    notify = SetCardMultiplierLocked(scope, ScopeMultiplier(scope) * factor);
    event = SnapshotEventLocked();
  }
  if (notify) NotifySubscribers(event);
}

double StatsRegistry::ScopeMultiplier(RelSet scope) const {
  for (const auto& [s, f] : card_mults_) {
    if (s == scope) return f;
  }
  return 1.0;
}

double StatsRegistry::CardMultiplier(RelSet s) const {
  double f = 1.0;
  for (const auto& [scope, factor] : card_mults_) {
    if (RelIsSubset(scope, s)) f *= factor;
  }
  return f;
}

StatsRegistry::DrainedBatch StatsRegistry::TakePendingBatch() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  DrainedBatch batch;
  batch.had_pending = !pending_.empty();
  drained_epoch_ = epoch_;
  batch.epoch = epoch_;
  std::vector<StatChange>& out = batch.changes;
  for (size_t i = 0; i < pending_.size(); ++i) {
    const NetDeltaTable::Entry& e = pending_.entry(i);
    const auto stat = static_cast<StatId>(e.key >> 32);
    const uint64_t target = e.key & 0xFFFFFFFFull;
    if (CurrentValue(stat, target) == e.baseline) {
      ++coalesce_.net_zero;  // oscillated back: nothing to re-optimize
      continue;
    }
    StatChange c;
    switch (stat) {
      case StatId::kBaseRows:
      case StatId::kLocalSel:
      case StatId::kRowWidth:
        c = {StatChange::Kind::kCardinality, RelSingleton(static_cast<int>(target))};
        break;
      case StatId::kScanMult:
        c = {StatChange::Kind::kScanCost, RelSingleton(static_cast<int>(target))};
        break;
      case StatId::kJoinSel:
        c = {StatChange::Kind::kCardinality, edges_[static_cast<size_t>(target)].endpoints};
        break;
      case StatId::kCardMult:
        c = {StatChange::Kind::kCardinality, static_cast<RelSet>(target)};
        break;
    }
    // Distinct statistics with one (kind, scope) seed the same state — the
    // change list is small, so a linear dedup beats hashing here.
    const bool dup = std::any_of(out.begin(), out.end(), [&](const StatChange& o) {
      return o.kind == c.kind && o.scope == c.scope;
    });
    if (dup) {
      ++coalesce_.scope_merged;
      continue;
    }
    out.push_back(c);
  }
  pending_.Clear();
  coalesce_.emitted += static_cast<int64_t>(out.size());
  return batch;
}

namespace {
constexpr uint8_t kStatsStateVersion = 1;
}  // namespace

void StatsRegistry::SerializeState(std::string* out) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  ByteWriter w(out);
  w.PutU8(kStatsStateVersion);
  w.PutI32(num_relations_);
  w.PutU64(epoch_);
  w.PutU64(drained_epoch_);
  for (size_t i = 0; i < base_rows_.size(); ++i) {
    w.PutF64(base_rows_[i]);
    w.PutF64(local_sel_[i]);
    w.PutF64(row_width_[i]);
    w.PutF64(scan_mult_[i]);
  }
  w.PutU32(static_cast<uint32_t>(edges_.size()));
  for (const JoinEdgeStats& e : edges_) {
    w.PutU32(e.endpoints);
    w.PutF64(e.selectivity);
  }
  w.PutU32(static_cast<uint32_t>(card_mults_.size()));
  for (const auto& [scope, factor] : card_mults_) {
    w.PutU32(scope);
    w.PutF64(factor);
  }
}

void StatsRegistry::RestoreState(const std::string& payload) {
  // Parse and validate EVERYTHING before the first write: a rejected
  // payload must leave the registry's values untouched.
  ByteReader r(payload);
  const uint8_t version = r.GetU8();
  if (version != kStatsStateVersion) {
    throw SerializeError(SerializeError::Code::kBadVersion,
                         "stats state: version " + std::to_string(version) + " != " +
                             std::to_string(kStatsStateVersion));
  }
  const int32_t nrel = r.GetI32();
  const uint64_t epoch = r.GetU64();
  const uint64_t drained_epoch = r.GetU64();
  if (nrel != num_relations_) {
    throw SerializeError(SerializeError::Code::kMismatch,
                         "stats state: relation count " + std::to_string(nrel) + " != " +
                             std::to_string(num_relations_));
  }
  std::vector<double> base_rows(static_cast<size_t>(nrel));
  std::vector<double> local_sel(static_cast<size_t>(nrel));
  std::vector<double> row_width(static_cast<size_t>(nrel));
  std::vector<double> scan_mult(static_cast<size_t>(nrel));
  for (size_t i = 0; i < base_rows.size(); ++i) {
    base_rows[i] = r.GetF64();
    local_sel[i] = r.GetF64();
    row_width[i] = r.GetF64();
    scan_mult[i] = r.GetF64();
  }
  const uint32_t nedges = r.GetU32();
  if (nedges != edges_.size()) {
    throw SerializeError(SerializeError::Code::kMismatch,
                         "stats state: edge count " + std::to_string(nedges) + " != " +
                             std::to_string(edges_.size()));
  }
  std::vector<double> edge_sel(nedges);
  for (uint32_t i = 0; i < nedges; ++i) {
    const RelSet endpoints = r.GetU32();
    if (endpoints != edges_[i].endpoints) {
      throw SerializeError(SerializeError::Code::kMismatch,
                           "stats state: edge " + std::to_string(i) +
                               " endpoints disagree with this world's join graph");
    }
    edge_sel[i] = r.GetF64();
  }
  const uint32_t nmults = r.GetU32();
  std::vector<std::pair<RelSet, double>> card_mults;
  card_mults.reserve(nmults);
  for (uint32_t i = 0; i < nmults; ++i) {
    const RelSet scope = r.GetU32();
    const double factor = r.GetF64();
    card_mults.emplace_back(scope, factor);
  }
  if (!r.AtEnd()) {
    throw SerializeError(SerializeError::Code::kBadSection,
                         "stats state: trailing bytes after the last section");
  }

  std::unique_lock<std::shared_mutex> lock(mu_);
  IQRO_CHECK(subscribers_.empty());  // setup-time only, like Reset
  base_rows_ = std::move(base_rows);
  local_sel_ = std::move(local_sel);
  row_width_ = std::move(row_width);
  scan_mult_ = std::move(scan_mult);
  for (uint32_t i = 0; i < nedges; ++i) edges_[i].selectivity = edge_sel[i];
  card_mults_ = std::move(card_mults);
  pending_.Clear();
  epoch_ = epoch;
  drained_epoch_ = drained_epoch;
  frozen_ = true;
}

void StatsRegistry::Subscribe(StatsSubscriber* subscriber) {
  IQRO_CHECK(subscriber != nullptr);
  IQRO_CHECK(std::find(subscribers_.begin(), subscribers_.end(), subscriber) ==
             subscribers_.end());
  subscribers_.push_back(subscriber);
}

void StatsRegistry::Unsubscribe(StatsSubscriber* subscriber) {
  auto it = std::find(subscribers_.begin(), subscribers_.end(), subscriber);
  IQRO_CHECK(it != subscribers_.end());
  subscribers_.erase(it);
}

bool StatsRegistry::DropOnePendingForTest() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return pending_.PopBack();
}

}  // namespace iqro
