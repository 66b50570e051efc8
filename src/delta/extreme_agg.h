// ExtremeAgg: grouped min/max aggregate state that retains *all* inputs.
//
// This is the paper's extension of aggregate operators for incremental
// maintenance (§4): "we must further extend the internal state management
// to keep track of all values encountered — such that we can recover the
// second-from-minimum value. If the minimum is deleted, the operator should
// propagate an update delta, replacing its previous output with the
// next-best-minimum."
//
// Entries are (value, id) pairs ordered lexicographically, which doubles as
// the deterministic tie-break the paper's distinct-cost assumption
// (Proposition 5) stands in for.
//
// Storage is one sorted vector of (value, id) entries. One aggregate lives
// inside every plan-table entry (BestCost and Bound state), so the constant
// factor here is the fixpoint's constant factor. Groups are small (one
// entry per alternative / per parent contribution): finding an id by a
// linear scan costs no more than the memmove a sorted insert pays anyway,
// and it saves an id index per group. A changed value moves its entry in
// place, shifting only the entries between its old and new positions.
#ifndef IQRO_DELTA_EXTREME_AGG_H_
#define IQRO_DELTA_EXTREME_AGG_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "delta/delta.h"

namespace iqro {

template <typename Id = uint64_t>
class ExtremeAgg {
 public:
  using Entry = std::pair<double, Id>;

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  bool Contains(Id id) const { return Find(id) != entries_.end(); }

  double ValueOf(Id id) const {
    const auto it = Find(id);
    IQRO_DCHECK(it != entries_.end());
    return it->first;
  }

  /// Smallest (value, id) entry; infinity if empty.
  Entry MinEntry() const {
    if (entries_.empty()) return {std::numeric_limits<double>::infinity(), Id{}};
    return entries_.front();
  }

  /// Largest (value, id) entry; -infinity if empty.
  Entry MaxEntry() const {
    if (entries_.empty()) return {-std::numeric_limits<double>::infinity(), Id{}};
    return entries_.back();
  }

  double MinValue() const { return MinEntry().first; }
  double MaxValue() const { return MaxEntry().first; }

  /// Inserts or replaces the contribution of `id`. Returns true iff the
  /// group's min or max entry changed.
  bool Set(Id id, double value) {
    const Entry e{value, id};
    const auto it = Find(id);
    if (it == entries_.end()) {
      const bool extreme = entries_.empty() || e < entries_.front() || entries_.back() < e;
      entries_.insert(std::lower_bound(entries_.begin(), entries_.end(), e), e);
      return extreme;
    }
    if (it->first == value) return false;
    const Entry old_min = entries_.front();
    const Entry old_max = entries_.back();
    if (*it < e) {
      // Moves right: the entries between shift left by one.
      const auto pos = std::lower_bound(it + 1, entries_.end(), e);
      std::rotate(it, it + 1, pos);
      *(pos - 1) = e;
    } else {
      // Moves left: the entries between shift right by one.
      const auto pos = std::lower_bound(entries_.begin(), it, e);
      std::rotate(pos, it, it + 1);
      *pos = e;
    }
    return entries_.front() != old_min || entries_.back() != old_max;
  }

  /// Removes the contribution of `id` if present. Returns true iff the
  /// group's min or max entry changed.
  bool Erase(Id id) {
    const auto it = Find(id);
    if (it == entries_.end()) return false;
    const bool extreme = it == entries_.begin() || it + 1 == entries_.end();
    entries_.erase(it);
    return extreme;
  }

  void Clear() { entries_.clear(); }

  /// Ascending iteration over retained (value, id) entries.
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }

 private:
  typename std::vector<Entry>::iterator Find(Id id) {
    return std::find_if(entries_.begin(), entries_.end(),
                        [id](const Entry& e) { return e.second == id; });
  }
  typename std::vector<Entry>::const_iterator Find(Id id) const {
    return std::find_if(entries_.begin(), entries_.end(),
                        [id](const Entry& e) { return e.second == id; });
  }

  std::vector<Entry> entries_;  // sorted ascending by (value, id); ids unique
};

}  // namespace iqro

#endif  // IQRO_DELTA_EXTREME_AGG_H_
