// Physical properties ("interesting orders" / index availability, §2.1) and
// their per-query interning. PropId 0 is always the empty property.
#ifndef IQRO_COST_PROP_TABLE_H_
#define IQRO_COST_PROP_TABLE_H_

#include <cstdint>
#include <deque>
#include <string>

#include "common/flat_map.h"
#include "query/query_spec.h"

namespace iqro {

using PropId = uint16_t;

inline constexpr PropId kPropNone = 0;

struct Prop {
  enum class Kind : uint8_t { kNone, kSorted, kIndexed };
  Kind kind = Kind::kNone;
  ColRef col;  // meaningful unless kNone

  bool operator==(const Prop&) const = default;
};

/// Single-threaded, like the optimizers that share it: ids are assigned in
/// first-intern order, so one world interned the same way always numbers its
/// properties the same way. Interned Props live in a deque, so a `Get`
/// reference stays valid across later interning (plan enumeration holds
/// them while it interns goal properties).
class PropTable {
 public:
  PropTable();

  PropId Intern(const Prop& p);
  PropId InternSorted(ColRef col) { return Intern({Prop::Kind::kSorted, col}); }
  PropId InternIndexed(ColRef col) { return Intern({Prop::Kind::kIndexed, col}); }

  const Prop& Get(PropId id) const { return props_[id]; }
  int size() const { return static_cast<int>(props_.size()); }

  std::string ToString(PropId id, const QuerySpec* query = nullptr) const {
    return Render(Get(id), query);
  }
  /// The rendering ToString uses, from content: `query` supplies relation
  /// aliases ("r<slot>" without one).
  static std::string Render(const Prop& p, const QuerySpec* query = nullptr);

 private:
  std::deque<Prop> props_;   // stable addresses: Get references never move
  FlatMap64<PropId> index_;  // packed Prop bits -> interned id

  static uint64_t KeyOf(const Prop& p);
};

/// Packs an (expression, property) pair — the paper's OR-node identity —
/// into one 64-bit key.
using EPKey = uint64_t;

inline EPKey MakeEPKey(RelSet expr, PropId prop) {
  return (static_cast<uint64_t>(expr) << 16) | prop;
}
inline RelSet EPExpr(EPKey k) { return static_cast<RelSet>(k >> 16); }
inline PropId EPProp(EPKey k) { return static_cast<PropId>(k & 0xFFFF); }

}  // namespace iqro

#endif  // IQRO_COST_PROP_TABLE_H_
