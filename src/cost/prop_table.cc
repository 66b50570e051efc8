#include "cost/prop_table.h"

#include "common/check.h"
#include "common/str_util.h"

namespace iqro {

PropTable::PropTable() {
  props_.push_back(Prop{});  // id 0 = none
  index_.TryEmplace(KeyOf(Prop{}), kPropNone);
}

uint64_t PropTable::KeyOf(const Prop& p) {
  return (static_cast<uint64_t>(p.kind) << 40) |
         (static_cast<uint64_t>(static_cast<uint32_t>(p.col.rel)) << 20) |
         static_cast<uint64_t>(static_cast<uint32_t>(p.col.col));
}

PropId PropTable::Intern(const Prop& p) {
  auto [slot, inserted] = index_.TryEmplace(KeyOf(p), kPropNone);
  if (!inserted) return *slot;
  IQRO_CHECK(props_.size() < 0xFFFF);
  PropId id = static_cast<PropId>(props_.size());
  props_.push_back(p);
  *slot = id;
  return id;
}

std::string PropTable::Render(const Prop& p, const QuerySpec* query) {
  std::string col;
  if (p.kind != Prop::Kind::kNone) {
    if (query != nullptr) {
      col = StrFormat("%s.#%d", query->relations[static_cast<size_t>(p.col.rel)].alias.c_str(),
                      p.col.col);
    } else {
      col = StrFormat("r%d.#%d", p.col.rel, p.col.col);
    }
  }
  switch (p.kind) {
    case Prop::Kind::kNone:
      return "-";
    case Prop::Kind::kSorted:
      return "sorted(" + col + ")";
    case Prop::Kind::kIndexed:
      return "indexed(" + col + ")";
  }
  return "?";
}

}  // namespace iqro
