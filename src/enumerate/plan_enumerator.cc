#include "enumerate/plan_enumerator.h"

#include <deque>

#include "common/check.h"

namespace iqro {

PlanEnumerator::PlanEnumerator(const QuerySpec* query, const JoinGraph* graph,
                               const Catalog* catalog, PropTable* props)
    : query_(query), graph_(graph), catalog_(catalog), props_(props) {}

const Table& PlanEnumerator::TableOf(int rel) const {
  return catalog_->table(query_->relations[static_cast<size_t>(rel)].table);
}

const std::vector<Alt>& PlanEnumerator::Split(RelSet expr, PropId prop) {
  EPKey key = MakeEPKey(expr, prop);
  if (const std::vector<Alt>* const* slot = memo_.Find(key)) return **slot;
  // ComputeSplit never re-enters Split, so the insert can follow it.
  split_store_.push_back(ComputeSplit(expr, prop));
  const std::vector<Alt>* stored = &split_store_.back();
  memo_.TryEmplace(key, stored);
  return *stored;
}

std::vector<Alt> PlanEnumerator::ComputeSplit(RelSet expr, PropId prop) {
  std::vector<Alt> out;
  if (IsLeaf(expr)) {
    LeafAlternatives(expr, prop, &out);
  } else {
    JoinAlternatives(expr, prop, &out);
  }
  return out;
}

void PlanEnumerator::LeafAlternatives(RelSet expr, PropId prop, std::vector<Alt>* out) {
  const int rel = RelLowest(expr);
  const Table& table = TableOf(rel);
  // By value: interning below may grow the PropTable and invalidate
  // references into it.
  const Prop p = props_->Get(prop);
  switch (p.kind) {
    case Prop::Kind::kNone: {
      Alt a;
      a.logop = LogOp::kScan;
      a.phyop = PhysOp::kSeqScan;
      out->push_back(a);
      return;
    }
    case Prop::Kind::kSorted: {
      IQRO_CHECK(p.col.rel == rel);
      if (table.clustered_on() == p.col.col) {
        Alt a;
        a.logop = LogOp::kScan;
        a.phyop = PhysOp::kSeqScan;  // clustered storage delivers the order
        out->push_back(a);
      }
      if (table.HasIndex(p.col.col)) {
        Alt a;
        a.logop = LogOp::kScan;
        a.phyop = PhysOp::kIndexScan;
        out->push_back(a);
      }
      Alt sort;
      sort.logop = LogOp::kSort;
      sort.phyop = PhysOp::kSort;
      sort.lexpr = expr;
      sort.lprop = kPropNone;
      out->push_back(sort);
      return;
    }
    case Prop::Kind::kIndexed: {
      IQRO_CHECK(p.col.rel == rel);
      if (table.HasIndex(p.col.col)) {
        Alt a;
        a.logop = LogOp::kScan;
        a.phyop = PhysOp::kIndexRef;
        out->push_back(a);
      }
      return;
    }
  }
}

void PlanEnumerator::JoinAlternatives(RelSet expr, PropId prop, std::vector<Alt>* out) {
  // By value: the Intern calls below may grow the PropTable and would
  // invalidate a reference held across them (latent use-after-free that
  // surfaced when the table's allocation pattern changed).
  const Prop p = props_->Get(prop);
  IQRO_CHECK(p.kind != Prop::Kind::kIndexed);  // only leaves can be index inners

  if (p.kind == Prop::Kind::kSorted) {
    // The sort enforcer over the unordered result is always an option.
    Alt sort;
    sort.logop = LogOp::kSort;
    sort.phyop = PhysOp::kSort;
    sort.lexpr = expr;
    sort.lprop = kPropNone;
    out->push_back(sort);
  }

  RelForEachHalfPartition(expr, [&](RelSet left) {
    RelSet right = expr ^ left;
    if (!graph_->IsConnected(left) || !graph_->IsConnected(right)) return;
    std::vector<int> cross = graph_->CrossEdges(left, right);
    if (cross.empty()) return;
    std::vector<int> eqs;
    for (int e : cross) {
      if (graph_->edge(e).op == PredOp::kEq) eqs.push_back(e);
    }

    auto smj_alt = [&](int e) -> Alt {
      const JoinPredicate& jp = graph_->edge(e);
      const bool left_holds_l = RelContains(left, jp.left_rel);
      ColRef lcol = left_holds_l ? ColRef{jp.left_rel, jp.left_col}
                                 : ColRef{jp.right_rel, jp.right_col};
      ColRef rcol = left_holds_l ? ColRef{jp.right_rel, jp.right_col}
                                 : ColRef{jp.left_rel, jp.left_col};
      Alt a;
      a.logop = LogOp::kJoin;
      a.phyop = PhysOp::kSortMergeJoin;
      a.lexpr = left;
      a.lprop = props_->InternSorted(lcol);
      a.rexpr = right;
      a.rprop = props_->InternSorted(rcol);
      a.edge = static_cast<int16_t>(e);
      return a;
    };

    if (p.kind == Prop::Kind::kSorted) {
      // Sort-merge joins whose output order matches the demand: merge on
      // l.a = r.b emits rows ordered by the (equal) key values, i.e.
      // sorted on both a and b.
      for (int e : eqs) {
        const JoinPredicate& jp = graph_->edge(e);
        ColRef a{jp.left_rel, jp.left_col};
        ColRef b{jp.right_rel, jp.right_col};
        if (p.col == a || p.col == b) out->push_back(smj_alt(e));
      }
      return;
    }

    // Unordered demand: the full operator menu.
    if (!eqs.empty()) {
      for (RelSet build : {left, right}) {
        RelSet probe = expr ^ build;
        Alt a;
        a.logop = LogOp::kJoin;
        a.phyop = PhysOp::kHashJoin;
        a.lexpr = build;
        a.lprop = kPropNone;
        a.rexpr = probe;
        a.rprop = kPropNone;
        a.edge = static_cast<int16_t>(eqs.front());
        out->push_back(a);
      }
      for (int e : eqs) out->push_back(smj_alt(e));
      // Index nested-loop: a single indexed base relation as inner (left
      // operand, per the paper's Table 1), the rest as outer.
      for (RelSet inner : {left, right}) {
        if (!IsLeaf(inner)) continue;
        RelSet outer = expr ^ inner;
        const int rel = RelLowest(inner);
        for (int e : eqs) {
          const JoinPredicate& jp = graph_->edge(e);
          int inner_col = -1;
          if (jp.left_rel == rel) {
            inner_col = jp.left_col;
          } else if (jp.right_rel == rel) {
            inner_col = jp.right_col;
          } else {
            continue;
          }
          if (!TableOf(rel).HasIndex(inner_col)) continue;
          Alt a;
          a.logop = LogOp::kJoin;
          a.phyop = PhysOp::kIndexNLJoin;
          a.lexpr = inner;
          a.lprop = props_->InternIndexed({rel, inner_col});
          a.rexpr = outer;
          a.rprop = kPropNone;
          a.edge = static_cast<int16_t>(e);
          out->push_back(a);
        }
      }
    } else {
      // Only non-equality predicates cross this partition.
      Alt a;
      a.logop = LogOp::kJoin;
      a.phyop = PhysOp::kNestedLoopJoin;
      a.lexpr = left;
      a.lprop = kPropNone;
      a.rexpr = right;
      a.rprop = kPropNone;
      out->push_back(a);
    }
  });
}

PlanEnumerator::SpaceSize PlanEnumerator::CountFullSpace() {
  SpaceSize size;
  FlatMap64<bool> seen;
  std::deque<EPKey> queue;
  queue.push_back(RootKey());
  seen.TryEmplace(RootKey(), true);
  while (!queue.empty()) {
    EPKey key = queue.front();
    queue.pop_front();
    ++size.eps;
    const auto& alts = Split(EPExpr(key), EPProp(key));
    size.alts += static_cast<int64_t>(alts.size());
    for (const Alt& a : alts) {
      if (a.NumChildren() >= 1) {
        EPKey l = MakeEPKey(a.lexpr, a.lprop);
        if (seen.TryEmplace(l, true).second) queue.push_back(l);
      }
      if (a.NumChildren() == 2) {
        EPKey r = MakeEPKey(a.rexpr, a.rprop);
        if (seen.TryEmplace(r, true).second) queue.push_back(r);
      }
    }
  }
  return size;
}

}  // namespace iqro
