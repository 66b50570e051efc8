// PlanDigest: the winner closure of one optimizer, captured as a value —
// the companion type of DeclarativeOptimizer::CanonicalDumpState().
//
// The service layer's plan-change notifications (service/plan_subscriber.h)
// need to answer "did this query's canonical best plan change across a
// flush?" and, when it did, summarize *how* (which operators moved, how much
// of the join order survived). Both questions are questions about the
// winner closure — the set of (expr, prop) pairs reachable from the root
// through BestCost-winning alternatives — because that closure is the only
// projection of optimizer state that is independent of execution history
// (see the CanonicalDumpState comment in core/declarative_optimizer.h).
//
// A digest is structured data from one walk: each closure node's content,
// its winner and its raw costs, plus the best plan's join order. It holds
// no text. CanonicalDumpState() renders the same nodes, and SamePlan()
// compares them field by field, so "the digest changed" and "the
// canonical dump changed" can never disagree — the property the
// differential harness pins. Costs compare equal when their bits match or
// when the dump's lossy %.6g rendering of them matches: two states whose
// costs differ only below 6 significant digits compare equal, by design
// (the dump's equality is the contract, not bit-exactness).
#ifndef IQRO_CORE_PLAN_DIGEST_H_
#define IQRO_CORE_PLAN_DIGEST_H_

#include <limits>
#include <vector>

#include "common/relset.h"
#include "cost/physical.h"
#include "cost/prop_table.h"

namespace iqro {

/// One winner-closure node: an (expr, prop) pair and its BestCost-winning
/// alternative. Properties are stored as resolved content, never as
/// PropIds (interning order differs between optimizers with different
/// exploration histories). A property's relation slot is the first slot
/// with the same alias, so two properties are equal exactly when the dump
/// renders them alike.
struct PlanDigestOp {
  RelSet expr = 0;
  Prop prop;
  /// False only for a root whose aggregate is empty (no derivable plan —
  /// degenerate, but representable).
  bool has_win = false;
  LogOp logop = LogOp::kScan;
  PhysOp phyop = PhysOp::kSeqScan;
  RelSet lexpr = 0;
  RelSet rexpr = 0;
  Prop lprop;
  Prop rprop;
  /// The pair's BestCost, and the winning alternative's PlanCost (equal at
  /// a fixpoint; the dump prints both). Raw doubles.
  double cost = std::numeric_limits<double>::infinity();
  double win_cost = std::numeric_limits<double>::infinity();

  /// Same operator at the same (expr, prop) slot: everything except cost.
  /// The diff summary counts operators, not price movements — a pure cost
  /// shift with an unchanged winner is "0 operators changed" (the event
  /// still fires; its old/new costs carry the movement).
  bool SameOperator(const PlanDigestOp& o) const {
    return expr == o.expr && prop == o.prop && has_win == o.has_win &&
           logop == o.logop && phyop == o.phyop && lexpr == o.lexpr &&
           rexpr == o.rexpr && lprop == o.lprop && rprop == o.rprop;
  }
};

struct PlanDigest {
  /// Root BestCost (infinity before Optimize() / with no derivable plan).
  double best_cost = std::numeric_limits<double>::infinity();
  /// Winner-closure nodes in canonical order: (|expr|, expr, resolved
  /// property) ascending — one entry per (expr, prop) pair.
  std::vector<PlanDigestOp> ops;
  /// The best plan's leaf relation slots in tree order (left subtree before
  /// right subtree); empty when there is no derivable plan.
  std::vector<int> join_order;

  /// THE change predicate: exactly "CanonicalDumpState() would compare
  /// equal" for two digests of one query. Plan-change notifications fire
  /// on !SamePlan.
  bool SamePlan(const PlanDigest& o) const;
};

/// What a PlanChangeEvent summarizes about old -> new.
struct PlanDiffSummary {
  /// Operators of the new closure with no SameOperator match at their
  /// (expr, prop) slot in the old closure — i.e. the winner moved, the
  /// physical operator changed, or the pair is newly reachable.
  int changed_operators = 0;
  /// Size of the new winner closure.
  int total_operators = 0;
  /// Length of the longest common prefix of old and new join orders — the
  /// part of an in-flight pipelined execution a plan switch could keep.
  int join_order_prefix = 0;
  /// Length of the new join order (== the query's relation count when a
  /// plan is derivable).
  int join_order_len = 0;
};

PlanDiffSummary DiffPlanDigests(const PlanDigest& before, const PlanDigest& after);

}  // namespace iqro

#endif  // IQRO_CORE_PLAN_DIGEST_H_
