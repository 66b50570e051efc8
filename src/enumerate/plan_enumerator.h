// PlanEnumerator: the paper's Fn_isleaf / Fn_split built-ins.
//
// Given an (expression, property) pair it produces the deterministic list
// of physical alternatives (SearchSpace rows). The logical and physical
// enumerations are merged (§2.3): every half-partition of the relation set
// is expanded directly into physical operators with goal-directed child
// properties ("interesting orders"). The same instance is shared by the
// declarative optimizer and both procedural baselines so that all explore
// literally the same plan space.
#ifndef IQRO_ENUMERATE_PLAN_ENUMERATOR_H_
#define IQRO_ENUMERATE_PLAN_ENUMERATOR_H_

#include <deque>
#include <vector>

#include "catalog/catalog.h"
#include "common/flat_map.h"
#include "enumerate/alternative.h"
#include "query/join_graph.h"
#include "query/query_spec.h"

namespace iqro {

/// Single-threaded: the split memo and the PropTable it interns goal
/// properties into are plain containers, driven by one optimizer at a time
/// (a ReoptSession flushes on one thread). Split() memoizes in first-demand
/// order, so property ids come out in a deterministic order. Everything else
/// it reads (query, graph, catalog) is const.
class PlanEnumerator {
 public:
  PlanEnumerator(const QuerySpec* query, const JoinGraph* graph, const Catalog* catalog,
                 PropTable* props);

  const QuerySpec& query() const { return *query_; }
  const JoinGraph& graph() const { return *graph_; }
  const Catalog& catalog() const { return *catalog_; }
  /// Read access for plan rendering and dumps. Interning happens only
  /// inside Split (the enumerator owns goal-property creation), so the
  /// const surface is genuinely read-only.
  const PropTable& props() const { return *props_; }
  PropTable& mutable_props() { return *props_; }

  /// Fn_isleaf.
  static bool IsLeaf(RelSet expr) { return RelCount(expr) == 1; }

  /// The root (expression, property) demand of the query.
  EPKey RootKey() const { return MakeEPKey(query_->AllRelations(), kPropNone); }

  /// Fn_split: all alternatives for (expr, prop); memoized, stable order.
  const std::vector<Alt>& Split(RelSet expr, PropId prop);

  struct SpaceSize {
    int64_t eps = 0;   // (expr, prop) pairs reachable from the root (OR-nodes)
    int64_t alts = 0;  // SearchSpace rows across those pairs (AND-nodes)
  };

  /// Exhaustively walks the plan space from the root with no pruning —
  /// the denominator of the paper's pruning/update ratios.
  SpaceSize CountFullSpace();

 private:
  std::vector<Alt> ComputeSplit(RelSet expr, PropId prop);
  void LeafAlternatives(RelSet expr, PropId prop, std::vector<Alt>* out);
  void JoinAlternatives(RelSet expr, PropId prop, std::vector<Alt>* out);
  const Table& TableOf(int rel) const;

  const QuerySpec* query_;
  const JoinGraph* graph_;
  const Catalog* catalog_;
  PropTable* props_;
  // Split() hands out references that must survive later insertions, so the
  // alternative lists live in a deque (stable addresses) and the flat table
  // maps the packed (RelSet, PropId) key to them.
  std::deque<std::vector<Alt>> split_store_;
  FlatMap64<const std::vector<Alt>*> memo_;
};

}  // namespace iqro

#endif  // IQRO_ENUMERATE_PLAN_ENUMERATOR_H_
