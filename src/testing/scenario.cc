#include "testing/scenario.h"

#include "common/check.h"
#include "common/str_util.h"

namespace iqro::testing {

const char* StatMutationKindName(StatMutation::Kind k) {
  switch (k) {
    case StatMutation::Kind::kBaseRows:
      return "base_rows";
    case StatMutation::Kind::kLocalSelectivity:
      return "local_sel";
    case StatMutation::Kind::kRowWidth:
      return "row_width";
    case StatMutation::Kind::kScanCost:
      return "scan_cost";
    case StatMutation::Kind::kJoinSelectivity:
      return "join_sel";
    case StatMutation::Kind::kCardMultiplier:
      return "card_mult";
  }
  return "?";
}

void ApplyChurnPrefix(StatsRegistry* registry, const Scenario& scenario, size_t n_steps) {
  IQRO_CHECK(n_steps <= scenario.churn.size());
  for (size_t s = 0; s < n_steps; ++s) {
    for (const StatMutation& m : scenario.churn[s].mutations) ApplyMutation(registry, m);
  }
}

namespace {

std::string WindowToString(const WindowSpec& w) {
  switch (w.kind) {
    case WindowSpec::Kind::kNone:
      return "";
    case WindowSpec::Kind::kTime:
      return StrFormat(" [size %lld time]", static_cast<long long>(w.size));
    case WindowSpec::Kind::kTuples:
      return StrFormat(" [size %lld tuple part=%d]", static_cast<long long>(w.size),
                       w.partition_col);
  }
  return "";
}

}  // namespace

std::string ScenarioToString(const Scenario& sc) {
  std::string out = StrFormat("scenario seed=%llu options=%s catalog=%s\n",
                              static_cast<unsigned long long>(sc.seed),
                              sc.options_name.c_str(),
                              sc.catalog.use_tpch ? "tpch" : "synthetic");
  if (!sc.catalog.use_tpch) {
    for (const SyntheticTableSpec& t : sc.catalog.tables) {
      std::string cols;
      for (const SyntheticColumnSpec& c : t.cols) {
        cols += StrFormat(" [%lld,%lld]ndv=%s", static_cast<long long>(c.min),
                          static_cast<long long>(c.max), DoubleToString(c.ndv).c_str());
      }
      out += StrFormat("  table %s rows=%s width=%s idx=%#x clust=%d%s\n", t.name.c_str(),
                       DoubleToString(t.rows).c_str(), DoubleToString(t.width).c_str(),
                       t.indexed_cols, t.clustered_on, cols.c_str());
    }
  }
  out += StrFormat("  query %s\n", sc.query.name.c_str());
  for (int r = 0; r < sc.query.num_relations(); ++r) {
    const QueryRelation& qr = sc.query.relations[static_cast<size_t>(r)];
    out += StrFormat("    r%d = table#%d %s%s\n", r, qr.table, qr.alias.c_str(),
                     WindowToString(qr.window).c_str());
  }
  for (const JoinPredicate& j : sc.query.joins) {
    out += StrFormat("    join r%d.c%d %s r%d.c%d\n", j.left_rel, j.left_col,
                     PredOpName(j.op), j.right_rel, j.right_col);
  }
  for (const LocalPredicate& p : sc.query.locals) {
    out += StrFormat("    local r%d.c%d %s %lld", p.rel, p.col, PredOpName(p.op),
                     static_cast<long long>(p.value));
    if (p.op == PredOp::kBetween) out += StrFormat(" and %lld", static_cast<long long>(p.value2));
    out += "\n";
  }
  if (sc.query.has_aggregation()) {
    out += StrFormat("    aggregation: %zu group-by cols, %zu aggregates\n",
                     sc.query.group_by.size(), sc.query.aggregates.size());
  }
  for (size_t s = 0; s < sc.churn.size(); ++s) {
    out += StrFormat("  step %zu:\n", s);
    for (const StatMutation& m : sc.churn[s].mutations) {
      if (m.kind == StatMutation::Kind::kCardMultiplier) {
        out += StrFormat("    %s scope=%s value=%s\n", StatMutationKindName(m.kind),
                         RelSetToString(m.scope).c_str(), DoubleToString(m.value).c_str());
      } else {
        out += StrFormat("    %s target=%d value=%s\n", StatMutationKindName(m.kind), m.target,
                         DoubleToString(m.value).c_str());
      }
    }
  }
  return out;
}

}  // namespace iqro::testing
