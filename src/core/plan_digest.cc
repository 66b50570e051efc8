#include "core/plan_digest.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/str_util.h"

namespace iqro {

namespace {
/// Equal as the dump renders them: bit-identical, or alike under %.6g.
/// Two values that render alike differ by at most one unit in their sixth
/// significant digit, about 1e-5 of their magnitude; farther apart they
/// cannot, and are told apart without formatting either.
bool SameRenderedCost(double a, double b) {
  if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b)) return true;
  if (std::abs(a - b) > 2e-5 * std::max(std::abs(a), std::abs(b))) return false;
  return DoubleToString(a) == DoubleToString(b);
}
}  // namespace

bool PlanDigest::SamePlan(const PlanDigest& o) const {
  if (ops.size() != o.ops.size()) return false;
  for (size_t i = 0; i < ops.size(); ++i) {
    const PlanDigestOp& a = ops[i];
    const PlanDigestOp& b = o.ops[i];
    if (!a.SameOperator(b) || !SameRenderedCost(a.cost, b.cost)) return false;
    if (a.has_win && !SameRenderedCost(a.win_cost, b.win_cost)) return false;
  }
  return true;
}

PlanDiffSummary DiffPlanDigests(const PlanDigest& before, const PlanDigest& after) {
  PlanDiffSummary d;
  d.total_operators = static_cast<int>(after.ops.size());
  d.join_order_len = static_cast<int>(after.join_order.size());
  // Each closure holds at most one op per (expr, prop) pair, so pairing
  // slots is a lookup, not an alignment problem. Closures are small (the
  // best plan's substructure), so a linear probe per op beats hashing.
  for (const PlanDigestOp& op : after.ops) {
    const auto it = std::find_if(
        before.ops.begin(), before.ops.end(), [&op](const PlanDigestOp& b) {
          return b.expr == op.expr && b.prop == op.prop;
        });
    if (it == before.ops.end() || !it->SameOperator(op)) ++d.changed_operators;
  }
  const size_t n = std::min(before.join_order.size(), after.join_order.size());
  size_t p = 0;
  while (p < n && before.join_order[p] == after.join_order[p]) ++p;
  d.join_order_prefix = static_cast<int>(p);
  return d;
}

}  // namespace iqro
