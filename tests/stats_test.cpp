#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "stats/histogram.h"
#include "stats/stats_registry.h"
#include "stats/summary.h"
#include "stats/table_stats.h"

namespace iqro {
namespace {

std::vector<int64_t> Iota(int64_t n) {
  std::vector<int64_t> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) v[static_cast<size_t>(i)] = i;
  return v;
}

TEST(HistogramTest, EmptyInput) {
  Histogram h = Histogram::Build({}, 8);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.SelectivityEq(5), 0.0);
  EXPECT_EQ(h.SelectivityLt(5), 0.0);
}

TEST(HistogramTest, UniformSelectivities) {
  auto values = Iota(1000);
  Histogram h = Histogram::Build(values, 16);
  EXPECT_EQ(h.total(), 1000u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 999);
  EXPECT_NEAR(h.ndv(), 1000, 1);
  EXPECT_NEAR(h.SelectivityLt(500), 0.5, 0.05);
  EXPECT_NEAR(h.SelectivityGt(750), 0.25, 0.05);
  EXPECT_NEAR(h.SelectivityBetween(100, 199), 0.1, 0.05);
  EXPECT_NEAR(h.SelectivityEq(123), 0.001, 0.001);
}

TEST(HistogramTest, OutOfRange) {
  Histogram h = Histogram::Build(Iota(100), 8);
  EXPECT_EQ(h.SelectivityEq(-5), 0.0);
  EXPECT_EQ(h.SelectivityEq(100), 0.0);
  EXPECT_EQ(h.SelectivityLt(-5), 0.0);
  EXPECT_EQ(h.SelectivityGt(99), 0.0);
  EXPECT_NEAR(h.SelectivityLt(1000), 1.0, 1e-9);
  EXPECT_NEAR(h.SelectivityBetween(-10, 1000), 1.0, 1e-9);
}

TEST(HistogramTest, HeavyDuplicatesEqEstimate) {
  std::vector<int64_t> values;
  for (int i = 0; i < 900; ++i) values.push_back(7);
  for (int i = 0; i < 100; ++i) values.push_back(i + 100);
  Histogram h = Histogram::Build(values, 8);
  // 90% of rows are the value 7; the estimate must reflect a large share.
  EXPECT_GT(h.SelectivityEq(7), 0.3);
  EXPECT_LT(h.SelectivityEq(500), 0.01);
}

TEST(HistogramTest, SkewedDataSumsToOne) {
  Rng rng(5);
  ZipfGenerator z(100, 0.8);
  std::vector<int64_t> values;
  for (int i = 0; i < 5000; ++i) values.push_back(static_cast<int64_t>(z.Sample(rng)));
  Histogram h = Histogram::Build(values, 10);
  double lt = h.SelectivityLt(50);
  double eq = h.SelectivityEq(50);
  double gt = h.SelectivityGt(50);
  EXPECT_NEAR(lt + eq + gt, 1.0, 0.05);
}

TEST(HistogramTest, MonotoneCdf) {
  Rng rng(6);
  std::vector<int64_t> values;
  for (int i = 0; i < 2000; ++i) values.push_back(rng.NextInRange(0, 500));
  Histogram h = Histogram::Build(values, 12);
  double prev = 0;
  for (int64_t v = 0; v <= 500; v += 25) {
    double lt = h.SelectivityLt(v);
    EXPECT_GE(lt + 1e-12, prev);
    prev = lt;
  }
}

TEST(TableStatsTest, CollectBasics) {
  Schema s;
  s.name = "t";
  s.columns = {{"a", ColumnType::kInt}, {"b", ColumnType::kInt}};
  Table t(s);
  for (int64_t i = 0; i < 50; ++i) t.AppendRow(std::vector<int64_t>{i, i % 5});
  TableStats stats = CollectTableStats(t, 8);
  EXPECT_EQ(stats.rows, 50);
  ASSERT_EQ(stats.columns.size(), 2u);
  EXPECT_EQ(stats.column(0).min, 0);
  EXPECT_EQ(stats.column(0).max, 49);
  EXPECT_NEAR(stats.column(0).ndv, 50, 1);
  EXPECT_NEAR(stats.column(1).ndv, 5, 1);
}

TEST(StatsRegistryTest, PendingOnlyAfterFreeze) {
  StatsRegistry reg(3);
  reg.SetBaseRows(0, 100);
  EXPECT_FALSE(reg.HasPending());  // setup-time mutation
  reg.Freeze();
  reg.SetBaseRows(0, 200);
  ASSERT_TRUE(reg.HasPending());
  auto pending = reg.TakePending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].kind, StatChange::Kind::kCardinality);
  EXPECT_EQ(pending[0].scope, RelSingleton(0));
  EXPECT_FALSE(reg.HasPending());
}

TEST(StatsRegistryTest, OscillationCoalescesToNetZero) {
  StatsRegistry reg(2);
  reg.SetBaseRows(0, 100);
  reg.Freeze();
  const uint64_t e0 = reg.epoch();
  reg.SetBaseRows(0, 400);
  reg.SetBaseRows(0, 100);  // back at the batch baseline
  EXPECT_TRUE(reg.HasPending());  // recorded-but-undrained (may overreport)
  EXPECT_EQ(reg.PendingStatCount(), 1u);
  EXPECT_TRUE(reg.TakePending().empty());  // ...and it nets to zero
  EXPECT_FALSE(reg.HasPending());
  EXPECT_GT(reg.epoch(), e0);  // caches still invalidate on net-zero churn
  EXPECT_EQ(reg.coalesce_stats().net_zero, 1);
  EXPECT_EQ(reg.coalesce_stats().emitted, 0);
}

TEST(StatsRegistryTest, RepeatedMutationsCollapseToOneChange) {
  StatsRegistry reg(2);
  reg.Freeze();
  reg.SetBaseRows(1, 10);
  reg.SetBaseRows(1, 20);
  reg.SetBaseRows(1, 30);
  auto pending = reg.TakePending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].kind, StatChange::Kind::kCardinality);
  EXPECT_EQ(pending[0].scope, RelSingleton(1));
  EXPECT_EQ(reg.coalesce_stats().recorded, 3);
  EXPECT_EQ(reg.coalesce_stats().collapsed, 2);
  EXPECT_EQ(reg.coalesce_stats().emitted, 1);
}

TEST(StatsRegistryTest, DistinctStatsWithEqualScopeMergeOnEmission) {
  StatsRegistry reg(2);
  reg.Freeze();
  // Base rows and local selectivity of relation 0 are different statistics
  // but seed the same (kCardinality, {0}) delta.
  reg.SetBaseRows(0, 500);
  reg.SetLocalSelectivity(0, 0.5);
  auto pending = reg.TakePending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].scope, RelSingleton(0));
  EXPECT_EQ(reg.coalesce_stats().scope_merged, 1);
  // ...but a scan-cost change of the same relation is a different Kind and
  // survives alongside a cardinality change.
  reg.SetBaseRows(0, 600);
  reg.SetScanCostMultiplier(0, 2.0);
  pending = reg.TakePending();
  EXPECT_EQ(pending.size(), 2u);
}

TEST(StatsRegistryTest, CardMultiplierRemovalNetsToZero) {
  StatsRegistry reg(3);
  reg.Freeze();
  reg.SetCardMultiplier(0b110, 2.0);
  reg.SetCardMultiplier(0b110, 1.0);  // remove the override again
  EXPECT_TRUE(reg.TakePending().empty());
  EXPECT_EQ(reg.CardMultiplier(0b110), 1.0);
}

TEST(StatsRegistryTest, BaselineResetsAcrossBatches) {
  StatsRegistry reg(1);
  reg.SetBaseRows(0, 100);
  reg.Freeze();
  reg.SetBaseRows(0, 200);
  EXPECT_EQ(reg.TakePending().size(), 1u);
  // New batch: 200 is now the baseline, so returning to 100 is a CHANGE.
  reg.SetBaseRows(0, 100);
  auto pending = reg.TakePending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].scope, RelSingleton(0));
}

TEST(StatsRegistryTest, JoinSelectivityCoalescesPerEdge) {
  StatsRegistry reg(2);
  // Two parallel edges over the same endpoints (self-join shapes produce
  // these): distinct statistics, one shared (kind, scope) on emission.
  reg.AddEdge(0b11, 0.5);
  reg.AddEdge(0b11, 0.25);
  reg.Freeze();
  reg.SetJoinSelectivity(0, 0.1);
  reg.SetJoinSelectivity(1, 0.2);
  EXPECT_EQ(reg.PendingStatCount(), 2u);
  auto pending = reg.TakePending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].scope, RelSet{0b11});
}

TEST(StatsRegistryTest, EpochAdvancesOnEveryChange) {
  StatsRegistry reg(2);
  uint64_t e0 = reg.epoch();
  reg.SetLocalSelectivity(1, 0.5);
  EXPECT_GT(reg.epoch(), e0);
}

TEST(StatsRegistryTest, ScanCostChangeKind) {
  StatsRegistry reg(2);
  reg.Freeze();
  reg.SetScanCostMultiplier(1, 2.0);
  auto pending = reg.TakePending();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].kind, StatChange::Kind::kScanCost);
  EXPECT_EQ(pending[0].scope, RelSingleton(1));
}

// The subscriber event carries the under-lock snapshot a flush policy
// evaluates against: the post-mutation epoch and the pending-scope mask
// size, consistent with the mutation that fired the callback.
TEST(StatsRegistryTest, MutationEventSnapshotsEpochAndPendingSize) {
  class Capture final : public StatsSubscriber {
   public:
    void OnStatsMutated(StatsRegistry& registry, const StatsMutationEvent& event) override {
      (void)registry;
      events.push_back(event);
    }
    std::vector<StatsMutationEvent> events;
  };
  StatsRegistry reg(3);
  Capture capture;
  reg.Subscribe(&capture);
  reg.Freeze();

  reg.SetBaseRows(0, 100);
  ASSERT_EQ(capture.events.size(), 1u);
  EXPECT_EQ(capture.events[0].epoch, reg.epoch());
  EXPECT_EQ(capture.events[0].pending_stats, 1u);

  reg.SetBaseRows(0, 200);  // collapses into the same pending entry
  ASSERT_EQ(capture.events.size(), 2u);
  EXPECT_EQ(capture.events[1].pending_stats, 1u);

  reg.SetScanCostMultiplier(1, 4.0);  // second distinct statistic
  ASSERT_EQ(capture.events.size(), 3u);
  EXPECT_EQ(capture.events[2].pending_stats, 2u);
  EXPECT_GT(capture.events[2].epoch, capture.events[0].epoch);

  reg.SetBaseRows(2, reg.base_rows(2));  // exact no-op: no record, no event
  EXPECT_EQ(capture.events.size(), 3u);

  reg.TakePending();
  reg.SetLocalSelectivity(2, 0.5);  // fresh batch: pending size restarts
  ASSERT_EQ(capture.events.size(), 4u);
  EXPECT_EQ(capture.events[3].pending_stats, 1u);
  reg.Unsubscribe(&capture);
}

TEST(StatsRegistryTest, CardMultiplierSubsetSemantics) {
  StatsRegistry reg(3);
  reg.SetCardMultiplier(0b011, 4.0);
  EXPECT_EQ(reg.CardMultiplier(0b011), 4.0);
  EXPECT_EQ(reg.CardMultiplier(0b111), 4.0);  // superset inherits
  EXPECT_EQ(reg.CardMultiplier(0b101), 1.0);  // not a superset
  reg.SetCardMultiplier(0b111, 2.0);
  EXPECT_EQ(reg.CardMultiplier(0b111), 8.0);  // multipliers compose
  reg.SetCardMultiplier(0b011, 1.0);          // reset one
  EXPECT_EQ(reg.CardMultiplier(0b111), 2.0);
}

// A scope whose factor returns to 1 leaves the multiplier list: after
// set/reset cycles over 64 scopes the registry carries exactly the scopes
// still off 1 (its serialized state is the size of one that only ever set
// those), every CardMultiplier value is unchanged, and the state
// round-trips.
TEST(StatsRegistryTest, ResetCardMultipliersLeaveTheList) {
  constexpr int kRelations = 7;
  StatsRegistry reg(kRelations);
  reg.Freeze();
  Rng rng(17);
  std::map<RelSet, double> live;  // scope -> factor, for scopes off 1
  for (int cycle = 0; cycle < 4; ++cycle) {
    for (RelSet scope = 1; scope <= 64; ++scope) {
      const double factor = rng.NextBool(0.5) ? 1.0 : 1.5 + static_cast<double>(scope % 5);
      reg.SetCardMultiplier(scope, factor);
      if (factor == 1.0) {
        live.erase(scope);
      } else {
        live[scope] = factor;
      }
    }
  }
  ASSERT_FALSE(live.empty());
  StatsRegistry reference(kRelations);
  reference.Freeze();
  for (const auto& [scope, factor] : live) reference.SetCardMultiplier(scope, factor);
  std::string state;
  std::string reference_state;
  reg.SerializeState(&state);
  reference.SerializeState(&reference_state);
  EXPECT_EQ(state.size(), reference_state.size());
  for (RelSet scope = 1; scope <= 64; ++scope) {
    const auto it = live.find(scope);
    EXPECT_EQ(reg.ScopeMultiplier(scope), it == live.end() ? 1.0 : it->second);
  }
  StatsRegistry restored(kRelations);
  restored.RestoreState(state);
  std::string round_trip;
  restored.SerializeState(&round_trip);
  EXPECT_EQ(round_trip, state);
  for (RelSet s = 1; s < (RelSet{1} << kRelations); ++s) {
    EXPECT_EQ(restored.CardMultiplier(s), reg.CardMultiplier(s));
    // The reference multiplies the same factors in another order.
    EXPECT_DOUBLE_EQ(reg.CardMultiplier(s), reference.CardMultiplier(s));
  }
}

// The pending batch holds at most one entry per statistic the registry
// has: 4 per relation, 1 per join edge, and 1 per card-multiplier scope
// that exists — i.e. that was ever set to a factor other than 1 (setting
// an absent scope to 1 is a no-op). A seeded stream over all seven
// mutators, drained at random intervals, must never push
// PendingStatCount() past that bound, and must match a shadow set of the
// statistics whose value changed since the last drain.
TEST(StatsRegistryTest, PendingEntriesNeverExceedTheRegistrysStatistics) {
  constexpr int kRelations = 6;
  StatsRegistry reg(kRelations);
  for (int r = 0; r + 1 < kRelations; ++r) {
    reg.AddEdge(RelSingleton(r) | RelSingleton(r + 1), 0.1);
  }
  reg.AddEdge(RelSingleton(0) | RelSingleton(kRelations - 1), 0.2);
  reg.AddEdge(RelSingleton(1) | RelSingleton(2), 0.3);  // parallel edge
  reg.Freeze();
  const std::vector<RelSet> scopes = {0b000001, 0b000011, 0b000110, 0b001100,
                                      0b111000, 0b010101, 0b111111, 0b100000};
  const double values[] = {0.5, 1.0, 2.0, 4.0};
  const size_t base_bound = 4 * kRelations + static_cast<size_t>(reg.num_edges());

  Rng rng(20240607);
  std::set<RelSet> scopes_set_off_one;
  std::set<std::pair<int, uint64_t>> shadow;  // (mutator, target) changed since drain
  size_t max_pending = 0;
  for (int i = 0; i < 10000; ++i) {
    int kind = static_cast<int>(rng.NextBelow(7));
    const int rel = static_cast<int>(rng.NextBelow(kRelations));
    const int edge = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(reg.num_edges())));
    const RelSet scope = scopes[rng.NextBelow(scopes.size())];
    const double v = values[rng.NextBelow(4)];
    bool changed = false;
    uint64_t target = static_cast<uint64_t>(rel);
    switch (kind) {
      case 0:
        changed = reg.base_rows(rel) != v * 100;
        reg.SetBaseRows(rel, v * 100);
        break;
      case 1:
        changed = reg.local_selectivity(rel) != v / 4;
        reg.SetLocalSelectivity(rel, v / 4);
        break;
      case 2:
        changed = reg.row_width(rel) != v * 8;
        reg.SetRowWidth(rel, v * 8);
        break;
      case 3:
        changed = reg.scan_cost_multiplier(rel) != v;
        reg.SetScanCostMultiplier(rel, v);
        break;
      case 4:
        target = static_cast<uint64_t>(edge);
        changed = reg.join_selectivity(edge) != v / 8;
        reg.SetJoinSelectivity(edge, v / 8);
        break;
      case 5:
      case 6: {
        target = scope;
        const double before = reg.ScopeMultiplier(scope);
        if (kind == 5) {
          reg.SetCardMultiplier(scope, v);
        } else {
          reg.ScaleCardMultiplier(scope, rng.NextBool(0.5) ? 0.5 : 2.0);
        }
        changed = reg.ScopeMultiplier(scope) != before;
        kind = 5;  // both mutate the one statistic of `scope`
        break;
      }
    }
    if (changed) shadow.insert({kind, target});
    for (RelSet s : scopes) {
      if (reg.ScopeMultiplier(s) != 1.0) scopes_set_off_one.insert(s);
    }
    const size_t pending = reg.PendingStatCount();
    ASSERT_LE(pending, base_bound + scopes_set_off_one.size()) << "mutation " << i;
    ASSERT_EQ(pending, shadow.size()) << "mutation " << i;
    max_pending = std::max(max_pending, pending);
    if (rng.NextBelow(50) == 0) {
      reg.TakePendingBatch();
      shadow.clear();
      ASSERT_EQ(reg.PendingStatCount(), 0u);
    }
  }
  // The stream explores deep backlogs, not just a handful of entries.
  EXPECT_GT(max_pending, base_bound / 2);
}

TEST(SummaryTest, CanonicalCardinality) {
  StatsRegistry reg(3);
  reg.SetBaseRows(0, 100);
  reg.SetBaseRows(1, 200);
  reg.SetBaseRows(2, 50);
  reg.SetLocalSelectivity(1, 0.5);
  reg.AddEdge(0b011, 0.01);
  reg.AddEdge(0b110, 0.1);
  SummaryCalculator calc(&reg);
  EXPECT_DOUBLE_EQ(calc.Get(0b001).rows, 100);
  EXPECT_DOUBLE_EQ(calc.Get(0b010).rows, 100);            // 200 * 0.5
  EXPECT_DOUBLE_EQ(calc.Get(0b011).rows, 100 * 100 * 0.01);
  EXPECT_DOUBLE_EQ(calc.Get(0b111).rows, 100 * 100 * 0.01 * 50 * 0.1);
}

TEST(SummaryTest, DecompositionIndependence) {
  // Every way of splitting a set multiplies out to the same estimate:
  // card(ABC) relates to any of its partitions consistently.
  StatsRegistry reg(3);
  reg.SetBaseRows(0, 1000);
  reg.SetBaseRows(1, 300);
  reg.SetBaseRows(2, 700);
  reg.AddEdge(0b011, 0.004);
  reg.AddEdge(0b110, 0.002);
  reg.AddEdge(0b101, 0.01);
  SummaryCalculator calc(&reg);
  double abc = calc.Get(0b111).rows;
  // Joining (AB) with C applies edges BC and AC on top.
  EXPECT_NEAR(abc, calc.Get(0b011).rows * calc.Get(0b100).rows * 0.002 * 0.01, abc * 1e-9);
  // Joining (AC) with B applies edges AB and BC on top.
  EXPECT_NEAR(abc, calc.Get(0b101).rows * calc.Get(0b010).rows * 0.004 * 0.002, abc * 1e-9);
}

TEST(SummaryTest, CacheInvalidatesOnEpoch) {
  StatsRegistry reg(2);
  reg.SetBaseRows(0, 10);
  reg.SetBaseRows(1, 10);
  reg.AddEdge(0b011, 0.5);
  reg.Freeze();
  SummaryCalculator calc(&reg);
  EXPECT_DOUBLE_EQ(calc.Get(0b011).rows, 50);
  reg.SetJoinSelectivity(0, 0.1);
  EXPECT_DOUBLE_EQ(calc.Get(0b011).rows, 10);  // fresh value, not cached
}

TEST(SummaryTest, WidthIsAdditive) {
  StatsRegistry reg(2);
  reg.SetRowWidth(0, 3);
  reg.SetRowWidth(1, 5);
  reg.AddEdge(0b011, 1.0);
  SummaryCalculator calc(&reg);
  EXPECT_DOUBLE_EQ(calc.Get(0b011).width, 8);
}

}  // namespace
}  // namespace iqro
