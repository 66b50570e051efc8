#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "baseline/systemr.h"
#include "baseline/volcano.h"
#include "core/declarative_optimizer.h"
#include "core/rules.h"
#include "test_util.h"
#include "testing/differential.h"
#include "workload/context.h"
#include "workload/queries.h"
#include "workload/world.h"

namespace iqro {
namespace {

using ::iqro::testing::ApplyRandomStatUpdate;
using ::iqro::testing::GraphShape;
using ::iqro::testing::GraphShapeName;
using ::iqro::testing::MakeWorld;
using ::iqro::testing::RecomputeTreeCost;
using ::iqro::testing::TestWorld;
using ::iqro::testing::WorldOptions;

constexpr double kRelTol = 1e-9;

void ExpectClose(double a, double b, const std::string& what) {
  EXPECT_NEAR(a, b, kRelTol * std::max({1.0, std::abs(a), std::abs(b)})) << what;
}

// The configurations under test are the differential harness's rotation —
// one shared list, so the fuzzer and the equivalence tests never drift.
const std::vector<std::pair<std::string, OptimizerOptions>>& AllOptionSets() {
  return ::iqro::NamedOptionSets();
}

struct Scenario {
  GraphShape shape;
  int num_relations;
  uint64_t seed;
};

class OptimizerEquivalenceTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(OptimizerEquivalenceTest, InitialOptimizationAgreesAcrossImplementations) {
  const Scenario& sc = GetParam();
  WorldOptions wo;
  wo.shape = sc.shape;
  wo.num_relations = sc.num_relations;
  wo.seed = sc.seed;
  auto world = MakeWorld(wo);

  SystemROptimizer systemr(world->enumerator.get(), world->cost_model.get());
  systemr.Optimize();
  const double truth = systemr.BestCost();
  ASSERT_TRUE(std::isfinite(truth));

  VolcanoOptimizer volcano(world->enumerator.get(), world->cost_model.get());
  volcano.Optimize();
  ExpectClose(volcano.BestCost(), truth, "volcano vs systemr");

  for (const auto& [name, options] : AllOptionSets()) {
    DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                             &world->registry, options);
    opt.Optimize();
    ExpectClose(opt.BestCost(), truth, "declarative(" + name + ") vs systemr");
    opt.ValidateInvariants();
    auto plan = opt.GetBestPlan();
    ExpectClose(RecomputeTreeCost(*plan, *world->cost_model), truth,
                "plan recompute (" + name + ")");
  }
}

TEST_P(OptimizerEquivalenceTest, IncrementalReoptimizationMatchesFromScratch) {
  const Scenario& sc = GetParam();
  WorldOptions wo;
  wo.shape = sc.shape;
  wo.num_relations = sc.num_relations;
  wo.seed = sc.seed;

  for (const auto& [name, options] : AllOptionSets()) {
    auto world = MakeWorld(wo);
    DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                             &world->registry, options);
    opt.Optimize();

    Rng rng(sc.seed * 7919 + 17);
    for (int round = 0; round < 8; ++round) {
      int updates = 1 + static_cast<int>(rng.NextBelow(3));
      for (int u = 0; u < updates; ++u) ApplyRandomStatUpdate(world.get(), rng);
      opt.Reoptimize();
      opt.ValidateInvariants();

      SystemROptimizer fresh(world->enumerator.get(), world->cost_model.get());
      fresh.Optimize();
      ExpectClose(opt.BestCost(), fresh.BestCost(),
                  "round " + std::to_string(round) + " options=" + name);
      auto plan = opt.GetBestPlan();
      ExpectClose(RecomputeTreeCost(*plan, *world->cost_model), fresh.BestCost(),
                  "plan recompute round " + std::to_string(round) + " options=" + name);
      // Full state equivalence, not just the root cost: the incremental
      // fixpoint canonically dumps identically to a from-scratch run.
      DeclarativeOptimizer scratch(world->enumerator.get(), world->cost_model.get(),
                                   &world->registry, options);
      scratch.Optimize();
      EXPECT_EQ(opt.CanonicalDumpState(), scratch.CanonicalDumpState())
          << "round " << round << " options=" << name;
    }
  }
}

std::vector<Scenario> MakeScenarios() {
  std::vector<Scenario> out;
  for (GraphShape shape : {GraphShape::kChain, GraphShape::kStar, GraphShape::kCycle,
                           GraphShape::kClique}) {
    for (int n : {2, 3, 4, 5}) {
      for (uint64_t seed : {1ull, 2ull}) out.push_back({shape, n, seed});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Shapes, OptimizerEquivalenceTest,
                         ::testing::ValuesIn(MakeScenarios()),
                         [](const ::testing::TestParamInfo<Scenario>& info) {
                           return std::string(GraphShapeName(info.param.shape)) + "_n" +
                                  std::to_string(info.param.num_relations) + "_s" +
                                  std::to_string(info.param.seed);
                         });

class OptimizerBehaviorTest : public ::testing::Test {
 protected:
  std::unique_ptr<TestWorld> MakeChain(int n, uint64_t seed = 5) {
    WorldOptions wo;
    wo.shape = GraphShape::kChain;
    wo.num_relations = n;
    wo.seed = seed;
    return MakeWorld(wo);
  }
};

TEST_F(OptimizerBehaviorTest, OptimizeIsIdempotent) {
  auto world = MakeChain(4);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  double c = opt.BestCost();
  opt.Optimize();
  EXPECT_EQ(opt.BestCost(), c);
}

TEST_F(OptimizerBehaviorTest, ReoptimizeWithoutChangesIsFreeAndStable) {
  auto world = MakeChain(4);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  double c = opt.BestCost();
  opt.Reoptimize();
  opt.ValidateInvariants();
  EXPECT_EQ(opt.BestCost(), c);
  EXPECT_EQ(opt.metrics().round_touched_eps, 0);
  EXPECT_EQ(opt.metrics().round_touched_alts, 0);
  SystemROptimizer fresh(world->enumerator.get(), world->cost_model.get());
  fresh.Optimize();
  ExpectClose(opt.BestCost(), fresh.BestCost(), "no-op reoptimize oracle");
}

TEST_F(OptimizerBehaviorTest, PruningReducesExplorationVsNoPruning) {
  auto world = MakeChain(6);
  DeclarativeOptimizer pruned(world->enumerator.get(), world->cost_model.get(),
                              &world->registry, OptimizerOptions::Default());
  pruned.Optimize();
  DeclarativeOptimizer unpruned(world->enumerator.get(), world->cost_model.get(),
                                &world->registry, OptimizerOptions::UseNoPruning());
  unpruned.Optimize();
  auto full = world->enumerator->CountFullSpace();
  EXPECT_EQ(unpruned.metrics().eps_enumerated, full.eps);
  EXPECT_EQ(unpruned.metrics().alts_created, full.alts);
  EXPECT_LE(pruned.metrics().eps_enumerated, full.eps);
  EXPECT_LT(pruned.metrics().alts_full_costed, unpruned.metrics().alts_full_costed);
}

TEST_F(OptimizerBehaviorTest, EvitaNeverPrunesPlanTableEntries) {
  auto world = MakeChain(5);
  DeclarativeOptimizer evita(world->enumerator.get(), world->cost_model.get(),
                             &world->registry, OptimizerOptions::UseEvitaRaced());
  evita.Optimize();
  auto full = world->enumerator->CountFullSpace();
  EXPECT_EQ(evita.metrics().eps_enumerated, full.eps);
  EXPECT_EQ(evita.NumLiveEps(), full.eps);
  EXPECT_EQ(evita.metrics().suppressions, 0);
  EXPECT_EQ(evita.metrics().ep_gcs, 0);
}

TEST_F(OptimizerBehaviorTest, RefCountingGarbageCollects) {
  auto world = MakeChain(6);
  DeclarativeOptimizer with_rc(world->enumerator.get(), world->cost_model.get(),
                               &world->registry, OptimizerOptions::Default());
  with_rc.Optimize();
  DeclarativeOptimizer without_rc(world->enumerator.get(), world->cost_model.get(),
                                  &world->registry,
                                  OptimizerOptions::UseAggSelBounding());
  without_rc.Optimize();
  EXPECT_GT(with_rc.metrics().ep_gcs, 0);
  EXPECT_LE(with_rc.NumLiveEps(), without_rc.NumLiveEps());
}

TEST_F(OptimizerBehaviorTest, TargetedUpdateTouchesSubsetOfState) {
  auto world = MakeChain(6);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  auto full = world->enumerator->CountFullSpace();
  // Change the selectivity of the topmost join expression only: the
  // affected state is a small fraction of the space (paper Fig. 5).
  world->registry.SetCardMultiplier(world->query.AllRelations(), 4.0);
  opt.Reoptimize();
  opt.ValidateInvariants();
  EXPECT_GT(opt.metrics().round_touched_eps, 0);
  EXPECT_LT(opt.metrics().round_touched_eps, full.eps / 2);
  SystemROptimizer fresh(world->enumerator.get(), world->cost_model.get());
  fresh.Optimize();
  ExpectClose(opt.BestCost(), fresh.BestCost(), "top-expression update");
}

TEST_F(OptimizerBehaviorTest, LeafUpdateTouchesMoreThanTopUpdate) {
  auto world = MakeChain(6);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  world->registry.SetCardMultiplier(world->query.AllRelations(), 2.0);
  opt.Reoptimize();
  opt.ValidateInvariants();
  int64_t top_touched = opt.metrics().round_touched_eps;
  world->registry.SetJoinSelectivity(0, world->registry.join_selectivity(0) * 2.0);
  opt.Reoptimize();
  opt.ValidateInvariants();
  int64_t leaf_touched = opt.metrics().round_touched_eps;
  EXPECT_GE(leaf_touched, top_touched);
  SystemROptimizer fresh(world->enumerator.get(), world->cost_model.get());
  fresh.Optimize();
  ExpectClose(opt.BestCost(), fresh.BestCost(), "leaf update oracle");
}

TEST_F(OptimizerBehaviorTest, DramaticCostSwingFlipsPlan) {
  auto world = MakeChain(4, 11);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  auto before = opt.GetBestPlan();
  // Make the first relation's scan catastrophically expensive, then cheap.
  world->registry.SetScanCostMultiplier(0, 1000.0);
  opt.Reoptimize();
  opt.ValidateInvariants();
  SystemROptimizer fresh1(world->enumerator.get(), world->cost_model.get());
  fresh1.Optimize();
  ExpectClose(opt.BestCost(), fresh1.BestCost(), "after raise");

  world->registry.SetScanCostMultiplier(0, 0.1);
  opt.Reoptimize();
  opt.ValidateInvariants();
  SystemROptimizer fresh2(world->enumerator.get(), world->cost_model.get());
  fresh2.Optimize();
  ExpectClose(opt.BestCost(), fresh2.BestCost(), "after drop");
  auto after = opt.GetBestPlan();
  EXPECT_TRUE(std::isfinite(after->cost));
  (void)before;
}

TEST_F(OptimizerBehaviorTest, ReintroductionHappensAfterBestPlanDegrades) {
  auto world = MakeChain(5, 3);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  int64_t before = opt.metrics().reintroductions;
  // Degrade every relation the current best plan scans; previously pruned
  // alternatives must come back (§4.1 re-introduction).
  for (int r = 0; r < world->registry.num_relations(); ++r) {
    world->registry.SetScanCostMultiplier(r, r % 2 == 0 ? 50.0 : 1.0);
  }
  opt.Reoptimize();
  opt.ValidateInvariants();
  SystemROptimizer fresh(world->enumerator.get(), world->cost_model.get());
  fresh.Optimize();
  ExpectClose(opt.BestCost(), fresh.BestCost(), "post-degrade");
  EXPECT_GE(opt.metrics().reintroductions, before);
}

TEST_F(OptimizerBehaviorTest, MetricsAreInternallyConsistent) {
  auto world = MakeChain(5);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  const OptMetrics& m = opt.metrics();
  auto full = world->enumerator->CountFullSpace();
  EXPECT_LE(m.eps_enumerated, full.eps);
  EXPECT_LE(m.alts_created, full.alts);
  EXPECT_LE(m.alts_full_costed, m.alts_created);
  EXPECT_LE(opt.NumActiveAlts(), m.alts_created);
  EXPECT_GT(m.steps, 0);
}

// The batch worklist's level buckets cost nothing until a non-empty batch
// needs them: an optimizer that has only run Optimize() (or only seen empty
// batches) holds none, a batch sizes them to the query, and a teardown
// releases them.
TEST_F(OptimizerBehaviorTest, LevelBucketsAreAllocatedOnlyByABatch) {
  auto world = MakeChain(5);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  EXPECT_EQ(opt.NumLevelBuckets(), 0u);
  opt.ReoptimizeBatch({});
  EXPECT_EQ(opt.NumLevelBuckets(), 0u);
  world->registry.SetBaseRows(2, world->registry.base_rows(2) * 16.0);
  opt.Reoptimize();
  opt.ValidateInvariants();  // every bucket drained
  EXPECT_EQ(opt.NumLevelBuckets(), 6u);  // one per |expr| in 0..5
  opt.Invalidate();
  EXPECT_EQ(opt.NumLevelBuckets(), 0u);
  opt.RebuildFromScratch();
  EXPECT_EQ(opt.NumLevelBuckets(), 0u);
}

TEST_F(OptimizerBehaviorTest, DumpStateMentionsRootExpression) {
  auto world = MakeChain(3);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  std::string dump = opt.DumpState();
  EXPECT_NE(dump.find("{0,1,2}"), std::string::npos);
}

// Regression for the memo's container swap (unordered_map -> arena + flat
// table): DumpState and the end-state counters must iterate the memo in
// insertion order (eps_in_order_), never in hash-table order, so debug dumps
// are byte-stable across identical runs and across data-layer changes.
TEST_F(OptimizerBehaviorTest, DumpStateIsByteStableAcrossIdenticalRuns) {
  auto reference_world = MakeChain(5);
  DeclarativeOptimizer reference(reference_world->enumerator.get(),
                                 reference_world->cost_model.get(),
                                 &reference_world->registry);
  reference.Optimize();
  const std::string expected = reference.DumpState();
  EXPECT_FALSE(expected.empty());
  for (int run = 0; run < 3; ++run) {
    auto world = MakeChain(5);
    DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                             &world->registry);
    opt.Optimize();
    EXPECT_EQ(opt.DumpState(), expected) << "run " << run;
    EXPECT_EQ(opt.NumLiveEps(), reference.NumLiveEps());
    EXPECT_EQ(opt.NumActiveAlts(), reference.NumActiveAlts());
    EXPECT_EQ(opt.NumViableAlts(), reference.NumViableAlts());
    EXPECT_EQ(opt.NumCostedAlts(), reference.NumCostedAlts());
  }
}

// A re-optimization that flips statistics and flips them back must land on
// the identical dump as well: the memo's insertion order is preserved, only
// values move (and return).
TEST_F(OptimizerBehaviorTest, DumpStateRestoredAfterRoundTripReoptimization) {
  auto world = MakeChain(5);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  opt.ValidateInvariants();
  const std::string before = opt.DumpState();
  world->registry.SetCardMultiplier(world->query.AllRelations(), 4.0);
  opt.Reoptimize();
  opt.ValidateInvariants();
  world->registry.SetCardMultiplier(world->query.AllRelations(), 1.0);
  opt.Reoptimize();
  opt.ValidateInvariants();
  EXPECT_EQ(opt.DumpState(), before);
}

// DumpState() ordering contract (documented in declarative_optimizer.h):
// the raw dump iterates in memo insertion order, so it is byte-stable
// across identical histories but NOT across different ones. Differential
// comparison therefore uses CanonicalDumpState(), which must be identical
// for two optimizers that reach the same fixpoint through *different*
// delta orders — one absorbing updates one at a time, the other the same
// updates reordered and batched.
TEST_F(OptimizerBehaviorTest, CanonicalDumpIdenticalAcrossDeltaOrders) {
  auto apply = [](TestWorld& w, int which) {
    switch (which) {
      case 0:
        w.registry.SetScanCostMultiplier(0, 12.0);
        break;
      case 1:
        w.registry.SetJoinSelectivity(1, w.registry.join_selectivity(1) * 0.125);
        break;
      case 2:
        w.registry.SetBaseRows(3, w.registry.base_rows(3) * 64.0);
        break;
      case 3:
        w.registry.SetCardMultiplier(0b011110, 0.25);
        break;
    }
  };
  auto one_at_a_time = MakeChain(6, 21);
  DeclarativeOptimizer a(one_at_a_time->enumerator.get(), one_at_a_time->cost_model.get(),
                         &one_at_a_time->registry);
  a.Optimize();
  for (int u = 0; u < 4; ++u) {
    apply(*one_at_a_time, u);
    a.Reoptimize();
    a.ValidateInvariants();
  }
  auto reordered_batch = MakeChain(6, 21);
  DeclarativeOptimizer b(reordered_batch->enumerator.get(), reordered_batch->cost_model.get(),
                         &reordered_batch->registry);
  b.Optimize();
  for (int u = 3; u >= 0; --u) apply(*reordered_batch, u);  // reverse order, one batch
  b.Reoptimize();
  b.ValidateInvariants();
  EXPECT_EQ(a.CanonicalDumpState(), b.CanonicalDumpState());
  // And both equal a from-scratch optimization under the final statistics.
  DeclarativeOptimizer scratch(reordered_batch->enumerator.get(),
                               reordered_batch->cost_model.get(), &reordered_batch->registry);
  scratch.Optimize();
  EXPECT_EQ(b.CanonicalDumpState(), scratch.CanonicalDumpState());
  EXPECT_FALSE(scratch.CanonicalDumpState().empty());
}

// The canonical dump resolves properties through their content, not their
// interned PropId, so it must not depend on the PropTable sharing either:
// an optimizer over a private enumerator (fresh interning order) dumps
// identically to one over a shared, history-laden enumerator.
TEST_F(OptimizerBehaviorTest, CanonicalDumpIndependentOfPropInterning) {
  auto world = MakeChain(5, 13);
  DeclarativeOptimizer shared(world->enumerator.get(), world->cost_model.get(),
                              &world->registry);
  shared.Optimize();
  world->registry.SetScanCostMultiplier(1, 9.0);
  shared.Reoptimize();
  shared.ValidateInvariants();

  // A second world with identical statistics but its own PropTable.
  auto world2 = MakeChain(5, 13);
  world2->registry.SetScanCostMultiplier(1, 9.0);
  DeclarativeOptimizer priv(world2->enumerator.get(), world2->cost_model.get(),
                            &world2->registry);
  priv.Optimize();
  EXPECT_EQ(shared.CanonicalDumpState(), priv.CanonicalDumpState());
}

// One statistic of a TPC-H world moved to its initial value times a factor
// drawn log-uniformly from [1/8, 8] (the paper's Fig. 8 range): scan cost,
// base rows, local selectivity, join selectivity, or a cardinality
// multiplier on a join edge. Selectivities are capped at 1.
StatMutation RandomTpchMutation(Rng& rng, const StatsRegistry& initial) {
  const double f = std::exp(std::log(0.125) + rng.NextDouble() * std::log(64.0));
  const int rel = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(initial.num_relations())));
  const int edge = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(initial.num_edges())));
  using Kind = StatMutation::Kind;
  switch (rng.NextBelow(5)) {
    case 0:
      return {Kind::kScanCost, rel, 0, f};
    case 1:
      return {Kind::kBaseRows, rel, 0, initial.base_rows(rel) * f};
    case 2:
      return {Kind::kLocalSelectivity, rel, 0, std::min(1.0, initial.local_selectivity(rel) * f)};
    case 3:
      return {Kind::kJoinSelectivity, edge, 0, std::min(1.0, initial.join_selectivity(edge) * f)};
    default:
      return {Kind::kCardMultiplier, 0, initial.edge(edge).endpoints, f};
  }
}

// A batched pass settles its affected set bottom-up, so a batch of k
// mutations costs at most a small multiple of re-planning: summed
// ReoptimizeBatch steps stay within 4x the steps of a fresh Optimize() at
// the same statistics, for every query, option set and batch size, while
// the canonical state matches the fresh optimizer after every batch.
// Draining parents before their children settle (a plain LIFO drain of the
// bottom-up seeding) exceeds the bound: Q5 k=4 under "aggsel", Q8Join k=16
// under "aggsel+refcount".
TEST(BatchDrainOrderTest, BatchedPassesStayWithinFourTimesScratchSteps) {
  auto tpch = MakeTpchFixture(0.01);
  for (const char* query : {"Q5", "Q8Join"}) {
    // Mutation targets are drawn against the initial statistics.
    auto initial = MakeQueryContext(&tpch->catalog, MakeTpchQuery(&tpch->catalog, query),
                                    tpch->stats);
    for (const auto& [name, options] : AllOptionSets()) {
      for (int k : {1, 4, 16}) {
        auto ctx = MakeQueryContext(&tpch->catalog, MakeTpchQuery(&tpch->catalog, query),
                                    tpch->stats);
        DeclarativeOptimizer opt(ctx->enumerator.get(), ctx->cost_model.get(), &ctx->registry,
                                 options);
        opt.Optimize();
        Rng rng(0xB47C4ull * 131 + static_cast<uint64_t>(k));
        const std::string where = std::string(query) + " " + name + " k=" + std::to_string(k);
        int64_t batch_steps = 0;
        int64_t fresh_steps = 0;
        for (int b = 0; b < 40; ++b) {
          for (int i = 0; i < k; ++i) {
            ApplyMutation(&ctx->registry, RandomTpchMutation(rng, initial->registry));
          }
          StatsRegistry::DrainedBatch batch = ctx->registry.TakePendingBatch();
          opt.ReoptimizeBatch(batch.changes, batch.epoch);
          batch_steps += opt.metrics().round_steps;
          opt.ValidateInvariants();
          DeclarativeOptimizer fresh(ctx->enumerator.get(), ctx->cost_model.get(),
                                     &ctx->registry, options);
          fresh.Optimize();
          fresh_steps += fresh.metrics().round_steps;
          ASSERT_EQ(opt.CanonicalDumpState(), fresh.CanonicalDumpState())
              << where << " batch " << b;
        }
        EXPECT_LE(batch_steps, 4 * fresh_steps)
            << where << ": batched " << batch_steps << " steps vs fresh " << fresh_steps;
      }
    }
  }
}

TEST(RulesTest, FourteenRulesInPaperOrder) {
  const auto& rules = OptimizerRules();
  ASSERT_EQ(rules.size(), 14u);
  EXPECT_EQ(rules[0].name, "R1");
  EXPECT_EQ(rules[9].name, "R10");
  EXPECT_EQ(rules[10].name, "r1");
  EXPECT_EQ(rules[13].name, "r4");
  for (const auto& r : rules) EXPECT_FALSE(r.text.empty());
}

TEST(RulesTest, DataflowDotIsWellFormed) {
  std::string dot = OptimizerDataflowDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("SearchSpace"), std::string::npos);
  EXPECT_NE(dot.find("PlanCost"), std::string::npos);
  EXPECT_NE(dot.find("BestCost"), std::string::npos);
  EXPECT_NE(dot.find("Bound"), std::string::npos);
}

}  // namespace
}  // namespace iqro
