// Unit tests for the service layer: the StatsRegistry coalescer (net-delta
// batching) and the multi-query ReoptSession manager behind the v2 typed
// API — QueryHandle registration, plan-change subscriptions, pluggable
// flush policies and metrics export. The end-to-end batch ≡ from-scratch
// property is covered by the randomized differential harness
// (tests/differential_test.cpp, batch mode, including the notification
// oracle); these tests pin the small contracts — net-zero absorption,
// duplicate collapse, task dedup, multi-query dispatch, handle lifecycle,
// subscriber exactness and reentrancy, policy triggers, unregistration,
// mutator threads racing the owner's flush.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_util/json_metrics_exporter.h"
#include "common/fault_injection.h"
#include "common/serialize.h"
#include "core/declarative_optimizer.h"
#include "service/reopt_session.h"
#include "service/snapshot.h"
#include "testing/differential.h"
#include "test_util.h"

namespace iqro::testing {
namespace {

std::unique_ptr<TestWorld> ChainWorld(int relations = 5, uint64_t seed = 11) {
  WorldOptions wo;
  wo.num_relations = relations;
  wo.shape = GraphShape::kChain;
  wo.seed = seed;
  return MakeWorld(wo);
}

/// Fresh from-scratch optimizer over the world's *current* statistics.
std::string ScratchDump(TestWorld& world, OptimizerOptions options) {
  DeclarativeOptimizer scratch(world.enumerator.get(), world.cost_model.get(),
                               &world.registry, options);
  scratch.Optimize();
  return scratch.CanonicalDumpState();
}

/// `options` as a distinct question: the same pruning and queue behaviour
/// under another max_steps, so a session gives the optimizer a memo of its
/// own rather than sharing an equal one. Tests that register identical
/// optimizers as stand-ins for distinct queries use it.
OptimizerOptions DistinctOptions(OptimizerOptions options, int k) {
  options.max_steps -= static_cast<uint64_t>(k);
  return options;
}

/// Collects every delivered event (copies — events are call-scoped).
class RecordingSubscriber final : public PlanSubscriber {
 public:
  void OnPlanChange(const PlanChangeEvent& event) override { events.push_back(event); }
  std::vector<PlanChangeEvent> events;
};

/// Hand-advanced clock for DeadlinePolicy tests.
class FakeClock final : public Clock {
 public:
  std::chrono::steady_clock::time_point Now() const override { return now_; }
  void Advance(std::chrono::milliseconds d) { now_ += d; }

 private:
  std::chrono::steady_clock::time_point now_{};
};

TEST(ReoptSessionTest, NetZeroChurnProducesZeroWorkAndZeroEvents) {
  auto world = ChainWorld();
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  ReoptSession session(&world->registry);
  RecordingSubscriber subscriber;
  QueryHandle handle = session.Register(opt, &subscriber);

  const double rows0 = world->registry.base_rows(1);
  const int64_t enqueued0 = opt.metrics().tasks_enqueued;

  // Oscillate two statistics back to their baselines, plus one exact no-op
  // (swallowed before it even reaches the pending table).
  world->registry.SetBaseRows(1, rows0 * 4);
  world->registry.SetBaseRows(1, rows0);
  world->registry.SetScanCostMultiplier(0, 2.0);
  world->registry.SetScanCostMultiplier(0, 1.0);
  world->registry.SetScanCostMultiplier(0, 1.0);

  EXPECT_TRUE(session.HasPending());  // recorded, not yet coalesced away
  EXPECT_EQ(session.Flush(), 0u);     // ...but the batch nets to zero

  EXPECT_EQ(opt.metrics().tasks_enqueued, enqueued0);  // zero enqueued tasks
  EXPECT_EQ(session.metrics().reopt_passes, 0);
  EXPECT_EQ(session.metrics().empty_flushes, 1);
  EXPECT_EQ(session.metrics().changes_flushed, 0);
  EXPECT_EQ(session.metrics().mutations_observed, 4);  // the no-op never records
  EXPECT_TRUE(subscriber.events.empty());  // net-zero churn is invisible
  EXPECT_EQ(session.metrics().plan_changes, 0);
  EXPECT_FALSE(session.HasPending());
  opt.ValidateInvariants();
  EXPECT_EQ(opt.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
}

TEST(ReoptSessionTest, OscillationCoalescesToOneChange) {
  auto world = ChainWorld();
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  ReoptSession session(&world->registry);
  QueryHandle handle = session.Register(opt);

  const double rows0 = world->registry.base_rows(2);
  world->registry.SetBaseRows(2, rows0 * 2);
  world->registry.SetBaseRows(2, rows0 * 8);
  world->registry.SetBaseRows(2, rows0 * 3);  // three mutations, one stat

  EXPECT_EQ(session.Flush(), 1u);  // one net StatChange
  const CoalesceStats& cs = world->registry.coalesce_stats();
  EXPECT_EQ(cs.recorded, 3);
  EXPECT_EQ(cs.collapsed, 2);
  EXPECT_EQ(cs.emitted, 1);
  EXPECT_EQ(session.metrics().reopt_passes, 1);
  opt.ValidateInvariants();
  EXPECT_EQ(opt.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
}

// The batching claim itself: one coalesced flush enqueues strictly less
// worklist traffic than change-at-a-time re-optimization of the same
// mutations, and the enqueue-time dedup (tasks_deduped) is doing real work
// during the batched seed. Both paths must land in the identical state.
TEST(ReoptSessionTest, BatchedFlushDedupesTasks) {
  auto world_batch = ChainWorld();
  auto world_seq = ChainWorld();  // deterministic: identical world

  DeclarativeOptimizer batch(world_batch->enumerator.get(), world_batch->cost_model.get(),
                             &world_batch->registry);
  batch.Optimize();
  DeclarativeOptimizer seq(world_seq->enumerator.get(), world_seq->cost_model.get(),
                           &world_seq->registry);
  seq.Optimize();
  ASSERT_EQ(batch.CanonicalDumpState(), seq.CanonicalDumpState());

  auto mutate = [](StatsRegistry& reg) -> std::vector<std::function<void()>> {
    return {
        [&reg] { reg.SetBaseRows(0, reg.base_rows(0) * 5); },
        [&reg] { reg.SetLocalSelectivity(1, 0.33); },
        [&reg] { reg.SetScanCostMultiplier(2, 4.0); },
        [&reg] { reg.SetBaseRows(3, reg.base_rows(3) * 0.25); },
        [&reg] { reg.SetJoinSelectivity(0, reg.join_selectivity(0) * 0.5); },
        [&reg] { reg.SetScanCostMultiplier(2, 8.0); },  // collapses with #3
    };
  };

  // Sequential: one fixpoint per mutation.
  const int64_t seq_enq0 = seq.metrics().tasks_enqueued;
  for (auto& m : mutate(world_seq->registry)) {
    m();
    seq.Reoptimize();
  }
  const int64_t seq_enqueued = seq.metrics().tasks_enqueued - seq_enq0;

  // Batched: all mutations coalesced, one flush, one fixpoint.
  ReoptSession session(&world_batch->registry);
  QueryHandle handle = session.Register(batch);
  const int64_t batch_enq0 = batch.metrics().tasks_enqueued;
  const int64_t batch_dedup0 = batch.metrics().tasks_deduped;
  for (auto& m : mutate(world_batch->registry)) m();
  EXPECT_EQ(session.Flush(), 5u);  // 6 mutations -> 5 net changes
  const int64_t batch_enqueued = batch.metrics().tasks_enqueued - batch_enq0;
  const int64_t batch_deduped = batch.metrics().tasks_deduped - batch_dedup0;

  EXPECT_LT(batch_enqueued, seq_enqueued);
  EXPECT_GT(batch_deduped, 0);
  EXPECT_GT(session.metrics().eps_seeded, 0);

  batch.ValidateInvariants();
  seq.ValidateInvariants();
  EXPECT_NEAR(batch.BestCost(), seq.BestCost(), 1e-9 * std::max(1.0, batch.BestCost()));
  EXPECT_EQ(batch.CanonicalDumpState(), seq.CanonicalDumpState());
}

TEST(ReoptSessionTest, MultiQueryFlushDrivesAllRegisteredOptimizers) {
  auto world = ChainWorld(6, 23);
  // Three live "queries" with different pruning configurations, all
  // watching one registry through one session — the fig8 configurations as
  // a multi-query workload.
  DeclarativeOptimizer all(world->enumerator.get(), world->cost_model.get(),
                           &world->registry, OptimizerOptions::Default());
  DeclarativeOptimizer aggsel(world->enumerator.get(), world->cost_model.get(),
                              &world->registry, OptimizerOptions::UseAggSel());
  DeclarativeOptimizer nopruning(world->enumerator.get(), world->cost_model.get(),
                                 &world->registry, OptimizerOptions::UseNoPruning());
  all.Optimize();
  aggsel.Optimize();
  nopruning.Optimize();

  ReoptSession session(&world->registry);
  std::vector<QueryHandle> handles;
  handles.push_back(session.Register(all));
  handles.push_back(session.Register(aggsel));
  handles.push_back(session.Register(nopruning));
  EXPECT_EQ(session.num_queries(), 3);

  world->registry.SetBaseRows(0, world->registry.base_rows(0) * 10);
  world->registry.SetScanCostMultiplier(4, 3.0);
  world->registry.SetLocalSelectivity(5, 0.2);
  EXPECT_GT(session.Flush(), 0u);
  EXPECT_EQ(session.metrics().reopt_passes, 3);

  for (auto* opt : {&all, &aggsel, &nopruning}) {
    opt->ValidateInvariants();
    EXPECT_EQ(opt->CanonicalDumpState(), ScratchDump(*world, opt->options()))
        << "config diverged from its from-scratch oracle";
  }
  // All exact configurations agree on the optimum.
  EXPECT_NEAR(all.BestCost(), nopruning.BestCost(), 1e-9 * std::max(1.0, all.BestCost()));
}

// The tentpole property: seeding cost scales with the affected set, not the
// memo. A sparse-scope flush (one scan-cost change, singleton scope) over a
// multi-query session must examine only the exact-key entries the scope
// index returns — eps_scanned stays within 2x of eps_seeded and far below
// the enumerated memo population, even though three memos are registered.
TEST(ReoptSessionTest, SparseScopeFlushScansOnlyAffectedEps) {
  auto world = ChainWorld(8, 31);
  DeclarativeOptimizer a(world->enumerator.get(), world->cost_model.get(),
                         &world->registry, OptimizerOptions::Default());
  DeclarativeOptimizer b(world->enumerator.get(), world->cost_model.get(),
                         &world->registry, OptimizerOptions::UseAggSel());
  DeclarativeOptimizer c(world->enumerator.get(), world->cost_model.get(),
                         &world->registry, OptimizerOptions::UseNoPruning());
  a.Optimize();
  b.Optimize();
  c.Optimize();
  const int64_t memo_eps = a.metrics().eps_enumerated + b.metrics().eps_enumerated +
                           c.metrics().eps_enumerated;

  ReoptSession session(&world->registry);
  std::vector<QueryHandle> handles;
  handles.push_back(session.Register(a));
  handles.push_back(session.Register(b));
  handles.push_back(session.Register(c));

  world->registry.SetScanCostMultiplier(3, 2.5);  // singleton scope {3}
  EXPECT_GT(session.Flush(), 0u);

  EXPECT_GT(session.last_flush().eps_seeded, 0);
  EXPECT_LE(session.last_flush().eps_scanned, 2 * session.last_flush().eps_seeded);
  // O(affected), not O(memo): a full-vector scan would have examined every
  // enumerated EP in all three memos.
  EXPECT_LT(session.last_flush().eps_scanned, memo_eps / 4);

  for (auto* opt : {&a, &b, &c}) {
    opt->ValidateInvariants();
    EXPECT_EQ(opt->CanonicalDumpState(), ScratchDump(*world, opt->options()));
  }
}

// Cross-query summary sharing: two registered queries with *independent*
// SummaryCalculators over one registry. After a cardinality change, the
// first query to cost a subexpression inserts its Summary into the
// session's shared cache; the second query's calculator — whose local cache
// knows nothing — must pick it up instead of recomputing.
TEST(ReoptSessionTest, SharedSummaryCacheServesSecondQuery) {
  auto world = ChainWorld(6, 23);
  SummaryCalculator summaries2(&world->registry);
  CostModel cost_model2(&summaries2);
  DeclarativeOptimizer first(world->enumerator.get(), world->cost_model.get(),
                             &world->registry);
  DeclarativeOptimizer second(world->enumerator.get(), &cost_model2, &world->registry,
                              DistinctOptions(OptimizerOptions::Default(), 1));
  first.Optimize();
  second.Optimize();

  ReoptSession session(&world->registry);
  QueryHandle h1 = session.Register(first);
  QueryHandle h2 = session.Register(second);
  EXPECT_EQ(session.summary_cache().hits(), 0);  // nothing shared pre-flush

  world->registry.SetBaseRows(2, world->registry.base_rows(2) * 9);
  EXPECT_GT(session.Flush(), 0u);

  // The flush recomputed summaries at the new epoch exactly once across the
  // session: the first pass misses and publishes, the second pass hits.
  EXPECT_GT(session.summary_cache().misses(), 0);
  EXPECT_GT(session.summary_cache().hits(), 0);
  EXPECT_GT(session.summary_cache().size(), 0u);

  for (auto* opt : {&first, &second}) {
    opt->ValidateInvariants();
    EXPECT_EQ(opt->CanonicalDumpState(), ScratchDump(*world, opt->options()));
  }
  EXPECT_NEAR(first.BestCost(), second.BestCost(), 1e-9 * std::max(1.0, first.BestCost()));
}

// ---------------------------------------------------------------------------
// QueryHandle lifecycle
// ---------------------------------------------------------------------------

TEST(QueryHandleTest, DestructionUnregisters) {
  auto world = ChainWorld();
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  ReoptSession session(&world->registry);
  {
    QueryHandle handle = session.Register(opt);
    EXPECT_TRUE(handle.valid());
    EXPECT_EQ(handle.optimizer(), &opt);
    EXPECT_EQ(session.num_queries(), 1);
  }
  EXPECT_EQ(session.num_queries(), 0);  // RAII unregistration

  // A flush after the handle died re-optimizes nothing...
  const int64_t enq0 = opt.metrics().tasks_enqueued;
  world->registry.SetBaseRows(2, world->registry.base_rows(2) * 7);
  EXPECT_EQ(session.Flush(), 1u);
  EXPECT_EQ(session.metrics().reopt_passes, 0);
  EXPECT_EQ(opt.metrics().tasks_enqueued, enq0);
}

TEST(QueryHandleTest, ReleaseStopsDispatchEarly) {
  auto world = ChainWorld();
  DeclarativeOptimizer kept(world->enumerator.get(), world->cost_model.get(),
                            &world->registry);
  DeclarativeOptimizer dropped(world->enumerator.get(), world->cost_model.get(),
                               &world->registry);
  kept.Optimize();
  dropped.Optimize();

  ReoptSession session(&world->registry);
  QueryHandle kept_handle = session.Register(kept);
  QueryHandle dropped_handle = session.Register(dropped);
  dropped_handle.Release();
  EXPECT_FALSE(dropped_handle.valid());
  EXPECT_EQ(dropped_handle.id(), -1);
  EXPECT_EQ(session.num_queries(), 1);
  dropped_handle.Release();  // double release: no-op

  const int64_t dropped_enq0 = dropped.metrics().tasks_enqueued;
  world->registry.SetBaseRows(2, world->registry.base_rows(2) * 7);
  EXPECT_EQ(session.Flush(), 1u);
  EXPECT_EQ(session.metrics().reopt_passes, 1);
  EXPECT_EQ(dropped.metrics().tasks_enqueued, dropped_enq0);  // untouched
  kept.ValidateInvariants();
  EXPECT_EQ(kept.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
}

TEST(QueryHandleTest, MoveTransfersOwnership) {
  auto world = ChainWorld();
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  ReoptSession session(&world->registry);

  QueryHandle a = session.Register(opt);
  const ReoptSession::QueryId id = a.id();
  QueryHandle b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): moved-from is defined invalid
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.id(), id);
  EXPECT_EQ(session.num_queries(), 1);

  QueryHandle c;
  EXPECT_FALSE(c.valid());
  c = std::move(b);
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(session.num_queries(), 1);
  c.Release();
  EXPECT_EQ(session.num_queries(), 0);
}

TEST(QueryHandleTest, HandleOutlivingSessionIsANoOp) {
  auto world = ChainWorld();
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  QueryHandle survivor;
  RecordingSubscriber subscriber;
  {
    ReoptSession session(&world->registry);
    survivor = session.Register(opt);
    EXPECT_TRUE(survivor.valid());
  }
  // The session is gone: the registration died with it, and every handle
  // operation is a defined no-op; the accessors report invalid.
  EXPECT_FALSE(survivor.valid());
  EXPECT_EQ(survivor.id(), -1);
  EXPECT_EQ(survivor.optimizer(), nullptr);
  survivor.Subscribe(&subscriber);
  survivor.Release();
  // Mutating after the session died must not touch freed memory (the
  // subscriber list no longer references it); the delta just sits pending.
  world->registry.SetBaseRows(0, 123);
  EXPECT_TRUE(world->registry.HasPending());
  opt.Reoptimize();  // single-query draining still works without a session
  opt.ValidateInvariants();
  EXPECT_EQ(opt.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
}

TEST(ReoptSessionTest, RegisterRejectsOptimizerThatMissedADrain) {
  auto world = ChainWorld();
  DeclarativeOptimizer current(world->enumerator.get(), world->cost_model.get(),
                               &world->registry);
  DeclarativeOptimizer late(world->enumerator.get(), world->cost_model.get(),
                            &world->registry);
  current.Optimize();
  late.Optimize();

  ReoptSession session(&world->registry);
  QueryHandle current_handle = session.Register(current);
  world->registry.SetBaseRows(0, world->registry.base_rows(0) * 3);
  session.Flush();  // drains: `late` has now missed deltas it can never get

  EXPECT_LT(late.stats_epoch(), world->registry.drained_epoch());
  EXPECT_DEATH_IF_SUPPORTED({ QueryHandle h = session.Register(late); }, "stats_epoch");

  // A fresh optimizer over the post-drain statistics registers fine.
  DeclarativeOptimizer fresh(world->enumerator.get(), world->cost_model.get(),
                             &world->registry);
  fresh.Optimize();
  QueryHandle fresh_handle = session.Register(fresh);
  EXPECT_EQ(session.num_queries(), 2);
}

// ---------------------------------------------------------------------------
// Plan-change subscriptions
// ---------------------------------------------------------------------------

// A swing big enough to flip the plan fires exactly one event whose
// old/new costs are the BestCost values either side of the flush; flushing
// again without churn fires nothing; restoring the statistics fires the
// symmetric event (plans are history-free).
TEST(PlanSubscriberTest, FiresExactlyWhenCanonicalPlanChanges) {
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  ReoptSession session(&world->registry);
  RecordingSubscriber subscriber;
  QueryHandle handle = session.Register(opt, &subscriber);

  const std::string dump0 = opt.CanonicalDumpState();
  const double cost0 = opt.BestCost();
  const double rows0 = world->registry.base_rows(0);

  // Swing hard enough that the canonical plan (costs at minimum) changes.
  world->registry.SetBaseRows(0, rows0 * 1000);
  ASSERT_GT(session.Flush(), 0u);
  ASSERT_NE(opt.CanonicalDumpState(), dump0);
  ASSERT_EQ(subscriber.events.size(), 1u);
  {
    const PlanChangeEvent& e = subscriber.events[0];
    EXPECT_EQ(e.query_id, handle.id());
    EXPECT_EQ(e.optimizer, &opt);
    EXPECT_EQ(e.old_cost, cost0);
    EXPECT_EQ(e.new_cost, opt.BestCost());
    EXPECT_EQ(e.flush_index, 1);
    EXPECT_EQ(e.flush_epoch, opt.stats_epoch());
    EXPECT_GT(e.diff.total_operators, 0);
    EXPECT_LE(e.diff.changed_operators, e.diff.total_operators);
    EXPECT_EQ(e.diff.join_order_len, 6);  // all six relations in the plan
    EXPECT_LE(e.diff.join_order_prefix, e.diff.join_order_len);
  }
  EXPECT_EQ(session.metrics().plan_changes, 1);

  // No churn, no event (Flush with nothing pending is a no-op anyway).
  EXPECT_EQ(session.Flush(), 0u);
  EXPECT_EQ(subscriber.events.size(), 1u);

  // Restore: the canonical plan returns to the original -> symmetric event.
  world->registry.SetBaseRows(0, rows0);
  ASSERT_GT(session.Flush(), 0u);
  ASSERT_EQ(subscriber.events.size(), 2u);
  EXPECT_EQ(opt.CanonicalDumpState(), dump0);
  EXPECT_EQ(subscriber.events[1].old_cost, subscriber.events[0].new_cost);
  EXPECT_EQ(subscriber.events[1].new_cost, cost0);
  opt.ValidateInvariants();
}

// Attaching a subscriber after history has accumulated sets the baseline to
// the plan at attach time: no replay of older changes, first event is
// relative to that plan.
TEST(PlanSubscriberTest, BaselineIsThePlanAtAttachTime) {
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  ReoptSession session(&world->registry);
  QueryHandle handle = session.Register(opt);

  world->registry.SetBaseRows(0, world->registry.base_rows(0) * 1000);
  session.Flush();  // plan changed, but nobody was listening

  RecordingSubscriber subscriber;
  handle.Subscribe(&subscriber);
  const double cost_at_attach = opt.BestCost();

  // A flush that lands on the same plan fires nothing for the new
  // subscriber even though the plan differs from pre-attach history.
  world->registry.SetScanCostMultiplier(1, 2.0);
  world->registry.SetScanCostMultiplier(1, 1.0);  // nets to zero
  session.Flush();
  EXPECT_TRUE(subscriber.events.empty());

  world->registry.SetBaseRows(0, world->registry.base_rows(0) / 1000);
  ASSERT_GT(session.Flush(), 0u);
  ASSERT_EQ(subscriber.events.size(), 1u);
  EXPECT_EQ(subscriber.events[0].old_cost, cost_at_attach);

  handle.Subscribe(nullptr);  // detach: no further events, no digest work
  world->registry.SetBaseRows(0, world->registry.base_rows(0) * 50);
  session.Flush();
  EXPECT_EQ(subscriber.events.size(), 1u);
}

// Unregistering from inside a subscriber callback is deferred to flush
// end: every event of the in-flight flush still fires (in registration
// order), and the unregistered query stops being dispatched afterwards.
TEST(PlanSubscriberTest, UnregisterDuringCallbackIsDeferredToFlushEnd) {
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer first(world->enumerator.get(), world->cost_model.get(),
                             &world->registry);
  DeclarativeOptimizer second(world->enumerator.get(), world->cost_model.get(),
                              &world->registry);
  first.Optimize();
  second.Optimize();
  ReoptSession session(&world->registry);

  QueryHandle second_handle;
  std::vector<int> fired_order;
  // First query's subscriber releases the SECOND query's handle mid-flush.
  class ReleasingSubscriber final : public PlanSubscriber {
   public:
    ReleasingSubscriber(QueryHandle* victim, std::vector<int>* order)
        : victim_(victim), order_(order) {}
    void OnPlanChange(const PlanChangeEvent& event) override {
      order_->push_back(event.query_id);
      victim_->Release();  // deferred: the flush is mid-notification
    }

   private:
    QueryHandle* victim_;
    std::vector<int>* order_;
  };
  class OrderSubscriber final : public PlanSubscriber {
   public:
    explicit OrderSubscriber(std::vector<int>* order) : order_(order) {}
    void OnPlanChange(const PlanChangeEvent& event) override {
      order_->push_back(event.query_id);
    }

   private:
    std::vector<int>* order_;
  };
  ReleasingSubscriber releasing(&second_handle, &fired_order);
  OrderSubscriber ordering(&fired_order);

  QueryHandle first_handle = session.Register(first, &releasing);
  second_handle = session.Register(second, &ordering);
  ASSERT_EQ(session.num_queries(), 2);

  world->registry.SetBaseRows(0, world->registry.base_rows(0) * 1000);
  ASSERT_GT(session.Flush(), 0u);
  // Both events fired, registration order, despite the mid-flight release.
  ASSERT_EQ(fired_order.size(), 2u);
  EXPECT_EQ(fired_order[0], first_handle.id());
  EXPECT_EQ(fired_order[1], 1);  // the released handle's id
  EXPECT_FALSE(second_handle.valid());
  EXPECT_EQ(session.num_queries(), 1);  // removal applied at flush end

  // The unregistered query is no longer dispatched (its state goes stale —
  // it left the session's consistency contract when it was released).
  const int64_t second_enq = second.metrics().tasks_enqueued;
  world->registry.SetBaseRows(1, world->registry.base_rows(1) * 3);
  session.Flush();
  EXPECT_EQ(second.metrics().tasks_enqueued, second_enq);
  first.ValidateInvariants();
  EXPECT_EQ(first.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
}

// A query may unregister ITSELF from its own callback; its event (already
// delivered) stands, the slot dies at flush end.
TEST(PlanSubscriberTest, SelfUnregisterDuringCallback) {
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  ReoptSession session(&world->registry);

  QueryHandle handle;
  class SelfReleasing final : public PlanSubscriber {
   public:
    explicit SelfReleasing(QueryHandle* self) : self_(self) {}
    void OnPlanChange(const PlanChangeEvent& event) override {
      (void)event;
      ++fired;
      self_->Release();
    }
    QueryHandle* self_;
    int fired = 0;
  };
  SelfReleasing subscriber(&handle);
  handle = session.Register(opt, &subscriber);

  world->registry.SetBaseRows(0, world->registry.base_rows(0) * 1000);
  ASSERT_GT(session.Flush(), 0u);
  EXPECT_EQ(subscriber.fired, 1);
  EXPECT_FALSE(handle.valid());
  EXPECT_EQ(session.num_queries(), 0);
}

// Detaching a later query's subscriber from inside a callback suppresses
// that query's undelivered event of the in-flight flush: events go to the
// subscriber attached at delivery time, so the detached observer may be
// destroyed immediately.
TEST(PlanSubscriberTest, DetachDuringCallbackSuppressesUndeliveredEvent) {
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer first(world->enumerator.get(), world->cost_model.get(),
                             &world->registry);
  DeclarativeOptimizer second(world->enumerator.get(), world->cost_model.get(),
                              &world->registry);
  first.Optimize();
  second.Optimize();
  ReoptSession session(&world->registry);

  QueryHandle second_handle;
  class DetachingSubscriber final : public PlanSubscriber {
   public:
    explicit DetachingSubscriber(QueryHandle* victim) : victim_(victim) {}
    void OnPlanChange(const PlanChangeEvent& event) override {
      (void)event;
      ++fired;
      victim_->Subscribe(nullptr);
    }
    int fired = 0;

   private:
    QueryHandle* victim_;
  };
  DetachingSubscriber detaching(&second_handle);
  RecordingSubscriber recording;

  QueryHandle first_handle = session.Register(first, &detaching);
  second_handle = session.Register(second, &recording);

  world->registry.SetBaseRows(0, world->registry.base_rows(0) * 1000);
  ASSERT_GT(session.Flush(), 0u);
  EXPECT_EQ(detaching.fired, 1);
  EXPECT_TRUE(recording.events.empty());  // suppressed by the mid-flight detach
  EXPECT_EQ(session.metrics().plan_changes, 1);  // only the delivered event counts
  EXPECT_EQ(session.num_queries(), 2);  // detach is not unregistration

  // Re-attach: the suppressed change is never replayed (baseline is the
  // post-flush plan); the next real change delivers normally. (Detach the
  // troublemaker first, or it would suppress again on the next flush.)
  first_handle.Subscribe(nullptr);
  second_handle.Subscribe(&recording);
  world->registry.SetBaseRows(0, world->registry.base_rows(0) / 1000);
  ASSERT_GT(session.Flush(), 0u);
  ASSERT_EQ(recording.events.size(), 1u);
  EXPECT_EQ(recording.events[0].query_id, second_handle.id());
}

// Replacing (not just detaching) a subscriber mid-notification also
// suppresses the pending event: the replacement's baseline postdates the
// change, so replaying it would hand the new observer pre-attach history.
TEST(PlanSubscriberTest, SwapDuringCallbackSuppressesUndeliveredEvent) {
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer first(world->enumerator.get(), world->cost_model.get(),
                             &world->registry);
  DeclarativeOptimizer second(world->enumerator.get(), world->cost_model.get(),
                              &world->registry);
  first.Optimize();
  second.Optimize();
  ReoptSession session(&world->registry);

  QueryHandle second_handle;
  RecordingSubscriber original, replacement;
  class SwappingSubscriber final : public PlanSubscriber {
   public:
    SwappingSubscriber(QueryHandle* victim, PlanSubscriber* replacement)
        : victim_(victim), replacement_(replacement) {}
    void OnPlanChange(const PlanChangeEvent& event) override {
      (void)event;
      if (!swapped_) {
        swapped_ = true;
        victim_->Subscribe(replacement_);
      }
    }

   private:
    QueryHandle* victim_;
    PlanSubscriber* replacement_;
    bool swapped_ = false;
  };
  SwappingSubscriber swapping(&second_handle, &replacement);

  QueryHandle first_handle = session.Register(first, &swapping);
  second_handle = session.Register(second, &original);

  world->registry.SetBaseRows(0, world->registry.base_rows(0) * 1000);
  ASSERT_GT(session.Flush(), 0u);
  EXPECT_TRUE(original.events.empty());     // it was swapped out pre-delivery
  EXPECT_TRUE(replacement.events.empty());  // no replay of pre-attach history

  // The replacement's first event comes from the next flush.
  world->registry.SetBaseRows(0, world->registry.base_rows(0) / 1000);
  ASSERT_GT(session.Flush(), 0u);
  ASSERT_EQ(replacement.events.size(), 1u);
  EXPECT_TRUE(original.events.empty());

  // Same-pointer reattach is a new subscription too (generation counter):
  // detach-then-reattach of one observer mid-flight must also suppress —
  // pointer identity alone cannot see that the baseline was re-captured.
  class ReattachingSubscriber final : public PlanSubscriber {
   public:
    ReattachingSubscriber(QueryHandle* victim, PlanSubscriber* same)
        : victim_(victim), same_(same) {}
    void OnPlanChange(const PlanChangeEvent& event) override {
      (void)event;
      if (!done_) {
        done_ = true;
        victim_->Subscribe(nullptr);
        victim_->Subscribe(same_);  // generic reconfigure: detach, reattach
      }
    }

   private:
    QueryHandle* victim_;
    PlanSubscriber* same_;
    bool done_ = false;
  };
  ReattachingSubscriber reattaching(&second_handle, &replacement);
  first_handle.Subscribe(&reattaching);
  world->registry.SetBaseRows(0, world->registry.base_rows(0) * 1000);
  ASSERT_GT(session.Flush(), 0u);
  EXPECT_EQ(replacement.events.size(), 1u);  // suppressed despite same pointer
  // ...and the reattached subscription delivers normally from then on.
  world->registry.SetBaseRows(0, world->registry.base_rows(0) / 1000);
  ASSERT_GT(session.Flush(), 0u);
  EXPECT_EQ(replacement.events.size(), 2u);
}

// A throwing subscriber must not wedge the session: the exception escapes
// Flush(), but notification state resets, deferred unregistrations still
// apply, the exporter/policy epilogue still runs — and a LATER query's
// event dropped by the unwind is re-detected at the next flush that
// re-optimizes it (its baseline only advances when its event settles).
TEST(PlanSubscriberTest, ThrowingSubscriberDoesNotWedgeTheSession) {
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  DeclarativeOptimizer watched(world->enumerator.get(), world->cost_model.get(),
                               &world->registry);
  DeclarativeOptimizer late(world->enumerator.get(), world->cost_model.get(),
                            &world->registry);
  opt.Optimize();
  watched.Optimize();
  JsonMetricsExporter exporter;
  // Flushes on the first mutation only (so the throw escapes the Set call
  // itself), then leaves flushing to Flush(); counts its OnFlush calls.
  class FirstMutationPolicy final : public FlushPolicy {
   public:
    bool ShouldFlush(const FlushPolicyContext& ctx) override {
      return on_flush_calls_ == 0 && ctx.mutations_since_flush > 0;
    }
    void OnFlush(size_t pending_after) override {
      (void)pending_after;
      ++on_flush_calls_;
    }
    int on_flush_calls() const { return on_flush_calls_; }

   private:
    int on_flush_calls_ = 0;
  };
  auto policy = std::make_shared<FirstMutationPolicy>();
  ReoptSessionOptions so;
  so.metrics_exporter = &exporter;
  so.flush_policy = policy;
  ReoptSession session(&world->registry, so);

  QueryHandle handle;
  class ThrowingSubscriber final : public PlanSubscriber {
   public:
    explicit ThrowingSubscriber(QueryHandle* self) : self_(self) {}
    void OnPlanChange(const PlanChangeEvent& event) override {
      (void)event;
      self_->Release();  // deferred — must still apply despite the throw
      throw std::runtime_error("subscriber failure");
    }

   private:
    QueryHandle* self_;
  };
  ThrowingSubscriber subscriber(&handle);
  RecordingSubscriber recording;
  handle = session.Register(opt, &subscriber);  // fires (and throws) first
  QueryHandle watched_handle = session.Register(watched, &recording);
  const double watched_cost0 = watched.BestCost();

  // The policy flushes on the first mutation, so the subscriber's
  // exception propagates out of the Set call itself.
  EXPECT_THROW(world->registry.SetBaseRows(0, world->registry.base_rows(0) * 1000),
               std::runtime_error);
  EXPECT_EQ(session.num_queries(), 1);  // the deferred release applied
  // The flush DID dispatch: the exporter got its report and the policy its
  // OnFlush, despite the throwing subscriber (flush epilogue) — and the
  // thrower's own event is counted as delivered (at-most-once).
  ASSERT_EQ(exporter.num_reports(), 1);
  EXPECT_EQ(exporter.reports()[0].plan_changes, 1);
  EXPECT_EQ(policy->on_flush_calls(), 1);
  // watched's event was dropped by the unwind — not delivered, not lost:
  EXPECT_TRUE(recording.events.empty());

  // The session is not stuck in notifying mode: registering and flushing
  // again both work — and watched's suppressed change re-fires, measured
  // against the baseline its consumer last saw.
  late.Optimize();
  QueryHandle late_handle = session.Register(late);
  world->registry.SetBaseRows(1, world->registry.base_rows(1) * 3);
  EXPECT_GT(session.Flush(), 0u);
  ASSERT_EQ(recording.events.size(), 1u);
  EXPECT_EQ(recording.events[0].old_cost, watched_cost0);
  EXPECT_EQ(recording.events[0].new_cost, watched.BestCost());
  late.ValidateInvariants();
  EXPECT_EQ(late.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
}

// A dropped event (throwing subscriber unwound delivery) must re-fire
// even when no later batch ever touches the dropped query's relations:
// unsettled baselines force a re-diff on the next flush regardless of the
// prefilter. A sub-query over a prefix of the world's relations makes
// "registered but unaffected" constructible.
TEST(PlanSubscriberTest, DroppedEventRefiresEvenWhenLaterFlushCannotAffectTheQuery) {
  auto world = ChainWorld(6, 23);
  // Sub-query over relations {0,1,2}, sharing the world's registry (its
  // chain edges (0,1),(1,2) align with registry edge ids 0 and 1).
  QuerySpec subq;
  subq.name = "sub_chain_3";
  for (int i = 0; i < 3; ++i) {
    subq.relations.push_back(
        {static_cast<TableId>(i), world->query.relations[static_cast<size_t>(i)].alias,
         WindowSpec{}});
  }
  subq.joins.push_back({0, 0, 1, 1, PredOp::kEq});
  subq.joins.push_back({1, 0, 2, 1, PredOp::kEq});
  JoinGraph subgraph(subq);
  SummaryCalculator subsummaries(&world->registry);
  CostModel subcost(&subsummaries);
  PropTable subprops;
  PlanEnumerator subenum(&subq, &subgraph, &world->catalog, &subprops);

  DeclarativeOptimizer full(world->enumerator.get(), world->cost_model.get(),
                            &world->registry);
  DeclarativeOptimizer sub(&subenum, &subcost, &world->registry);
  full.Optimize();
  sub.Optimize();
  ASSERT_EQ(sub.RootRelations(), RelSet{0b111});

  ReoptSession session(&world->registry);
  class ThrowOnce final : public PlanSubscriber {
   public:
    void OnPlanChange(const PlanChangeEvent& event) override {
      (void)event;
      if (!thrown_) {
        thrown_ = true;
        throw std::runtime_error("first delivery fails");
      }
    }

   private:
    bool thrown_ = false;
  };
  ThrowOnce throw_once;
  RecordingSubscriber recording;
  QueryHandle full_handle = session.Register(full, &throw_once);  // delivers first
  QueryHandle sub_handle = session.Register(sub, &recording);
  const double sub_cost0 = sub.BestCost();

  // Flush 1 changes BOTH plans; full's subscriber throws before sub's
  // event is delivered — dropped, baseline left unsettled.
  world->registry.SetBaseRows(0, world->registry.base_rows(0) * 1000);
  EXPECT_THROW(session.Flush(), std::runtime_error);
  EXPECT_TRUE(recording.events.empty());

  // Flush 2's batch even coalesces to NOTHING (an oscillation on relation
  // 4, which the sub-query does not contain anyway): the unsettled
  // baseline still forces the re-diff — the dropped change fires now,
  // with the costs its consumer last saw, on a flush that dispatched zero
  // changes.
  world->registry.SetScanCostMultiplier(4, 8.0);
  world->registry.SetScanCostMultiplier(4, 1.0);  // nets to zero
  EXPECT_EQ(session.Flush(), 0u);  // no changes dispatched...
  ASSERT_EQ(recording.events.size(), 1u);  // ...yet the dropped event fired
  EXPECT_EQ(recording.events[0].old_cost, sub_cost0);
  EXPECT_EQ(recording.events[0].new_cost, sub.BestCost());

  // Settled: a further flush (real change, still outside sub's relations)
  // fires nothing more for sub — and the prefilter skips it.
  world->registry.SetScanCostMultiplier(4, 2.0);
  ASSERT_GT(session.Flush(), 0u);
  EXPECT_GE(session.metrics().queries_skipped, 1);  // sub really is prefiltered
  EXPECT_EQ(recording.events.size(), 1u);
  sub.ValidateInvariants();
  full.ValidateInvariants();
}

// Two sessions on one registry: a throwing subscriber in the first must
// not starve the second of its mutation notification — the registry
// notifies every subscriber, then rethrows the first failure.
TEST(PlanSubscriberTest, ThrowingSubscriberDoesNotStarveOtherSessions) {
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer first(world->enumerator.get(), world->cost_model.get(),
                             &world->registry);
  DeclarativeOptimizer second(world->enumerator.get(), world->cost_model.get(),
                              &world->registry);
  first.Optimize();
  second.Optimize();

  class AlwaysThrow final : public PlanSubscriber {
   public:
    void OnPlanChange(const PlanChangeEvent& event) override {
      (void)event;
      throw std::runtime_error("subscriber failure");
    }
  };
  AlwaysThrow throwing;
  // Session A: eager policy + throwing subscriber — its auto-flush fires
  // from inside the registry's notification loop and throws there.
  ReoptSessionOptions sa;
  sa.flush_policy = std::make_shared<CountPolicy>(1);
  ReoptSession session_a(&world->registry, sa);
  QueryHandle handle_a = session_a.Register(first, &throwing);
  // Session B subscribes after A: it must still observe the mutation.
  ReoptSessionOptions sb;
  sb.flush_policy = std::make_shared<CountPolicy>(1);
  ReoptSession session_b(&world->registry, sb);
  QueryHandle handle_b = session_b.Register(second);

  EXPECT_THROW(world->registry.SetBaseRows(0, world->registry.base_rows(0) * 1000),
               std::runtime_error);
  // A's flush drained and threw; B was still notified and counted the
  // mutation (its own flush found the batch already drained — that is the
  // documented multi-consumer semantics, not a starvation).
  EXPECT_EQ(session_b.metrics().mutations_observed, 1);
  EXPECT_EQ(session_a.metrics().flushes, 1);
}

TEST(PlanSubscriberTest, RegisterDuringCallbackIsAnError) {
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  DeclarativeOptimizer other(world->enumerator.get(), world->cost_model.get(),
                             &world->registry);
  opt.Optimize();
  other.Optimize();
  ReoptSession session(&world->registry);

  class RegisteringSubscriber final : public PlanSubscriber {
   public:
    RegisteringSubscriber(ReoptSession* session, DeclarativeOptimizer* other)
        : session_(session), other_(other) {}
    void OnPlanChange(const PlanChangeEvent& event) override {
      (void)event;
      QueryHandle h = session_->Register(*other_);  // forbidden mid-notification
    }

   private:
    ReoptSession* session_;
    DeclarativeOptimizer* other_;
  };
  RegisteringSubscriber subscriber(&session, &other);
  QueryHandle handle = session.Register(opt, &subscriber);

  world->registry.SetBaseRows(0, world->registry.base_rows(0) * 1000);
  EXPECT_DEATH_IF_SUPPORTED(session.Flush(), "notifying");
}

// ---------------------------------------------------------------------------
// Flush policies
// ---------------------------------------------------------------------------

TEST(FlushPolicyTest, CountPolicyFiresAfterThreshold) {
  auto world = ChainWorld();
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  ReoptSessionOptions so;
  so.flush_policy = std::make_shared<CountPolicy>(3);
  ReoptSession session(&world->registry, so);
  QueryHandle handle = session.Register(opt);

  world->registry.SetBaseRows(0, 999);
  world->registry.SetBaseRows(1, 888);
  EXPECT_TRUE(session.HasPending());  // below threshold: nothing fired
  EXPECT_EQ(session.metrics().flushes, 0);
  world->registry.SetScanCostMultiplier(2, 2.0);  // third mutation: fires
  EXPECT_FALSE(session.HasPending());
  EXPECT_EQ(session.metrics().flushes, 1);
  EXPECT_EQ(session.metrics().reopt_passes, 1);
  opt.ValidateInvariants();
  EXPECT_EQ(opt.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
}

// DeadlinePolicy with an injected clock: mutations inside the deadline do
// not flush; once the oldest pending mutation has aged past it, the next
// policy consultation — here a Poll(), no mutation needed — flushes.
TEST(FlushPolicyTest, DeadlinePolicyFiresViaPollAfterClockAdvance) {
  auto world = ChainWorld();
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  FakeClock clock;
  ReoptSessionOptions so;
  so.flush_policy = std::make_shared<DeadlinePolicy>(std::chrono::milliseconds(100), &clock);
  ReoptSession session(&world->registry, so);
  QueryHandle handle = session.Register(opt);

  world->registry.SetBaseRows(0, 999);  // arms the deadline at t=0
  clock.Advance(std::chrono::milliseconds(50));
  world->registry.SetBaseRows(1, 888);  // still inside the deadline
  EXPECT_EQ(session.Poll(), 0u);
  EXPECT_EQ(session.metrics().flushes, 0);

  clock.Advance(std::chrono::milliseconds(60));  // t=110 > 100ms deadline
  EXPECT_GT(session.Poll(), 0u);
  EXPECT_EQ(session.metrics().flushes, 1);
  EXPECT_FALSE(session.HasPending());

  // Disarmed after the flush: an idle Poll never fires...
  clock.Advance(std::chrono::hours(1));
  EXPECT_EQ(session.Poll(), 0u);
  // ...and the next burst starts its own window at its own t0.
  world->registry.SetBaseRows(0, 123);
  EXPECT_EQ(session.Poll(), 0u);
  clock.Advance(std::chrono::milliseconds(150));
  EXPECT_GT(session.Poll(), 0u);
  EXPECT_EQ(session.metrics().flushes, 2);
  opt.ValidateInvariants();
  EXPECT_EQ(opt.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
}

// A mutation that lands while a flush is in flight (here: from inside a
// subscriber callback, after the drain) survives into the next epoch's
// batch — the deadline must re-arm on it at flush end, not disarm, or its
// staleness bound would silently stretch by a poll interval.
TEST(FlushPolicyTest, DeadlineRearmsOnMutationsThatRacedTheFlush) {
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  FakeClock clock;
  ReoptSessionOptions so;
  so.flush_policy = std::make_shared<DeadlinePolicy>(std::chrono::milliseconds(100), &clock);
  ReoptSession session(&world->registry, so);

  class MutateOnceSubscriber final : public PlanSubscriber {
   public:
    explicit MutateOnceSubscriber(StatsRegistry* registry) : registry_(registry) {}
    void OnPlanChange(const PlanChangeEvent& event) override {
      (void)event;
      if (!mutated_) {
        mutated_ = true;
        registry_->SetBaseRows(1, 777);  // races the in-flight flush
      }
    }

   private:
    StatsRegistry* registry_;
    bool mutated_ = false;
  };
  MutateOnceSubscriber subscriber(&world->registry);
  QueryHandle handle = session.Register(opt, &subscriber);

  world->registry.SetBaseRows(0, world->registry.base_rows(0) * 1000);  // arms at t=0
  clock.Advance(std::chrono::milliseconds(150));
  EXPECT_GT(session.Poll(), 0u);  // deadline expired: flush; callback mutates
  EXPECT_EQ(session.metrics().flushes, 1);
  EXPECT_TRUE(session.HasPending());  // the callback's mutation survived

  // Window restarted at flush end (t=150): not yet expired at t=200...
  clock.Advance(std::chrono::milliseconds(50));
  EXPECT_EQ(session.Poll(), 0u);
  // ...expired at t=260. (A disarm-always policy would have re-armed at
  // the t=200 Poll and still be waiting here.)
  clock.Advance(std::chrono::milliseconds(60));
  EXPECT_GT(session.Poll(), 0u);
  EXPECT_EQ(session.metrics().flushes, 2);
  EXPECT_FALSE(session.HasPending());
  opt.ValidateInvariants();
  EXPECT_EQ(opt.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
}

// ---------------------------------------------------------------------------
// Metrics export
// ---------------------------------------------------------------------------

TEST(MetricsExporterTest, JsonExporterReceivesOneReportPerDispatchedFlush) {
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  JsonMetricsExporter exporter;
  ReoptSessionOptions so;
  so.metrics_exporter = &exporter;
  ReoptSession session(&world->registry, so);
  RecordingSubscriber subscriber;
  QueryHandle handle = session.Register(opt, &subscriber);

  // Flush 1: a real change (and a plan change, with the big swing).
  world->registry.SetBaseRows(0, world->registry.base_rows(0) * 1000);
  ASSERT_GT(session.Flush(), 0u);
  // Flush 2: net-zero churn — absorbed, NO report (nothing dispatched).
  world->registry.SetScanCostMultiplier(1, 2.0);
  world->registry.SetScanCostMultiplier(1, 1.0);
  EXPECT_EQ(session.Flush(), 0u);
  // Flush 3: another real change.
  world->registry.SetLocalSelectivity(2, 0.4);
  ASSERT_GT(session.Flush(), 0u);

  ASSERT_EQ(exporter.num_reports(), 2);
  const FlushReport& r1 = exporter.reports()[0];
  EXPECT_EQ(r1.flush_index, 1);
  EXPECT_EQ(r1.changes, 1);
  EXPECT_EQ(r1.queries, 1);
  EXPECT_EQ(r1.plan_changes, 1);
  EXPECT_GT(r1.opt.passes, 0);
  EXPECT_GT(r1.opt.fixpoint_steps, 0);
  // The plan changed, so at least the root's best cost moved; an entry
  // counted as re-best also counted at least two best changes.
  EXPECT_GT(r1.opt.best_changes, 0);
  EXPECT_LE(2 * r1.opt.rebest_eps, r1.opt.best_changes);
  EXPECT_GT(r1.flush_epoch, 1u);  // the drained batch's registry epoch
  EXPECT_GT(exporter.reports()[1].flush_epoch, r1.flush_epoch);
  EXPECT_EQ(exporter.reports()[1].flush_index, 2);
  EXPECT_EQ(exporter.reports()[1].session.flushes, 2);

  // The JSON rendering is parseable-shaped and carries the counters.
  const std::string json = exporter.ToJson();
  EXPECT_NE(json.find("\"flush_index\":1"), std::string::npos);
  EXPECT_NE(json.find("\"plan_changes\""), std::string::npos);
  EXPECT_NE(json.find("\"fixpoint_steps\""), std::string::npos);
  EXPECT_NE(json.find("\"best_changes\""), std::string::npos);
  EXPECT_NE(json.find("\"rebest_eps\""), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
}

// ---------------------------------------------------------------------------
// Failure domain: quarantine, retry/backoff, park
// ---------------------------------------------------------------------------

/// Records all three event kinds; optionally throws from a chosen callback.
class FailureRecordingSubscriber final : public PlanSubscriber {
 public:
  void OnPlanChange(const PlanChangeEvent& e) override { plan_events.push_back(e); }
  void OnQueryQuarantined(const QueryQuarantinedEvent& e) override {
    quarantine_events.push_back(e);
    if (throw_on_quarantine) throw std::runtime_error("subscriber quarantine throw");
  }
  void OnQueryRehabilitated(const QueryRehabilitatedEvent& e) override {
    rehab_events.push_back(e);
  }

  std::vector<PlanChangeEvent> plan_events;
  std::vector<QueryQuarantinedEvent> quarantine_events;
  std::vector<QueryRehabilitatedEvent> rehab_events;
  bool throw_on_quarantine = false;
};

/// Flush with the fault injector's counting window open (the session-level
/// analogue of what the differential harness does around primary flushes).
size_t FaultedFlush(ReoptSession& session) {
  ScopedFaultWindow window;
  return session.Flush();
}

TEST(QuarantineTest, FaultedQueryIsIsolatedAndPeersComplete) {
  auto world = ChainWorld();
  DeclarativeOptimizer a(world->enumerator.get(), world->cost_model.get(), &world->registry);
  DeclarativeOptimizer b(world->enumerator.get(), world->cost_model.get(), &world->registry,
                         DistinctOptions(OptimizerOptions::Default(), 1));
  a.Optimize();
  b.Optimize();
  ReoptSession session(&world->registry);
  FailureRecordingSubscriber sub_a;
  QueryHandle ha = session.Register(a, &sub_a);
  QueryHandle hb = session.Register(b);

  FaultInjector::Instance().set_enabled(false);
  FaultInjector::ArmSpec spec;
  spec.site = "service.pass";  // first dispatched pass = query a (serial order)
  ScopedFaultArm arm(spec);

  world->registry.SetBaseRows(1, world->registry.base_rows(1) * 64);
  FaultedFlush(session);

  // a struck; b completed its pass and matches from-scratch exactly.
  EXPECT_EQ(ha.state(), QueryState::kQuarantined);
  EXPECT_EQ(hb.state(), QueryState::kHealthy);
  EXPECT_FALSE(a.optimized());  // torn down to the one canonical failed state
  EXPECT_EQ(session.num_quarantined(), 1);
  EXPECT_EQ(session.metrics().quarantines, 1);
  b.ValidateInvariants();
  EXPECT_EQ(b.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
  ASSERT_EQ(sub_a.quarantine_events.size(), 1u);
  EXPECT_EQ(sub_a.quarantine_events[0].reason, QueryQuarantinedEvent::Reason::kException);
  EXPECT_EQ(sub_a.quarantine_events[0].strikes, 1);
  EXPECT_FALSE(sub_a.quarantine_events[0].parked);
  EXPECT_EQ(sub_a.quarantine_events[0].retry_in_ticks, 1);
  EXPECT_TRUE(sub_a.plan_events.empty());  // no plan to report while torn down

  // Next flush: backoff (1 tick) expired, the single-shot fault is spent —
  // the rebuild succeeds and a lands exactly where b (and scratch) did.
  FaultedFlush(session);
  EXPECT_EQ(ha.state(), QueryState::kHealthy);
  EXPECT_EQ(session.num_quarantined(), 0);
  EXPECT_EQ(session.metrics().rehabilitations, 1);
  a.ValidateInvariants();
  EXPECT_EQ(a.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
  ASSERT_EQ(sub_a.rehab_events.size(), 1u);
  EXPECT_EQ(sub_a.rehab_events[0].strikes_cleared, 1);
  // The 64x row change moved the plan's costs, and a's subscriber last saw
  // the pre-change plan: rehabilitation owes it exactly one change event
  // against that old baseline.
  ASSERT_EQ(sub_a.plan_events.size(), 1u);
  EXPECT_EQ(sub_a.plan_events[0].new_cost, a.BestCost());
}

TEST(QuarantineTest, WorkBudgetExceededQuarantinesWithTypedReason) {
  auto world = ChainWorld();
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  ReoptSessionOptions so;
  so.per_query_work_budget = 1;  // any real fixpoint blows through this
  ReoptSession session(&world->registry, so);
  FailureRecordingSubscriber sub;
  QueryHandle handle = session.Register(opt, &sub);

  world->registry.SetBaseRows(1, world->registry.base_rows(1) * 64);
  session.Flush();
  EXPECT_EQ(handle.state(), QueryState::kQuarantined);
  ASSERT_EQ(sub.quarantine_events.size(), 1u);
  EXPECT_EQ(sub.quarantine_events[0].reason, QueryQuarantinedEvent::Reason::kWorkBudget);

  // Rehabilitation rebuilds from scratch, which is NOT budgeted (the
  // budget bounds incremental passes; recovery must always be able to
  // land), so the query comes back even though every incremental pass
  // would keep exceeding.
  session.Flush();
  EXPECT_EQ(handle.state(), QueryState::kHealthy);
  EXPECT_EQ(opt.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
}

TEST(QuarantineTest, RepeatedRebuildFailuresBackOffExponentiallyThenPark) {
  auto world = ChainWorld();
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  ReoptSession session(&world->registry);  // max_strikes=3, base=1, cap=8
  FailureRecordingSubscriber sub;
  QueryHandle handle = session.Register(opt, &sub);

  FaultInjector::Instance().set_enabled(false);
  FaultInjector::ArmSpec pass_fault;
  pass_fault.site = "service.pass";
  FaultInjector::ArmSpec rebuild_fault;
  rebuild_fault.site = "reopt.rebuild";
  rebuild_fault.period = 1;  // EVERY rehabilitation attempt fails
  ScopedFaultArm arm{pass_fault, rebuild_fault};

  world->registry.SetBaseRows(1, 123456);
  FaultedFlush(session);  // tick 1: strike 1, eligible at tick 2
  EXPECT_EQ(handle.state(), QueryState::kQuarantined);
  FaultedFlush(session);  // tick 2: rehab attempt fails -> strike 2, backoff 2
  EXPECT_EQ(session.metrics().quarantines, 2);
  FaultedFlush(session);  // tick 3: backoff not expired, NO attempt
  EXPECT_EQ(session.metrics().quarantines, 2);
  FaultedFlush(session);  // tick 4: attempt fails -> strike 3 == max: parked
  EXPECT_EQ(handle.state(), QueryState::kParked);
  EXPECT_EQ(session.num_parked(), 1);
  EXPECT_EQ(session.num_quarantined(), 0);
  EXPECT_EQ(session.metrics().queries_parked, 1);
  FaultedFlush(session);  // parked: no further attempts, ever
  EXPECT_EQ(session.metrics().quarantines, 3);

  ASSERT_EQ(sub.quarantine_events.size(), 3u);
  EXPECT_EQ(sub.quarantine_events[0].retry_in_ticks, 1);
  EXPECT_EQ(sub.quarantine_events[1].retry_in_ticks, 2);  // doubled
  EXPECT_TRUE(sub.quarantine_events[2].parked);
  EXPECT_EQ(sub.quarantine_events[2].retry_in_ticks, 0);
  EXPECT_EQ(session.metrics().rehabilitations, 0);
}

TEST(QuarantineTest, ThrowingQuarantineCallbackLeavesSessionConsistent) {
  auto world = ChainWorld();
  DeclarativeOptimizer a(world->enumerator.get(), world->cost_model.get(), &world->registry);
  DeclarativeOptimizer b(world->enumerator.get(), world->cost_model.get(), &world->registry);
  a.Optimize();
  b.Optimize();
  ReoptSession session(&world->registry);
  FailureRecordingSubscriber sub_a;
  FailureRecordingSubscriber sub_b;
  sub_a.throw_on_quarantine = true;
  QueryHandle ha = session.Register(a, &sub_a);
  QueryHandle hb = session.Register(b, &sub_b);

  FaultInjector::Instance().set_enabled(false);
  FaultInjector::ArmSpec spec;
  spec.site = "service.pass";
  ScopedFaultArm arm(spec);

  const double before_cost = b.BestCost();
  world->registry.SetBaseRows(1, world->registry.base_rows(1) * 64);
  // The quarantine event fires FIRST and its callback throws: the flush
  // unwinds before b's plan event can deliver.
  EXPECT_THROW(FaultedFlush(session), std::runtime_error);
  EXPECT_EQ(ha.state(), QueryState::kQuarantined);  // the strike stuck
  EXPECT_TRUE(sub_b.plan_events.empty());           // dropped, not lost

  // The session is NOT wedged: the next flush rehabilitates a and
  // re-detects b's dropped plan change against the baseline its subscriber
  // actually saw.
  FaultedFlush(session);
  EXPECT_EQ(ha.state(), QueryState::kHealthy);
  ASSERT_EQ(sub_b.plan_events.size(), 1u);
  EXPECT_EQ(sub_b.plan_events[0].old_cost, before_cost);
  EXPECT_EQ(sub_b.plan_events[0].new_cost, b.BestCost());
  EXPECT_EQ(a.CanonicalDumpState(), b.CanonicalDumpState());
  // The quarantine event is at-most-once: it is NOT redelivered.
  EXPECT_EQ(sub_a.quarantine_events.size(), 1u);
}

// Idle Poll() ticks alone — no mutation, no manual Flush() — age a
// quarantine backoff out, and the poll that reaches the eligible tick
// flushes and rehabilitates the query.
TEST(PollTest, IdlePollsRetryQuarantineBackoff) {
  auto world = ChainWorld();
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  ReoptSessionOptions so;
  so.quarantine_backoff_base_ticks = 4;
  ReoptSession session(&world->registry, so);
  QueryHandle handle = session.Register(opt);

  {
    FaultInjector::Instance().set_enabled(false);
    FaultInjector::ArmSpec spec;
    spec.site = "service.pass";
    ScopedFaultArm arm(spec);
    world->registry.SetBaseRows(1, 98765);
    FaultedFlush(session);  // tick 1: strike 1, eligible at tick 5
    ASSERT_EQ(handle.state(), QueryState::kQuarantined);
  }
  ASSERT_FALSE(session.HasPending());
  for (int64_t tick = 2; tick <= 4; ++tick) {
    EXPECT_EQ(session.Poll(), 0u);
    EXPECT_EQ(session.ticks(), tick);
    EXPECT_EQ(handle.state(), QueryState::kQuarantined) << "rehab before tick 5";
  }
  // Tick 5: the backoff expired; the poll flushes (tick 6) and rehabs.
  session.Poll();
  EXPECT_EQ(session.ticks(), 6);
  EXPECT_EQ(handle.state(), QueryState::kHealthy);
  EXPECT_EQ(session.metrics().rehabilitations, 1);
  EXPECT_EQ(session.metrics().flushes, 1);  // only the faulted one dispatched
  EXPECT_EQ(opt.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
}

/// FakeClock is single-threaded by design; the poll storm below advances
/// time on the mutator thread while the owner's Poll() loop reads it, so
/// this variant keeps the instant in an atomic.
class AtomicFakeClock final : public Clock {
 public:
  std::chrono::steady_clock::time_point Now() const override {
    return std::chrono::steady_clock::time_point{
        std::chrono::nanoseconds(nanos_.load(std::memory_order_relaxed))};
  }
  void Advance(std::chrono::milliseconds d) {
    nanos_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(d).count(),
                     std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> nanos_{0};
};

/// Counts dispatched flushes from whichever thread runs them.
class CountingExporter final : public MetricsExporter {
 public:
  void OnFlushMetrics(const FlushReport& report) override {
    (void)report;
    reports_.fetch_add(1, std::memory_order_relaxed);
  }
  int64_t reports() const { return reports_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> reports_{0};
};

// Adversarial poll storm: the owner thread hammers Poll() in a tight
// driver loop while a mutator thread pushes burst after burst through a
// 50ms DeadlinePolicy on a hand-advanced clock. Per epoch the deadline
// must fire EXACTLY one flush: no spurious fire inside the window however
// many polls land there, no starvation once it expires, and no second
// flush after it (the next epoch's mid-window check sees the count
// unchanged). Every flush must come from a Poll() on the owner thread:
// the mutations arrive inside fresh windows, so none may flush on the
// mutator thread.
TEST(PollTest, PollStormFiresExactlyOneFlushPerDeadlineEpoch) {
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  AtomicFakeClock clock;
  CountingExporter exporter;
  ReoptSessionOptions so;
  so.flush_policy = std::make_shared<DeadlinePolicy>(std::chrono::milliseconds(50), &clock);
  so.metrics_exporter = &exporter;
  ReoptSession session(&world->registry, so);
  QueryHandle handle = session.Register(opt);

  const int kEpochs = 25;
  const double rows0 = world->registry.base_rows(0);
  std::atomic<int64_t> polled_flushes{0};  // owner Polls that dispatched
  std::atomic<bool> stop{false};
  std::string failure;  // written by the mutator, read after join
  std::thread mutator([&] {
    auto wait_for_polls = [&](int64_t target) {
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (polled_flushes.load() < target && std::chrono::steady_clock::now() < give_up) {
        clock.Advance(std::chrono::milliseconds(30));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    for (int e = 0; e < kEpochs && failure.empty(); ++e) {
      // Burst: three mutations open a window while the owner polls.
      world->registry.SetBaseRows(0, rows0 * (2.0 + e));
      world->registry.SetScanCostMultiplier(1 + (e % 4), 1.0 + 0.25 * (e + 1));
      world->registry.SetLocalSelectivity(5, e % 2 == 0 ? 0.4 : 0.7);
      clock.Advance(std::chrono::milliseconds(10));  // mid-window
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (exporter.reports() != e) {
        failure = "fired inside the window, epoch " + std::to_string(e);
        break;
      }
      // Age the window out; the Poll that sees it expired flushes once.
      wait_for_polls(e + 1);
      if (polled_flushes.load() != e + 1) {
        failure = "flush starved at epoch " + std::to_string(e);
      }
    }
    // The last flush disarmed the policy: with nothing pending, an hour of
    // fake time and thousands more polls fire nothing.
    clock.Advance(std::chrono::hours(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true);
  });
  while (!stop.load()) {
    if (session.Poll() > 0) polled_flushes.fetch_add(1);
    std::this_thread::yield();
  }
  mutator.join();

  ASSERT_TRUE(failure.empty()) << failure;
  EXPECT_EQ(polled_flushes.load(), kEpochs);
  EXPECT_EQ(exporter.reports(), kEpochs);  // none ran on the mutator thread
  EXPECT_EQ(session.metrics().flushes, kEpochs);
  EXPECT_EQ(session.metrics().empty_flushes, 0);  // every flush carried changes
  EXPECT_FALSE(session.HasPending());
  opt.ValidateInvariants();
  EXPECT_EQ(opt.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
}

// ---------------------------------------------------------------------------
// Mutator threads: the registry lock against the owner's flush
// ---------------------------------------------------------------------------
//
// A session flushes on one thread, but statistics producers may Record()
// from others. These pin the registry-lock contract; the TSan CI job
// repeats them, so their value is as much "TSan sees these interleavings
// race-free" as the assertions themselves.

// Record() racing Flush() from a second thread: every mutation either
// makes the batch a flush drains or stays pending for the next one —
// nothing is lost, nothing applies twice. After the mutator joins, one
// final flush must land every optimizer exactly in its oracle state.
TEST(MutatorThreadTest, RecordRacingFlushLandsInNextEpoch) {
  auto world = ChainWorld(6, 17);
  std::vector<std::unique_ptr<DeclarativeOptimizer>> opts;
  for (const OptimizerOptions& o :
       {OptimizerOptions::Default(), OptimizerOptions::UseAggSel(),
        OptimizerOptions::UseAggSelRefCount(), OptimizerOptions::UseAggSelBounding(),
        OptimizerOptions::UseNoPruning()}) {
    opts.push_back(std::make_unique<DeclarativeOptimizer>(
        world->enumerator.get(), world->cost_model.get(), &world->registry, o));
    opts.back()->Optimize();
  }
  ReoptSessionOptions so;
  // Exporter attached: the flush epilogue's metrics snapshot must be
  // race-free against the concurrent mutator (TSan checks it here).
  JsonMetricsExporter exporter;
  so.metrics_exporter = &exporter;
  ReoptSession session(&world->registry, so);
  std::vector<QueryHandle> handles;
  for (auto& o : opts) handles.push_back(session.Register(*o));

  constexpr int kMutations = 200;
  const double rows0 = world->registry.base_rows(0);
  std::thread mutator([&world, rows0] {
    for (int i = 1; i <= kMutations; ++i) {
      // Strictly changing values: every call records (and bumps the epoch).
      world->registry.SetBaseRows(0, rows0 + i);
      if (i % 16 == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  // Flush continuously while the mutator runs: each flush drains whatever
  // epoch-consistent batch exists at that instant.
  int flushed_batches = 0;
  for (int i = 0; i < 50; ++i) {
    if (session.Flush() > 0) ++flushed_batches;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  mutator.join();
  session.Flush();  // whatever raced past the last mid-stream flush
  EXPECT_FALSE(world->registry.HasPending());

  // No lost update: the registry's value is the mutator's last write, and
  // every optimizer is at the fixpoint of exactly that value.
  EXPECT_EQ(world->registry.base_rows(0), rows0 + kMutations);
  // No double-apply/over-count: every one of the 200 distinct writes was
  // observed exactly once.
  EXPECT_EQ(session.metrics().mutations_observed, kMutations);
  for (auto& o : opts) {
    o->ValidateInvariants();
    EXPECT_EQ(o->CanonicalDumpState(), ScratchDump(*world, o->options()));
  }
  // Sanity: the race was real — some batches were drained mid-stream.
  EXPECT_GE(flushed_batches, 1);
}

// Auto-flush on a mutator thread: the threshold callback fires Flush() on
// the *mutator's* thread, which runs the passes there.
TEST(MutatorThreadTest, AutoFlushDispatchesFromMutatorThread) {
  auto world = ChainWorld(6, 17);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  ReoptSessionOptions so;
  so.flush_policy = std::make_shared<CountPolicy>(4);
  ReoptSession session(&world->registry, so);
  QueryHandle handle = session.Register(opt);

  std::thread mutator([&world] {
    for (int i = 1; i <= 40; ++i) {
      world->registry.SetBaseRows(1, 100.0 + i);
    }
  });
  mutator.join();
  session.Flush();  // tail below the last threshold
  EXPECT_GE(session.metrics().flushes, 1);
  opt.ValidateInvariants();
  EXPECT_EQ(opt.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
}

// ---------------------------------------------------------------------------
// Memo lifecycle: eviction budget, snapshot / warm restart
// ---------------------------------------------------------------------------

/// Unique per-test snapshot path under /tmp; removed by the destructor.
struct ScopedSnapshotPath {
  explicit ScopedSnapshotPath(const std::string& name)
      : path("/tmp/iqro_service_test_" + name + ".snap") {
    std::remove(path.c_str());
  }
  ~ScopedSnapshotPath() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  std::string path;
};

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

TEST(MemoLifecycleTest, EvictedQueryRehydratesOnItsFirstRelevantFlush) {
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer a(world->enumerator.get(), world->cost_model.get(), &world->registry);
  DeclarativeOptimizer b(world->enumerator.get(), world->cost_model.get(), &world->registry,
                         DistinctOptions(OptimizerOptions::Default(), 1));
  a.Optimize();
  b.Optimize();
  ReoptSession session(&world->registry);
  QueryHandle ha = session.Register(a);
  QueryHandle hb = session.Register(b);

  ASSERT_TRUE(session.EvictQuery(ha.id()));
  EXPECT_FALSE(a.optimized());  // memo torn down, state lives in the seed
  EXPECT_EQ(session.num_evicted(), 1);
  EXPECT_EQ(session.metrics().evictions, 1);
  EXPECT_FALSE(session.EvictQuery(ha.id()));  // already evicted: no-op
  // The gauge counts only resident memos: b's alone.
  EXPECT_EQ(session.resident_memo_bytes(),
            static_cast<int64_t>(b.EstimatedMemoBytes()));

  // A flush whose batch touches the evicted query's relations rehydrates
  // it BEFORE dispatch: the restored memo then rides the normal delta
  // seeding and must land exactly where the never-evicted peer does.
  world->registry.SetBaseRows(1, world->registry.base_rows(1) * 64);
  EXPECT_GT(session.Flush(), 0u);
  EXPECT_EQ(session.num_evicted(), 0);
  EXPECT_EQ(session.metrics().rehydrations, 1);
  EXPECT_TRUE(a.optimized());
  a.ValidateInvariants();
  EXPECT_EQ(a.CanonicalDumpState(), b.CanonicalDumpState());
  EXPECT_EQ(a.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
  // The gauge is back to both memos resident.
  EXPECT_EQ(session.resident_memo_bytes(),
            static_cast<int64_t>(a.EstimatedMemoBytes() + b.EstimatedMemoBytes()));
}

TEST(MemoLifecycleTest, ManualRehydrateRestoresByteIdenticalState) {
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  const std::string dump0 = opt.CanonicalDumpState();
  ReoptSession session(&world->registry);
  QueryHandle handle = session.Register(opt);

  ASSERT_TRUE(session.EvictQuery(handle.id()));
  EXPECT_FALSE(opt.optimized());
  ASSERT_TRUE(session.RehydrateQuery(handle.id()));
  EXPECT_FALSE(session.RehydrateQuery(handle.id()));  // not evicted: no-op
  EXPECT_TRUE(opt.optimized());
  opt.ValidateInvariants();
  // No churn between evict and rehydrate: the restore is byte-exact.
  EXPECT_EQ(opt.CanonicalDumpState(), dump0);
  EXPECT_EQ(session.metrics().evictions, 1);
  EXPECT_EQ(session.metrics().rehydrations, 1);
}

// The budget tentpole: with memo_byte_budget set, resident bytes stay at
// or under the budget after every flush while every query keeps answering
// oracle-equal — dormant memos spill, never results.
TEST(MemoLifecycleTest, MemoBudgetEvictsLruAndPlansStayOracleEqual) {
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer a(world->enumerator.get(), world->cost_model.get(),
                         &world->registry, OptimizerOptions::Default());
  DeclarativeOptimizer b(world->enumerator.get(), world->cost_model.get(),
                         &world->registry, OptimizerOptions::UseAggSel());
  DeclarativeOptimizer c(world->enumerator.get(), world->cost_model.get(),
                         &world->registry, OptimizerOptions::UseNoPruning());
  a.Optimize();
  b.Optimize();
  c.Optimize();
  const size_t full = a.EstimatedMemoBytes() + b.EstimatedMemoBytes() +
                      c.EstimatedMemoBytes();

  ReoptSessionOptions so;
  so.memo_byte_budget = (full * 2) / 3;  // cannot hold all three memos
  ReoptSession session(&world->registry, so);
  std::vector<QueryHandle> handles;
  handles.push_back(session.Register(a));
  handles.push_back(session.Register(b));
  handles.push_back(session.Register(c));

  const double rows0 = world->registry.base_rows(0);
  for (int round = 0; round < 4; ++round) {
    world->registry.SetBaseRows(0, rows0 * (round % 2 == 0 ? 50.0 : 1.0));
    EXPECT_GT(session.Flush(), 0u);
    EXPECT_LE(session.resident_memo_bytes(),
              static_cast<int64_t>(so.memo_byte_budget))
        << "round " << round;
  }
  EXPECT_GT(session.metrics().evictions, 0);
  // Every batch touched relation 0 (in all three root sets), so evicted
  // queries rehydrated on the very next flush.
  EXPECT_GT(session.metrics().rehydrations, 0);

  // Rehydrate whatever is still spilled and prove all three answer
  // exactly as a from-scratch optimizer over the final statistics.
  for (const QueryHandle& h : handles) session.RehydrateQuery(h.id());
  for (auto* opt : {&a, &b, &c}) {
    opt->ValidateInvariants();
    EXPECT_EQ(opt->CanonicalDumpState(), ScratchDump(*world, opt->options()));
  }
}

// Release-storm accounting: the resident gauge tracks the live set exactly
// at EVERY interleaving point, not just at flush boundaries. The sharp
// edge: a release followed by a flush that coalesces to nothing takes the
// early-return path that skips budget enforcement — the gauge must already
// have shed the dead query's bytes at release time, or it reports (and
// budgets against) a memo that no longer exists.
TEST(MemoLifecycleTest, ReleaseShrinksResidentGaugeBeforeAnyFlush) {
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer a(world->enumerator.get(), world->cost_model.get(),
                         &world->registry, OptimizerOptions::Default());
  DeclarativeOptimizer b(world->enumerator.get(), world->cost_model.get(),
                         &world->registry, OptimizerOptions::UseAggSel());
  DeclarativeOptimizer c(world->enumerator.get(), world->cost_model.get(),
                         &world->registry, OptimizerOptions::UseNoPruning());
  a.Optimize();
  b.Optimize();
  c.Optimize();
  ReoptSession session(&world->registry);
  const auto bytes = [](const DeclarativeOptimizer& o) {
    return static_cast<int64_t>(o.EstimatedMemoBytes());
  };

  // Registration grows the gauge immediately...
  QueryHandle ha = session.Register(a);
  EXPECT_EQ(session.resident_memo_bytes(), bytes(a));
  QueryHandle hb = session.Register(b);
  EXPECT_EQ(session.resident_memo_bytes(), bytes(a) + bytes(b));
  QueryHandle hc = session.Register(c);
  EXPECT_EQ(session.resident_memo_bytes(), bytes(a) + bytes(b) + bytes(c));

  // ...stays exact through a dispatched flush (memo sizes may change)...
  world->registry.SetBaseRows(0, world->registry.base_rows(0) * 7);
  EXPECT_GT(session.Flush(), 0u);
  EXPECT_EQ(session.resident_memo_bytes(), bytes(a) + bytes(b) + bytes(c));

  // ...and a release shrinks it NOW — no flush has run yet.
  hc.Release();
  EXPECT_EQ(session.resident_memo_bytes(), bytes(a) + bytes(b));

  // Net-zero churn: the flush early-returns before budget enforcement.
  // The gauge must not regress to the pre-release total.
  const double rows1 = world->registry.base_rows(1);
  world->registry.SetBaseRows(1, rows1 * 3);
  world->registry.SetBaseRows(1, rows1);
  EXPECT_EQ(session.Flush(), 0u);
  EXPECT_EQ(session.resident_memo_bytes(), bytes(a) + bytes(b));

  // Manual evict/rehydrate keep the same exactness.
  ASSERT_TRUE(session.EvictQuery(ha.id()));
  EXPECT_EQ(session.resident_memo_bytes(), bytes(b));
  ASSERT_TRUE(session.RehydrateQuery(ha.id()));
  EXPECT_EQ(session.resident_memo_bytes(), bytes(a) + bytes(b));
  for (auto* opt : {&a, &b}) {
    opt->ValidateInvariants();
    EXPECT_EQ(opt->CanonicalDumpState(), ScratchDump(*world, opt->options()));
  }
}

// LRU freshness across handle reuse: a query registered AFTER a release
// must enter the LRU clock "just touched". If the new slot inherited a
// stale tick, the next over-budget enforcement would spill the fresh
// arrival instead of the genuinely oldest query. All four queries run
// no-pruning so their memos are equal-sized and structurally stable — the
// budget holds exactly three of them.
TEST(MemoLifecycleTest, ReRegisteredQueryIsNeverTheEvictionVictim) {
  auto world = ChainWorld(6, 23);
  std::vector<std::unique_ptr<DeclarativeOptimizer>> opts;
  for (int i = 0; i < 5; ++i) {
    opts.push_back(std::make_unique<DeclarativeOptimizer>(
        world->enumerator.get(), world->cost_model.get(), &world->registry,
        DistinctOptions(OptimizerOptions::UseNoPruning(), i)));
  }
  opts[0]->Optimize();
  const size_t m = opts[0]->EstimatedMemoBytes();

  ReoptSessionOptions so;
  so.memo_byte_budget = 3 * m + m / 2;  // three residents fit, a fourth spills
  ReoptSession session(&world->registry, so);
  opts[1]->Optimize();
  opts[2]->Optimize();
  QueryHandle ha = session.Register(*opts[0]);
  QueryHandle hb = session.Register(*opts[1]);
  QueryHandle hc = session.Register(*opts[2]);

  world->registry.SetBaseRows(0, world->registry.base_rows(0) * 11);
  EXPECT_GT(session.Flush(), 0u);
  EXPECT_EQ(session.metrics().evictions, 0);  // three residents: under budget

  // Release the middle query, then register two fresh ones. The live set
  // (a, c, d, e) now overflows the budget by one memo.
  hb.Release();
  EXPECT_EQ(session.num_queries(), 2);
  opts[3]->Optimize();
  opts[4]->Optimize();
  QueryHandle hd = session.Register(*opts[3]);
  QueryHandle he = session.Register(*opts[4]);

  world->registry.SetScanCostMultiplier(2, 3.0);
  EXPECT_GT(session.Flush(), 0u);
  EXPECT_EQ(session.metrics().evictions, 1);

  // The victim is the oldest survivor (a) — never a just-registered query.
  // RehydrateQuery's return value probes evicted-ness: true only for a.
  EXPECT_FALSE(session.RehydrateQuery(hc.id()));
  EXPECT_FALSE(session.RehydrateQuery(hd.id()));
  EXPECT_FALSE(session.RehydrateQuery(he.id()));
  EXPECT_TRUE(session.RehydrateQuery(ha.id()));

  // Rehydrate-all leaves the gauge at the exact live sum.
  int64_t live_bytes = 0;
  for (auto* o : {opts[0].get(), opts[2].get(), opts[3].get(), opts[4].get()}) {
    live_bytes += static_cast<int64_t>(o->EstimatedMemoBytes());
    o->ValidateInvariants();
    EXPECT_EQ(o->CanonicalDumpState(), ScratchDump(*world, o->options()));
  }
  EXPECT_EQ(session.resident_memo_bytes(), live_bytes);
}

TEST(SnapshotTest, SaveLoadRoundTripWarmRestartsTheSession) {
  ScopedSnapshotPath snap("roundtrip");
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer a(world->enumerator.get(), world->cost_model.get(),
                         &world->registry, OptimizerOptions::Default());
  DeclarativeOptimizer b(world->enumerator.get(), world->cost_model.get(),
                         &world->registry, OptimizerOptions::UseAggSel());
  a.Optimize();
  b.Optimize();
  ReoptSession session(&world->registry);
  QueryHandle ha = session.Register(a);
  QueryHandle hb = session.Register(b);

  world->registry.SetBaseRows(0, world->registry.base_rows(0) * 40);
  world->registry.SetScanCostMultiplier(3, 2.0);
  session.Flush();
  // Snapshot a mixed population: a resident, b spilled to its seed.
  ASSERT_TRUE(session.EvictQuery(hb.id()));
  session.SaveSnapshot(snap.path);
  const std::string dump_a = a.CanonicalDumpState();

  // "Restart": a brand-new world (same deterministic construction), fresh
  // unoptimized optimizers, fresh session — warm-started from the file.
  auto world2 = ChainWorld(6, 23);
  DeclarativeOptimizer a2(world2->enumerator.get(), world2->cost_model.get(),
                          &world2->registry, OptimizerOptions::Default());
  DeclarativeOptimizer b2(world2->enumerator.get(), world2->cost_model.get(),
                          &world2->registry, OptimizerOptions::UseAggSel());
  ReoptSession session2(&world2->registry);
  std::vector<QueryHandle> handles = session2.LoadSnapshot(snap.path, {&a2, &b2});
  ASSERT_EQ(handles.size(), 2u);
  EXPECT_EQ(session2.num_queries(), 2);

  // The restored world answers byte-identically to the pre-restart one...
  EXPECT_EQ(a2.CanonicalDumpState(), dump_a);
  a2.ValidateInvariants();
  b2.ValidateInvariants();
  EXPECT_EQ(b2.CanonicalDumpState(), ScratchDump(*world2, OptimizerOptions::UseAggSel()));

  // ...and keeps re-optimizing incrementally: post-restart churn flushes
  // through the restored session and stays oracle-equal.
  world2->registry.SetBaseRows(2, world2->registry.base_rows(2) * 9);
  EXPECT_GT(session2.Flush(), 0u);
  for (auto* opt : {&a2, &b2}) {
    opt->ValidateInvariants();
    EXPECT_EQ(opt->CanonicalDumpState(), ScratchDump(*world2, opt->options()));
  }
}

// Randomized round-trip fuzz: generated scenarios churned mid-way, some
// queries evicted, snapshotted, restored into a freshly built world, the
// remaining churn replayed — the restored query must land exactly where a
// from-scratch optimizer over the full churn does.
TEST(SnapshotTest, FuzzRoundTripAcrossGeneratedScenarios) {
  ScopedSnapshotPath snap("fuzz");
  int replayed = 0;
  for (uint64_t seed = 7000; seed < 7024; ++seed) {
    Scenario scenario = GenerateScenario(seed);
    if (scenario.churn.size() < 2) continue;
    const size_t split = scenario.churn.size() / 2;

    auto world = BuildWorld(scenario.catalog, scenario.query);
    DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                             &world->registry, scenario.options);
    opt.Optimize();
    ReoptSession session(&world->registry);
    QueryHandle handle = session.Register(opt);
    for (size_t s = 0; s < split; ++s) {
      for (const StatMutation& m : scenario.churn[s].mutations) {
        ApplyMutation(&world->registry, m);
      }
      session.Flush();
    }
    if (seed % 2 == 0) session.EvictQuery(handle.id());  // cover stored seeds
    session.SaveSnapshot(snap.path);

    auto world2 = BuildWorld(scenario.catalog, scenario.query);
    DeclarativeOptimizer opt2(world2->enumerator.get(), world2->cost_model.get(),
                              &world2->registry, scenario.options);
    ReoptSession session2(&world2->registry);
    std::vector<QueryHandle> handles = session2.LoadSnapshot(snap.path, {&opt2});
    ASSERT_EQ(handles.size(), 1u) << "seed " << seed;
    for (size_t s = split; s < scenario.churn.size(); ++s) {
      for (const StatMutation& m : scenario.churn[s].mutations) {
        ApplyMutation(&world2->registry, m);
      }
      session2.Flush();
    }
    session2.RehydrateQuery(handles[0].id());  // in case every batch missed it

    // Fresh oracle: a third world with ALL churn applied, optimized once.
    auto world3 = BuildWorld(scenario.catalog, scenario.query);
    ApplyChurnPrefix(&world3->registry, scenario, scenario.churn.size());
    DeclarativeOptimizer oracle(world3->enumerator.get(), world3->cost_model.get(),
                                &world3->registry, scenario.options);
    oracle.Optimize();
    opt2.ValidateInvariants();
    ASSERT_EQ(opt2.CanonicalDumpState(), oracle.CanonicalDumpState())
        << "seed " << seed << " diverged after snapshot restore + replay";
    ++replayed;
  }
  EXPECT_GE(replayed, 16);  // the seed range really exercised the path
  std::fprintf(stderr, "snapshot fuzz: %d scenarios round-tripped\n", replayed);
}

TEST(SnapshotTest, CrashAtWritePointLeavesPreviousSnapshotIntact) {
  ScopedSnapshotPath snap("crash_write");
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  opt.Optimize();
  ReoptSession session(&world->registry);
  QueryHandle handle = session.Register(opt);
  session.SaveSnapshot(snap.path);  // the good prior generation
  const std::string dump0 = opt.CanonicalDumpState();

  for (const char* site : {"snapshot.write", "snapshot.rename"}) {
    world->registry.SetBaseRows(0, world->registry.base_rows(0) * 3);
    FaultInjector::Instance().set_enabled(false);
    FaultInjector::ArmSpec spec;
    spec.site = site;
    ScopedFaultArm arm(spec);
    {
      ScopedFaultWindow window;
      EXPECT_THROW(session.SaveSnapshot(snap.path), InjectedFault) << site;
    }
    // Crash on either side of the commit point: the previous complete
    // snapshot survives, no torn temp file is left behind.
    EXPECT_FALSE(FileExists(snap.path + ".tmp")) << site;
    auto world2 = ChainWorld(6, 23);
    DeclarativeOptimizer opt2(world2->enumerator.get(), world2->cost_model.get(),
                              &world2->registry);
    ReoptSession session2(&world2->registry);
    std::vector<QueryHandle> handles = session2.LoadSnapshot(snap.path, {&opt2});
    EXPECT_EQ(opt2.CanonicalDumpState(), dump0) << site;
  }
}

TEST(SnapshotTest, CorruptCorpusIsRejectedWithTypedErrors) {
  const struct {
    const char* file;
    SerializeError::Code code;
  } corpus[] = {
      {"empty.snap", SerializeError::Code::kBadMagic},
      {"short_garbage.snap", SerializeError::Code::kBadMagic},
      {"bad_magic.snap", SerializeError::Code::kBadMagic},
      {"bad_version.snap", SerializeError::Code::kBadVersion},
      {"truncated_header.snap", SerializeError::Code::kTruncated},
      {"oversized_section.snap", SerializeError::Code::kTruncated},
      {"bad_checksum.snap", SerializeError::Code::kChecksum},
      {"trailing_garbage.snap", SerializeError::Code::kBadSection},
  };
  for (const auto& entry : corpus) {
    const std::string path = std::string(IQRO_TEST_DATA_DIR) + "/" + entry.file;
    ASSERT_TRUE(FileExists(path)) << path << " (regenerate: tools/make_snapshot_corpus.py)";
    try {
      service::SnapshotReader reader(path);
      FAIL() << entry.file << " was accepted; expected "
             << SerializeErrorCodeName(entry.code);
    } catch (const SerializeError& e) {
      EXPECT_EQ(e.code, entry.code)
          << entry.file << ": rejected as " << SerializeErrorCodeName(e.code)
          << ", expected " << SerializeErrorCodeName(entry.code);
    }
  }
}

// LoadSnapshot on a bad file must reject BEFORE mutating anything: the
// session stays empty and usable, and the caller falls back to the cold
// path (plain Optimize + Register) with no residue from the failed load.
TEST(SnapshotTest, LoadRejectsCorruptFileAndFallsBackToColdStart) {
  auto world = ChainWorld(6, 23);
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(),
                           &world->registry);
  ReoptSession session(&world->registry);

  const std::string bad = std::string(IQRO_TEST_DATA_DIR) + "/bad_checksum.snap";
  EXPECT_THROW(
      { std::vector<QueryHandle> h = session.LoadSnapshot(bad, {&opt}); },
      SerializeError);
  EXPECT_EQ(session.num_queries(), 0);
  EXPECT_FALSE(opt.optimized());

  // A container that parses but does not lead with the statistics section
  // is structurally wrong (kBadSection)...
  ScopedSnapshotPath snap("shape_mismatch");
  {
    service::SnapshotWriter writer;
    writer.AddSection(/*type=*/42, "wrong shape");
    writer.WriteAtomic(snap.path);
    try {
      std::vector<QueryHandle> h = session.LoadSnapshot(snap.path, {&opt});
      FAIL() << "shape-mismatched snapshot was accepted";
    } catch (const SerializeError& e) {
      EXPECT_EQ(e.code, SerializeError::Code::kBadSection);
    }
  }
  // ...while a well-formed container whose query count disagrees with the
  // supplied optimizer list is rejected as kMismatch (before any payload
  // is applied).
  {
    service::SnapshotWriter writer;
    writer.AddSection(/*type=*/1, "stats");    // kStatsSection
    writer.AddSection(/*type=*/2, "query a");  // kQuerySection
    writer.AddSection(/*type=*/2, "query b");
    writer.WriteAtomic(snap.path);
    try {
      std::vector<QueryHandle> h = session.LoadSnapshot(snap.path, {&opt});
      FAIL() << "count-mismatched snapshot was accepted";
    } catch (const SerializeError& e) {
      EXPECT_EQ(e.code, SerializeError::Code::kMismatch);
    }
  }

  // Cold fallback: the session is not wedged.
  opt.Optimize();
  QueryHandle handle = session.Register(opt);
  world->registry.SetBaseRows(1, world->registry.base_rows(1) * 5);
  EXPECT_GT(session.Flush(), 0u);
  opt.ValidateInvariants();
  EXPECT_EQ(opt.CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
}

// ---------------------------------------------------------------------------
// Memo sharing: one memo per distinct question
// ---------------------------------------------------------------------------

/// One query's plan-change stream, reduced to what both sessions of a
/// sharing-vs-unshared comparison must agree on.
class StreamSubscriber final : public PlanSubscriber {
 public:
  void OnPlanChange(const PlanChangeEvent& e) override {
    events.push_back({e.flush_index, e.old_cost, e.new_cost, e.diff.changed_operators,
                      e.diff.total_operators, e.diff.join_order_prefix, e.diff.join_order_len});
  }
  void OnQueryQuarantined(const QueryQuarantinedEvent& e) override {
    quarantines.push_back(e.strikes);
  }
  void OnQueryRehabilitated(const QueryRehabilitatedEvent& e) override {
    rehabs.push_back(e.strikes_cleared);
  }
  using Event = std::tuple<int64_t, double, double, int, int, int, int>;
  std::vector<Event> events;
  std::vector<int> quarantines;
  std::vector<int> rehabs;
};

/// The option sets of the sharing tests: indices 0, 2 and 4 ask one
/// question, 1 and 3 another, 5 a third.
std::vector<OptimizerOptions> SharingOptions() {
  const OptimizerOptions all = OptimizerOptions::Default();
  const OptimizerOptions aggsel = OptimizerOptions::UseAggSel();
  return {all, aggsel, all, aggsel, all, OptimizerOptions::UseNoPruning()};
}

/// A session over `world` with one subscribed optimizer per option set;
/// `unshared` gives every optimizer a distinct question, so nothing shares.
struct SharingFixture {
  SharingFixture(TestWorld* world, bool unshared) {
    session = std::make_unique<ReoptSession>(&world->registry);
    const std::vector<OptimizerOptions> sets = SharingOptions();
    for (size_t i = 0; i < sets.size(); ++i) {
      const OptimizerOptions o = unshared ? DistinctOptions(sets[i], static_cast<int>(i)) : sets[i];
      opts.push_back(std::make_unique<DeclarativeOptimizer>(
          world->enumerator.get(), world->cost_model.get(), &world->registry, o));
      opts.back()->Optimize();
      subs.push_back(std::make_unique<StreamSubscriber>());
    }
    for (size_t i = 0; i < sets.size(); ++i) {
      handles.push_back(session->Register(*opts[i], subs[i].get()));
    }
  }
  std::vector<std::unique_ptr<DeclarativeOptimizer>> opts;
  std::vector<std::unique_ptr<StreamSubscriber>> subs;
  std::unique_ptr<ReoptSession> session;
  std::vector<QueryHandle> handles;  // released before the session dies
};

/// Applies the same swing to both worlds (identically built).
void Swing(TestWorld* a, TestWorld* b, int round) {
  for (TestWorld* w : {a, b}) {
    const int rel = round % w->registry.num_relations();
    w->registry.SetBaseRows(rel, w->registry.base_rows(rel) * (round % 2 == 0 ? 37.0 : 1.0 / 29));
    w->registry.SetScanCostMultiplier((round + 2) % w->registry.num_relations(),
                                      round % 3 == 0 ? 4.0 : 0.5);
  }
}

TEST(MemoSharingTest, OnePassPerDistinctMemoAndEveryHandleMatchesUnshared) {
  auto world = ChainWorld(6, 23);
  auto ref_world = ChainWorld(6, 23);
  SharingFixture shared(world.get(), /*unshared=*/false);
  SharingFixture unshared(ref_world.get(), /*unshared=*/true);
  EXPECT_EQ(shared.session->num_queries(), 6);
  EXPECT_EQ(shared.session->num_memos(), 3);
  EXPECT_EQ(unshared.session->num_memos(), 6);
  EXPECT_TRUE(shared.opts[0]->SharesStateWith(*shared.opts[4]));
  EXPECT_TRUE(shared.opts[1]->SharesStateWith(*shared.opts[3]));
  EXPECT_FALSE(shared.opts[0]->SharesStateWith(*shared.opts[1]));

  for (int round = 0; round < 8; ++round) {
    Swing(world.get(), ref_world.get(), round);
    const int64_t passes0 = shared.session->metrics().reopt_passes;
    ASSERT_GT(shared.session->Flush(), 0u);
    ASSERT_GT(unshared.session->Flush(), 0u);
    EXPECT_EQ(shared.session->metrics().reopt_passes - passes0, 3) << "round " << round;
    EXPECT_EQ(shared.session->last_flush().passes, 3);
    for (size_t i = 0; i < shared.opts.size(); ++i) {
      EXPECT_EQ(shared.opts[i]->CanonicalDumpState(), unshared.opts[i]->CanonicalDumpState())
          << "handle " << i << " round " << round;
    }
  }
  for (size_t i = 0; i < shared.opts.size(); ++i) {
    shared.opts[i]->ValidateInvariants();
    EXPECT_EQ(shared.opts[i]->CanonicalDumpState(),
              ScratchDump(*world, SharingOptions()[i]));
    EXPECT_EQ(shared.subs[i]->events, unshared.subs[i]->events) << "handle " << i;
  }
  EXPECT_GT(shared.subs[0]->events.size(), 0u) << "the swings never moved a plan";
  EXPECT_EQ(shared.session->metrics().plan_changes, unshared.session->metrics().plan_changes);
}

TEST(MemoSharingTest, ReleasedHandleKeepsAnExactPrivateCopy) {
  auto world = ChainWorld(6, 23);
  auto ref_world = ChainWorld(6, 23);
  SharingFixture shared(world.get(), /*unshared=*/false);
  SharingFixture unshared(ref_world.get(), /*unshared=*/true);
  Swing(world.get(), ref_world.get(), 0);
  shared.session->Flush();
  unshared.session->Flush();

  DeclarativeOptimizer& released = *shared.opts[0];
  const std::string dump = released.DumpState();
  const std::string canonical = released.CanonicalDumpState();
  shared.handles[0].Release();
  unshared.handles[0].Release();
  EXPECT_EQ(shared.session->num_queries(), 5);
  EXPECT_EQ(shared.session->num_memos(), 3);  // handles 2 and 4 keep the memo
  EXPECT_FALSE(released.SharesStateWith(*shared.opts[2]));
  EXPECT_TRUE(shared.opts[2]->SharesStateWith(*shared.opts[4]));
  // The private copy is exact: the raw memo dump, not just the plan.
  EXPECT_EQ(released.DumpState(), dump);
  EXPECT_EQ(released.CanonicalDumpState(), canonical);
  released.ValidateInvariants();

  // Tearing the released optimizer down leaves the session's memo alone.
  released.Invalidate();
  EXPECT_TRUE(shared.opts[2]->optimized());
  EXPECT_EQ(shared.opts[2]->CanonicalDumpState(), canonical);

  for (int round = 1; round < 6; ++round) {
    Swing(world.get(), ref_world.get(), round);
    shared.session->Flush();
    unshared.session->Flush();
    for (size_t i = 1; i < shared.opts.size(); ++i) {
      EXPECT_EQ(shared.opts[i]->CanonicalDumpState(), unshared.opts[i]->CanonicalDumpState())
          << "handle " << i << " round " << round;
      EXPECT_EQ(shared.subs[i]->events, unshared.subs[i]->events) << "handle " << i;
    }
  }
  EXPECT_FALSE(released.optimized());
  // Releasing a memo's last handle removes the memo.
  shared.handles[5].Release();
  EXPECT_EQ(shared.session->num_memos(), 2);
}

TEST(MemoSharingTest, FaultInASharedPassQuarantinesEveryHandleOnce) {
  auto world = ChainWorld();
  SharingFixture shared(world.get(), /*unshared=*/false);
  FaultInjector::Instance().set_enabled(false);
  FaultInjector::ArmSpec spec;
  spec.site = "service.pass";  // the first memo's pass: handles 0, 2 and 4
  ScopedFaultArm arm(spec);

  world->registry.SetBaseRows(1, world->registry.base_rows(1) * 64);
  FaultedFlush(*shared.session);
  EXPECT_EQ(shared.session->metrics().quarantines, 1);  // one memo, one strike
  EXPECT_EQ(shared.session->num_quarantined(), 3);
  for (size_t i : {size_t{0}, size_t{2}, size_t{4}}) {
    EXPECT_EQ(shared.handles[i].state(), QueryState::kQuarantined);
    EXPECT_FALSE(shared.opts[i]->optimized());
    EXPECT_EQ(shared.subs[i]->quarantines, std::vector<int>{1}) << "handle " << i;
  }
  for (size_t i : {size_t{1}, size_t{3}, size_t{5}}) {
    EXPECT_EQ(shared.handles[i].state(), QueryState::kHealthy);
    EXPECT_TRUE(shared.subs[i]->quarantines.empty());
    EXPECT_EQ(shared.opts[i]->CanonicalDumpState(), ScratchDump(*world, SharingOptions()[i]));
  }

  // The backoff expired and the fault is spent: one rebuild restores all
  // three handles, and each gets its rehabilitation and its plan change.
  FaultedFlush(*shared.session);
  EXPECT_EQ(shared.session->metrics().rehabilitations, 1);
  EXPECT_EQ(shared.session->num_quarantined(), 0);
  for (size_t i : {size_t{0}, size_t{2}, size_t{4}}) {
    EXPECT_EQ(shared.handles[i].state(), QueryState::kHealthy);
    EXPECT_EQ(shared.subs[i]->rehabs, std::vector<int>{1}) << "handle " << i;
    ASSERT_EQ(shared.subs[i]->events.size(), 1u) << "handle " << i;
    shared.opts[i]->ValidateInvariants();
    EXPECT_EQ(shared.opts[i]->CanonicalDumpState(), ScratchDump(*world, SharingOptions()[i]));
  }
  EXPECT_TRUE(shared.opts[0]->SharesStateWith(*shared.opts[4]));
}

TEST(MemoSharingTest, ByteBudgetCountsASharedMemoOnce) {
  auto world = ChainWorld(6, 23);
  std::vector<std::unique_ptr<DeclarativeOptimizer>> opts;
  for (int i = 0; i < 3; ++i) {
    opts.push_back(std::make_unique<DeclarativeOptimizer>(
        world->enumerator.get(), world->cost_model.get(), &world->registry));
    opts.back()->Optimize();
  }
  const size_t m = opts[0]->EstimatedMemoBytes();
  ReoptSessionOptions so;
  so.memo_byte_budget = m + m / 2;  // one memo fits, a second copy would not
  ReoptSession session(&world->registry, so);
  std::vector<QueryHandle> handles;
  for (auto& o : opts) handles.push_back(session.Register(*o));
  EXPECT_EQ(session.num_memos(), 1);
  EXPECT_EQ(session.resident_memo_bytes(), static_cast<int64_t>(opts[0]->EstimatedMemoBytes()));

  world->registry.SetBaseRows(2, world->registry.base_rows(2) * 13);
  EXPECT_GT(session.Flush(), 0u);
  EXPECT_EQ(session.metrics().evictions, 0);  // three handles, one memo: under budget
  EXPECT_EQ(session.resident_memo_bytes(), static_cast<int64_t>(opts[2]->EstimatedMemoBytes()));

  // Evicting through any handle spills the one memo for all of them.
  ASSERT_TRUE(session.EvictQuery(handles[1].id()));
  EXPECT_EQ(session.num_evicted(), 3);
  EXPECT_EQ(session.metrics().evictions, 1);
  EXPECT_EQ(session.resident_memo_bytes(), 0);
  world->registry.SetBaseRows(2, world->registry.base_rows(2) * 3);
  EXPECT_GT(session.Flush(), 0u);
  EXPECT_EQ(session.metrics().rehydrations, 1);
  for (auto& o : opts) {
    o->ValidateInvariants();
    EXPECT_EQ(o->CanonicalDumpState(), ScratchDump(*world, OptimizerOptions::Default()));
  }
}

// A duplicate registered while changes are pending must not join a memo
// that only reflects the last drain: its plan, its event baseline and its
// events stay those of an unshared registration. A duplicate registered
// right after it may join its memo, which does reflect the current values.
TEST(MemoSharingTest, DuplicateRegisteredWithChangesPendingMatchesUnshared) {
  auto world = ChainWorld(6, 23);
  auto ref_world = ChainWorld(6, 23);
  ReoptSession shared(&world->registry);
  ReoptSession unshared(&ref_world->registry);
  const OptimizerOptions all = OptimizerOptions::Default();
  std::vector<std::unique_ptr<DeclarativeOptimizer>> opts;
  std::vector<std::unique_ptr<DeclarativeOptimizer>> refs;
  std::vector<std::unique_ptr<StreamSubscriber>> subs;
  std::vector<std::unique_ptr<StreamSubscriber>> ref_subs;
  std::vector<QueryHandle> handles;
  // Registers one duplicate of `all` in each session; `optimize` runs
  // Optimize() before Register (otherwise Register decides).
  const auto add = [&](bool optimize) {
    const int k = static_cast<int>(opts.size());
    opts.push_back(std::make_unique<DeclarativeOptimizer>(
        world->enumerator.get(), world->cost_model.get(), &world->registry, all));
    refs.push_back(std::make_unique<DeclarativeOptimizer>(
        ref_world->enumerator.get(), ref_world->cost_model.get(), &ref_world->registry,
        DistinctOptions(all, k)));
    if (optimize) opts.back()->Optimize();
    refs.back()->Optimize();
    subs.push_back(std::make_unique<StreamSubscriber>());
    ref_subs.push_back(std::make_unique<StreamSubscriber>());
    handles.push_back(shared.Register(*opts.back(), subs.back().get()));
    handles.push_back(unshared.Register(*refs.back(), ref_subs.back().get()));
  };
  add(/*optimize=*/true);
  Swing(world.get(), ref_world.get(), 0);
  ASSERT_GT(shared.Flush(), 0u);
  ASSERT_GT(unshared.Flush(), 0u);
  const double drained_cost = opts[0]->BestCost();

  // Changes pending: the first memo is behind them, the new optimizers
  // are not, so neither duplicate may join it.
  Swing(world.get(), ref_world.get(), 1);
  add(/*optimize=*/true);
  add(/*optimize=*/false);
  EXPECT_EQ(shared.num_memos(), 2);
  EXPECT_FALSE(opts[1]->SharesStateWith(*opts[0]));
  EXPECT_TRUE(opts[2]->SharesStateWith(*opts[1]));  // both reflect the current values
  EXPECT_TRUE(opts[2]->optimized());
  EXPECT_NE(opts[1]->BestCost(), drained_cost) << "the swing never moved the cost";
  for (size_t i = 0; i < opts.size(); ++i) {
    EXPECT_EQ(opts[i]->BestCost(), refs[i]->BestCost()) << "handle " << i;
    EXPECT_EQ(opts[i]->CanonicalDumpState(), refs[i]->CanonicalDumpState()) << "handle " << i;
  }

  for (int round = 1; round < 6; ++round) {
    if (round > 1) Swing(world.get(), ref_world.get(), round);
    ASSERT_GT(shared.Flush(), 0u);
    ASSERT_GT(unshared.Flush(), 0u);
    EXPECT_EQ(shared.last_flush().passes, 2) << "round " << round;
    for (size_t i = 0; i < opts.size(); ++i) {
      EXPECT_EQ(opts[i]->CanonicalDumpState(), refs[i]->CanonicalDumpState())
          << "handle " << i << " round " << round;
    }
  }
  EXPECT_GT(subs[0]->events.size(), 0u) << "the swings never moved a plan";
  for (size_t i = 0; i < opts.size(); ++i) {
    opts[i]->ValidateInvariants();
    EXPECT_EQ(subs[i]->events, ref_subs[i]->events) << "handle " << i;
  }
}

// Register() optimizes an un-optimized optimizer only when it cannot share.
TEST(MemoSharingTest, RegisterOptimizesOnlyANewQuestion) {
  auto world = ChainWorld(6, 23);
  ReoptSession session(&world->registry);
  const std::vector<OptimizerOptions> sets = SharingOptions();
  std::vector<std::unique_ptr<DeclarativeOptimizer>> opts;
  std::vector<QueryHandle> handles;
  for (const OptimizerOptions& o : sets) {
    opts.push_back(std::make_unique<DeclarativeOptimizer>(
        world->enumerator.get(), world->cost_model.get(), &world->registry, o));
    handles.push_back(session.Register(*opts.back()));
  }
  EXPECT_EQ(session.num_memos(), 3);
  EXPECT_TRUE(opts[2]->SharesStateWith(*opts[0]));
  EXPECT_TRUE(opts[4]->SharesStateWith(*opts[0]));
  EXPECT_TRUE(opts[3]->SharesStateWith(*opts[1]));
  // One initial optimization per memo: the shared state counted it once.
  EXPECT_EQ(opts[0]->metrics().steps, [&] {
    DeclarativeOptimizer fresh(world->enumerator.get(), world->cost_model.get(),
                               &world->registry, sets[0]);
    fresh.Optimize();
    return fresh.metrics().steps;
  }());
  for (size_t i = 0; i < opts.size(); ++i) {
    EXPECT_EQ(opts[i]->CanonicalDumpState(), ScratchDump(*world, sets[i])) << "handle " << i;
  }
}

// Once the session is gone nobody maintains a shared memo: its optimizers
// must not stay aliased to one another.
TEST(MemoSharingTest, SessionDestructionLeavesEveryOptimizerPrivate) {
  auto world = ChainWorld(6, 23);
  std::vector<std::unique_ptr<DeclarativeOptimizer>> opts;
  for (int i = 0; i < 3; ++i) {
    opts.push_back(std::make_unique<DeclarativeOptimizer>(
        world->enumerator.get(), world->cost_model.get(), &world->registry));
    opts.back()->Optimize();
  }
  std::vector<QueryHandle> handles;  // outlive the session: they no-op
  std::string dump;
  {
    ReoptSession session(&world->registry);
    for (auto& o : opts) handles.push_back(session.Register(*o));
    ASSERT_EQ(session.num_memos(), 1);
    world->registry.SetBaseRows(2, world->registry.base_rows(2) * 13);
    ASSERT_GT(session.Flush(), 0u);
    dump = opts[0]->DumpState();
  }
  for (size_t i = 0; i < opts.size(); ++i) {
    for (size_t j = i + 1; j < opts.size(); ++j) {
      EXPECT_FALSE(opts[i]->SharesStateWith(*opts[j])) << i << " and " << j;
    }
    EXPECT_EQ(opts[i]->DumpState(), dump) << "optimizer " << i;
  }
  opts[1]->Invalidate();
  EXPECT_TRUE(opts[0]->optimized());
  EXPECT_TRUE(opts[2]->optimized());
  EXPECT_EQ(opts[2]->DumpState(), dump);
  for (QueryHandle& h : handles) EXPECT_FALSE(h.valid());
}

}  // namespace
}  // namespace iqro::testing
