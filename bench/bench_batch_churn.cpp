// Batched stat-churn coalescing vs change-at-a-time re-optimization on the
// fig8-style workload (TPC-H Q5, runtime statistics churning).
//
// A feedback stream is churny: statistics oscillate, repeat, and often net
// to zero by the time anyone would act on them. The service layer turns
// that stream into minimal fixpoint work (stats coalescer + ReoptSession
// batch flush; see docs/ARCHITECTURE.md). This bench measures the payoff:
//
//   single : every mutation is followed by its own Reoptimize() — the
//            pre-service-layer behavior (one delta fixpoint per change).
//   batched: mutations accumulate; one ReoptSession::Flush() per round
//            coalesces them (net-zero churn absorbed) and seeds a single
//            ReoptimizeBatch() fixpoint.
//
// Both modes see the identical mutation stream and must land in identical
// optimizer state every round (checked via BestCost; CanonicalDumpState at
// the end). A second section scales the same comparison to a multi-query
// session: the four fig8 pruning configurations live in ONE session and
// are re-optimized by the same flush.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/bench_util.h"
#include "core/declarative_optimizer.h"
#include "service/reopt_session.h"

namespace iqro::bench {
namespace {

// Q5 relation slots: r, n, c, o, l, s.
constexpr int kCustomer = 2;
constexpr int kOrders = 3;
constexpr int kLineitem = 4;
constexpr int kSupplier = 5;

/// One round = 8 raw mutations, half of which net to zero (oscillations and
/// an exact no-op) — the shape the stat-churn fuzzer generates and a
/// runtime feedback loop produces. Even rounds perturb, odd rounds restore,
/// so the workload is stationary across rounds.
struct ChurnScript {
  double c_rows, l_sel, e0_sel;  // frozen baselines

  explicit ChurnScript(const StatsRegistry& reg)
      : c_rows(reg.base_rows(kCustomer)),
        l_sel(reg.local_selectivity(kLineitem)),
        e0_sel(reg.join_selectivity(0)) {}

  void Apply(StatsRegistry& reg, int round, const std::function<void()>& after_each) const {
    const bool perturb = (round % 2) == 0;
    const auto step = [&](auto&& fn) {
      fn();
      after_each();
    };
    step([&] { reg.SetScanCostMultiplier(kOrders, perturb ? 4.0 : 0.25); });
    step([&] { reg.SetScanCostMultiplier(kOrders, 1.0); });  // oscillates back
    step([&] { reg.SetBaseRows(kCustomer, perturb ? c_rows * 1.5 : c_rows); });
    step([&] { reg.SetLocalSelectivity(kLineitem, perturb ? 0.8 * l_sel : 0.6 * l_sel); });
    step([&] { reg.SetLocalSelectivity(kLineitem, l_sel); });  // oscillates back
    step([&] { reg.SetScanCostMultiplier(kSupplier, perturb ? 2.0 : 1.0); });
    step([&] { reg.SetJoinSelectivity(0, perturb ? e0_sel * 1.25 : e0_sel); });
    // Exact no-op: repeats the current value (swallowed pre-recording).
    step([&] { reg.SetBaseRows(kCustomer, reg.base_rows(kCustomer)); });
  }
};

constexpr int kRounds = 28;
constexpr int kReps = 5;

double MedianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void Run() {
  auto fixture = MakeTpchFixture(0.01);

  // ---- single-query comparison --------------------------------------------
  double single_ms = 0, batched_ms = 0;
  int64_t single_reopts = 0, batched_flushes = 0;
  int64_t single_enqueued = 0, batched_enqueued = 0;
  std::string single_dump, batched_dump;
  CoalesceStats coalesce;
  ReoptSessionMetrics session_metrics;
  {
    std::vector<double> single_times, batched_times;
    for (int rep = 0; rep < kReps; ++rep) {
      // Change-at-a-time: Reoptimize() after every mutation.
      auto ctx_s = MakeContext(*fixture, "Q5");
      DeclarativeOptimizer opt_s(ctx_s->enumerator.get(), ctx_s->cost_model.get(),
                                 &ctx_s->registry);
      opt_s.Optimize();
      ChurnScript script_s(ctx_s->registry);
      const int64_t enq_s0 = opt_s.metrics().tasks_enqueued;
      int64_t reopts = 0;
      single_times.push_back(OnceMs([&] {
        for (int r = 0; r < kRounds; ++r) {
          script_s.Apply(ctx_s->registry, r, [&] {
            opt_s.Reoptimize();
            ++reopts;
          });
        }
      }));
      // Batched: mutations accumulate, one coalesced flush per round.
      auto ctx_b = MakeContext(*fixture, "Q5");
      DeclarativeOptimizer opt_b(ctx_b->enumerator.get(), ctx_b->cost_model.get(),
                                 &ctx_b->registry);
      opt_b.Optimize();
      ChurnScript script_b(ctx_b->registry);
      ReoptSession session(&ctx_b->registry);
      QueryHandle handle = session.Register(opt_b);
      const int64_t enq_b0 = opt_b.metrics().tasks_enqueued;
      batched_times.push_back(OnceMs([&] {
        for (int r = 0; r < kRounds; ++r) {
          script_b.Apply(ctx_b->registry, r, [] {});
          session.Flush();
        }
      }));
      if (rep == kReps - 1) {
        single_reopts = reopts;
        batched_flushes = session.metrics().flushes + session.metrics().empty_flushes;
        single_enqueued = opt_s.metrics().tasks_enqueued - enq_s0;
        batched_enqueued = opt_b.metrics().tasks_enqueued - enq_b0;
        single_dump = opt_s.CanonicalDumpState();
        batched_dump = opt_b.CanonicalDumpState();
        coalesce = ctx_b->registry.coalesce_stats();
        session_metrics = session.metrics();
      }
    }
    single_ms = MedianOf(single_times);
    batched_ms = MedianOf(batched_times);
  }
  if (single_dump != batched_dump) {
    std::fprintf(stderr, "FATAL: batched flush diverged from change-at-a-time state\n");
    std::exit(1);
  }
  const double speedup = single_ms / batched_ms;

  TablePrinter mode_table("Batched coalesced churn vs change-at-a-time (Q5, per-rep totals)",
                          {"mode", "total_ms", "fixpoints", "tasks_enqueued"});
  mode_table.AddRow({"single (reopt per change)", Num(single_ms, 3),
                     std::to_string(single_reopts), std::to_string(single_enqueued)});
  mode_table.AddRow({"batched (session flush)", Num(batched_ms, 3),
                     std::to_string(batched_flushes), std::to_string(batched_enqueued)});
  mode_table.AddRow({"speedup", Num(speedup, 2) + "x", "", ""});
  mode_table.Print();

  TablePrinter coalesce_table("Coalescer effectiveness (batched mode, last rep)",
                              {"raw mutations", "collapsed", "net-zero absorbed",
                               "scope-merged", "changes emitted"});
  coalesce_table.AddRow({std::to_string(coalesce.recorded), std::to_string(coalesce.collapsed),
                         std::to_string(coalesce.net_zero),
                         std::to_string(coalesce.scope_merged),
                         std::to_string(coalesce.emitted)});
  coalesce_table.Print();

  // ---- multi-query session ------------------------------------------------
  // Four live queries (the fig8 pruning configurations) watch one registry.
  // Sequential baseline: each of the four drains and re-optimizes per
  // change (4 registries, 4x the single-mode work). Session: one flush
  // re-optimizes all four off one coalesced drain.
  const OptimizerOptions configs[] = {
      OptimizerOptions::UseAggSel(),
      OptimizerOptions::UseAggSelRefCount(),
      OptimizerOptions::UseAggSelBounding(),
      OptimizerOptions::Default(),
  };
  double multi_seq_ms = 0, multi_batch_ms = 0;
  int64_t multi_passes = 0;
  int64_t multi_seq_reopts = 0;
  {
    std::vector<double> seq_times, batch_times;
    for (int rep = 0; rep < kReps; ++rep) {
      std::vector<std::unique_ptr<QueryContext>> ctxs;
      std::vector<std::unique_ptr<DeclarativeOptimizer>> opts;
      for (const OptimizerOptions& o : configs) {
        ctxs.push_back(MakeContext(*fixture, "Q5"));
        opts.push_back(std::make_unique<DeclarativeOptimizer>(
            ctxs.back()->enumerator.get(), ctxs.back()->cost_model.get(),
            &ctxs.back()->registry, o));
        opts.back()->Optimize();
      }
      std::vector<ChurnScript> scripts;
      for (auto& c : ctxs) scripts.emplace_back(c->registry);
      int64_t seq_reopts = 0;
      seq_times.push_back(OnceMs([&] {
        for (int r = 0; r < kRounds; ++r) {
          for (size_t q = 0; q < opts.size(); ++q) {
            scripts[q].Apply(ctxs[q]->registry, r, [&] {
              opts[q]->Reoptimize();
              ++seq_reopts;
            });
          }
        }
      }));

      auto ctx = MakeContext(*fixture, "Q5");
      std::vector<std::unique_ptr<DeclarativeOptimizer>> qopts;
      for (const OptimizerOptions& o : configs) {
        qopts.push_back(std::make_unique<DeclarativeOptimizer>(
            ctx->enumerator.get(), ctx->cost_model.get(), &ctx->registry, o));
        qopts.back()->Optimize();
      }
      ReoptSession session(&ctx->registry);
      std::vector<QueryHandle> handles;
      for (auto& q : qopts) handles.push_back(session.Register(*q));
      ChurnScript script(ctx->registry);
      batch_times.push_back(OnceMs([&] {
        for (int r = 0; r < kRounds; ++r) {
          script.Apply(ctx->registry, r, [] {});
          session.Flush();
        }
      }));
      if (rep == kReps - 1) {
        multi_passes = session.metrics().reopt_passes;
        multi_seq_reopts = seq_reopts;
      }
    }
    multi_seq_ms = MedianOf(seq_times);
    multi_batch_ms = MedianOf(batch_times);
  }
  const double multi_speedup = multi_seq_ms / multi_batch_ms;

  // ---- flush-level metrics export (untimed instrumentation run) -----------
  // One more pass over the same churn with a JsonMetricsExporter and a
  // counting subscriber attached: every dispatched flush lands as a
  // FlushReport, written out as BENCH_bench_batch_churn_flushes.json so the
  // flush-level counters (and the plan-change stream) join the perf
  // trajectory next to this bench's own JSON. Kept out of the timed loops:
  // the no-exporter numbers above stay comparable across PRs.
  JsonMetricsExporter exporter;
  int64_t exported_plan_changes = 0;
  {
    class CountingSubscriber final : public PlanSubscriber {
     public:
      explicit CountingSubscriber(int64_t* n) : n_(n) {}
      void OnPlanChange(const PlanChangeEvent&) override { ++*n_; }

     private:
      int64_t* n_;
    } counting(&exported_plan_changes);
    auto ctx = MakeContext(*fixture, "Q5");
    DeclarativeOptimizer opt(ctx->enumerator.get(), ctx->cost_model.get(), &ctx->registry);
    opt.Optimize();
    ReoptSessionOptions so;
    so.metrics_exporter = &exporter;
    ReoptSession session(&ctx->registry, so);
    QueryHandle handle = session.Register(opt, &counting);
    ChurnScript script(ctx->registry);
    for (int r = 0; r < kRounds; ++r) {
      script.Apply(ctx->registry, r, [] {});
      session.Flush();
    }
  }
  exporter.WriteBenchReport("bench_batch_churn_flushes");

  // ---- sparse-scope axis: seeding cost vs memo size -----------------------
  // Each round mutates ONE scan-cost multiplier (singleton scope) and
  // flushes a 4-query session. The scope index turns seeding into an
  // exact-key probe, so eps_scanned — candidates the seeder examined —
  // should track the handful of leaf EPs actually affected, decoupled from
  // the thousands of enumerated EPs across the registered memos. The ratio
  // eps_scanned / eps_seeded lands in the JSON; CI asserts it stays <= 2.
  int64_t sparse_eps_scanned = 0, sparse_eps_seeded = 0, sparse_memo_eps = 0;
  constexpr int kSparseRounds = 2 * kRounds;
  {
    auto ctx = MakeContext(*fixture, "Q5");
    std::vector<std::unique_ptr<DeclarativeOptimizer>> qopts;
    for (const OptimizerOptions& o : configs) {
      qopts.push_back(std::make_unique<DeclarativeOptimizer>(
          ctx->enumerator.get(), ctx->cost_model.get(), &ctx->registry, o));
      qopts.back()->Optimize();
      sparse_memo_eps += qopts.back()->metrics().eps_enumerated;
    }
    ReoptSession session(&ctx->registry);
    std::vector<QueryHandle> handles;
    for (auto& q : qopts) handles.push_back(session.Register(*q));
    constexpr int kTargets[] = {kOrders, kLineitem, kSupplier, kCustomer};
    for (int r = 0; r < kSparseRounds; ++r) {
      ctx->registry.SetScanCostMultiplier(kTargets[r % 4], (r % 2) == 0 ? 3.0 : 1.0);
      if (session.Flush() > 0) {
        sparse_eps_scanned += session.last_flush().eps_scanned;
        sparse_eps_seeded += session.last_flush().eps_seeded;
      }
    }
    for (auto& q : qopts) q->ValidateInvariants();
  }
  const double sparse_scan_ratio =
      sparse_eps_seeded > 0
          ? static_cast<double>(sparse_eps_scanned) / static_cast<double>(sparse_eps_seeded)
          : 0.0;

  TablePrinter sparse_table(
      "Sparse-scope seeding: singleton change per flush, 4-query session",
      {"rounds", "memo EPs (4 queries)", "eps_scanned", "eps_seeded", "scanned/seeded"});
  sparse_table.AddRow({std::to_string(kSparseRounds), std::to_string(sparse_memo_eps),
                       std::to_string(sparse_eps_scanned), std::to_string(sparse_eps_seeded),
                       Num(sparse_scan_ratio, 2)});
  sparse_table.Print();

  TablePrinter multi_table(
      "Multi-query session: 4 configs, one registry, one flush per round",
      {"mode", "total_ms", "reopt passes"});
  multi_table.AddRow({"4x independent (reopt per change)", Num(multi_seq_ms, 3),
                      std::to_string(multi_seq_reopts)});
  multi_table.AddRow({"one session (batched flush)", Num(multi_batch_ms, 3),
                      std::to_string(multi_passes)});
  multi_table.AddRow({"speedup", Num(multi_speedup, 2) + "x", ""});
  multi_table.Print();

  JsonObj coalesce_json;
  coalesce_json.Put("recorded", coalesce.recorded)
      .Put("collapsed", coalesce.collapsed)
      .Put("net_zero", coalesce.net_zero)
      .Put("scope_merged", coalesce.scope_merged)
      .Put("emitted", coalesce.emitted);
  JsonObj metrics;
  metrics.Put("rounds", kRounds)
      .Put("mutations_per_round", 8)
      .Put("single_total_ms", single_ms)
      .Put("batched_total_ms", batched_ms)
      .Put("speedup", speedup)
      .Put("single_reopts", single_reopts)
      .Put("single_tasks_enqueued", single_enqueued)
      .Put("batched_tasks_enqueued", batched_enqueued)
      .Put("multiq_sequential_ms", multi_seq_ms)
      .Put("multiq_batched_ms", multi_batch_ms)
      .Put("multiq_speedup", multi_speedup)
      .Put("sparse_rounds", kSparseRounds)
      .Put("sparse_memo_eps", sparse_memo_eps)
      .Put("sparse_eps_scanned", sparse_eps_scanned)
      .Put("sparse_eps_seeded", sparse_eps_seeded)
      .Put("sparse_scan_ratio", sparse_scan_ratio)
      .Put("flush_reports_exported", exporter.num_reports())
      .Put("plan_changes_observed", exported_plan_changes)
      .Put("coalesce", coalesce_json);
  JsonObj root = BenchRoot("bench_batch_churn", metrics,
                           {&mode_table, &coalesce_table, &sparse_table, &multi_table});
  WriteBenchJson("bench_batch_churn", root);

  std::printf(
      "\nPaper shape: deltas are cheapest when updates are batched before the\n"
      "fixpoint runs (§4). Coalescing absorbs the oscillating half of the churn\n"
      "outright, and the surviving changes share one delta pass instead of one\n"
      "each; a multi-query session amortizes the drain across every registered\n"
      "plan.\n");
}

}  // namespace
}  // namespace iqro::bench

int main() {
  iqro::bench::Run();
  return 0;
}
