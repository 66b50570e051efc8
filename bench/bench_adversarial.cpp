// bench_adversarial: the adversarial scenario classes (src/testing/
// scenario_class.h) as a tracked workload. Each class gets one JSON block
// in BENCH_bench_adversarial.json so regressions in the pathological
// corners — plan-flip churn, scope-overlap summary sharing, eviction
// storms, sustained stream churn — show up as a diff, not an anecdote:
//
//   * plan_flip:     oracle-probed churn; the flip *rate* is the guarded
//                    number (CI asserts >= 0.8 — a generator regression
//                    that stops flipping plans shows up here first).
//   * scope_overlap: 16..64 queries over a 6-relation alphabet; reports
//                    shared-summary-cache hits and eps scanned.
//   * handle_storm:  register/release/evict churn under a ~2-memo budget;
//                    reports evictions/rehydrations and the byte gauge.
//   * stream:        SegTollS over the linear-road generator, windows fed
//                    through FeedWindowCardinalities into a live
//                    ReoptSession under a real-clock DeadlinePolicy that
//                    the generator loop drives with Poll() every 1 ms;
//                    reports p50/p95/p99 flush latency from the
//                    exporter's per-flush flush_ms.
//
// Every class still runs under the full differential contract
// (RunClassScenario), so a failure here is an oracle divergence, not just
// a slow run — the bench exits non-zero.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/bench_util.h"
#include "core/declarative_optimizer.h"
#include "cost/cost_model.h"
#include "query/bind_stats.h"
#include "service/flush_policy.h"
#include "service/metrics_exporter.h"
#include "service/reopt_session.h"
#include "stats/summary.h"
#include "stream/linear_road.h"
#include "stream/segtoll.h"
#include "stream/window.h"
#include "testing/scenario_class.h"
#include "workload/context.h"

namespace iqro::bench {
namespace {

using testing::ClassRunStats;
using testing::DiffOptions;
using testing::DiffResult;
using testing::GenerateClassScenario;
using testing::RunClassScenario;
using testing::ScenarioClass;
using testing::ScenarioClassName;

}  // namespace
bool g_adversarial_failed = false;
namespace {

/// Runs `runs` scenarios of `cls` (seeds base..base+runs-1) under the full
/// oracle and accumulates the class counters. Marks the bench failed on
/// any divergence.
ClassRunStats RunClass(ScenarioClass cls, uint64_t base, int runs, double* wall_ms) {
  ClassRunStats acc;
  DiffOptions opt;
  opt.batch_steps = 1;  // session mode; storms floor this themselves
  *wall_ms = OnceMs([&] {
    for (int i = 0; i < runs; ++i) {
      const uint64_t seed = base + static_cast<uint64_t>(i);
      testing::Scenario sc = GenerateClassScenario(seed, cls);
      DiffResult res = RunClassScenario(sc, cls, opt, &acc);
      if (!res.ok) {
        std::fprintf(stderr, "FAIL %s seed=%llu: %s\n", ScenarioClassName(cls),
                     static_cast<unsigned long long>(seed), res.message.c_str());
        g_adversarial_failed = true;
      }
    }
  });
  return acc;
}

JsonObj StatsJson(const ClassRunStats& s) {
  JsonObj o;
  o.Put("flushes", s.flushes)
      .Put("plan_flips", s.plan_flips)
      .Put("plan_changes", s.plan_changes)
      .Put("queries", s.queries)
      .Put("registrations", s.registrations)
      .Put("releases", s.releases)
      .Put("evictions", s.evictions)
      .Put("rehydrations", s.rehydrations)
      .Put("eps_seeded", s.eps_seeded)
      .Put("eps_scanned", s.eps_scanned)
      .Put("summary_hits", s.summary_hits)
      .Put("summary_misses", s.summary_misses)
      .Put("max_resident_bytes", s.max_resident_bytes);
  return o;
}

/// Counts delivered plan-change events — without a subscriber the session
/// diffs winner closures but delivers nothing, and the stream block would
/// report zero churn regardless of how often the hot spot moved.
class CountingSubscriber final : public PlanSubscriber {
 public:
  void OnPlanChange(const PlanChangeEvent& event) override {
    (void)event;
    ++plan_changes_;
  }
  int64_t plan_changes() const { return plan_changes_; }

 private:
  int64_t plan_changes_ = 0;
};

/// Calls session.Poll() every 1 ms for `d` — the driver loop that lets a
/// deadline expire without a mutation arriving.
void PollFor(ReoptSession& session, std::chrono::milliseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
    session.Poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// The sustained stream-churn driver: linear-road seconds through SegTollS
/// windows, cardinalities fed to a frozen registry, flushes fired by the
/// generator loop's Poll() calls under a real-clock deadline. Returns the
/// stream metrics block.
JsonObj RunStreamChurn(TablePrinter* table) {
  constexpr int kSeconds = 60;
  constexpr auto kDeadline = std::chrono::milliseconds(5);

  auto setup = MakeSegTollS();
  StatsRegistry registry;
  BindStats(setup->query, CollectCatalogStats(setup->catalog), &registry);
  registry.Freeze();

  JoinGraph graph(setup->query);
  PropTable props;
  SummaryCalculator summaries(&registry);
  CostModel cost_model(&summaries);
  PlanEnumerator enumerator(&setup->query, &graph, &setup->catalog, &props);
  DeclarativeOptimizer optimizer(&enumerator, &cost_model, &registry);
  optimizer.Optimize();

  JsonMetricsExporter exporter;
  ReoptSessionOptions so;
  so.flush_policy = std::make_shared<DeadlinePolicy>(kDeadline);
  so.metrics_exporter = &exporter;
  ReoptSession session(&registry, so);
  CountingSubscriber subscriber;
  QueryHandle handle = session.Register(optimizer, &subscriber);

  LinearRoadGenerator gen(LinearRoadConfig{});
  int64_t events = 0;
  int64_t mutations = 0;
  const double wall_ms = OnceMs([&] {
    for (int64_t t = 0; t < kSeconds; ++t) {
      std::vector<CarLocEvent> batch = gen.Second(t);
      events += static_cast<int64_t>(batch.size());
      setup->Advance(batch, t);
      mutations += FeedWindowCardinalities(setup->windows, &registry);
      // Give the deadline a chance to expire between slices: the polls,
      // not the mutations, are what flush.
      PollFor(session, kDeadline + std::chrono::milliseconds(5));
    }
  });
  // Drain the tail: the last slice's mutations are still inside their
  // deadline window when the loop exits.
  PollFor(session, kDeadline * 4);
  session.Flush();

  std::vector<double> flush_ms;
  for (const FlushReport& r : exporter.reports()) flush_ms.push_back(r.flush_ms);
  const auto& m = session.metrics();
  const double p50 = Percentile(flush_ms, 0.50);
  const double p95 = Percentile(flush_ms, 0.95);
  const double p99 = Percentile(flush_ms, 0.99);

  if (m.flushes <= 0 || flush_ms.empty()) {
    std::fprintf(stderr, "FAIL stream: no flushes dispatched (polls dead?)\n");
    g_adversarial_failed = true;
  }
  if (mutations <= 0) {
    std::fprintf(stderr, "FAIL stream: windows produced no cardinality churn\n");
    g_adversarial_failed = true;
  }

  table->AddRow({"stream", Num(wall_ms, 1), std::to_string(m.flushes),
                 std::to_string(m.plan_changes), Num(p99, 3) + " p99ms"});

  JsonObj o;
  o.Put("seconds", kSeconds)
      .Put("events", events)
      .Put("window_mutations", mutations)
      .Put("deadline_ms", static_cast<int64_t>(kDeadline.count()))
      .Put("flushes", m.flushes)
      .Put("empty_flushes", m.empty_flushes)
      .Put("plan_changes", m.plan_changes)
      .Put("eps_seeded", m.eps_seeded)
      .Put("p50_flush_ms", p50)
      .Put("p95_flush_ms", p95)
      .Put("p99_flush_ms", p99)
      .Put("wall_ms", wall_ms);
  return o;
}

void Run() {
  TablePrinter table("Adversarial scenario classes",
                     {"class", "wall ms", "flushes", "plan events", "signature"});

  // ---- plan-flip maximizer: the flip rate is the guarded number ----
  double flip_ms = 0;
  ClassRunStats flip = RunClass(ScenarioClass::kPlanFlip, 46000, 8, &flip_ms);
  const double flip_rate =
      flip.flushes > 0 ? static_cast<double>(flip.plan_flips) / static_cast<double>(flip.flushes)
                       : 0.0;
  if (flip_rate < 0.8) {
    std::fprintf(stderr, "FAIL plan_flip: rate %.3f < 0.8 (%lld/%lld)\n", flip_rate,
                 static_cast<long long>(flip.plan_flips), static_cast<long long>(flip.flushes));
    g_adversarial_failed = true;
  }
  table.AddRow({"plan_flip", Num(flip_ms, 1), std::to_string(flip.flushes),
                std::to_string(flip.plan_flips), Num(flip_rate, 3) + " flip rate"});

  // ---- scope-overlap storm: summary sharing under a dense alphabet ----
  double scope_ms = 0;
  ClassRunStats scope = RunClass(ScenarioClass::kScopeOverlap, 47000, 6, &scope_ms);
  if (scope.summary_hits <= 0) {
    std::fprintf(stderr, "FAIL scope_overlap: shared summary cache never hit\n");
    g_adversarial_failed = true;
  }
  table.AddRow({"scope_overlap", Num(scope_ms, 1), std::to_string(scope.flushes),
                std::to_string(scope.plan_changes),
                std::to_string(scope.summary_hits) + " cache hits"});

  // ---- handle storm: eviction pressure under a ~2-memo budget ----
  double storm_ms = 0;
  ClassRunStats storm = RunClass(ScenarioClass::kHandleStorm, 48000, 8, &storm_ms);
  if (storm.evictions <= 0 || storm.rehydrations <= 0) {
    std::fprintf(stderr, "FAIL handle_storm: budget never forced eviction churn\n");
    g_adversarial_failed = true;
  }
  table.AddRow({"handle_storm", Num(storm_ms, 1), std::to_string(storm.flushes),
                std::to_string(storm.plan_changes),
                std::to_string(storm.evictions) + " evictions"});

  // ---- sustained stream churn ----
  JsonObj stream = RunStreamChurn(&table);

  table.Print();

  JsonObj plan_flip_json = StatsJson(flip);
  plan_flip_json.Put("scenarios", 8).Put("plan_flip_rate", flip_rate).Put("wall_ms", flip_ms);
  JsonObj scope_json = StatsJson(scope);
  scope_json.Put("scenarios", 6).Put("wall_ms", scope_ms);
  JsonObj storm_json = StatsJson(storm);
  storm_json.Put("scenarios", 8).Put("wall_ms", storm_ms);

  JsonObj metrics;
  metrics.Put("plan_flip", plan_flip_json)
      .Put("scope_overlap", scope_json)
      .Put("handle_storm", storm_json)
      .Put("stream", stream);
  JsonObj root = BenchRoot("bench_adversarial", metrics, {&table});
  WriteBenchJson("bench_adversarial", root);

  std::printf(
      "\nEvery class ran under the full differential contract: incremental\n"
      "re-optimization stayed byte-identical to from-scratch even while the\n"
      "workload was built to maximize plan churn, cache contention, eviction\n"
      "pressure, or window-slide rates (§5.4's adversarial corners).\n");
}

}  // namespace
}  // namespace iqro::bench

int main() {
  iqro::bench::Run();
  return iqro::bench::g_adversarial_failed ? 1 : 0;
}
