#include "testing/scenario_class.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baseline/systemr.h"
#include "baseline/volcano.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/declarative_optimizer.h"
#include "cost/cost_model.h"
#include "service/reopt_session.h"
#include "stats/summary.h"

namespace iqro::testing {

namespace {

bool CostsAgree(double a, double b, double rel_tol) {
  if (std::isinf(a) || std::isinf(b)) return a == b;
  return std::abs(a - b) <= rel_tol * std::max({1.0, std::abs(a), std::abs(b)});
}

/// From-scratch plan shape under a scenario's full churn prefix: build a
/// fresh world, replay every recorded mutation, optimize. The probing
/// primitive of the plan-flip generator — and deliberately the exact code
/// path the differential oracle trusts, so "this step flips the plan" means
/// the same thing at generation time and at check time.
std::unique_ptr<PlanTree> ShapeAfterChurn(const Scenario& sc) {
  auto world = BuildWorld(sc.catalog, sc.query);
  ApplyChurnPrefix(&world->registry, sc, sc.churn.size());
  DeclarativeOptimizer opt(world->enumerator.get(), world->cost_model.get(), &world->registry,
                           sc.options);
  opt.Optimize();
  return opt.GetBestPlan();
}

/// Plan-flip maximizer: a small synthetic query whose churn is constructed
/// step by step against the oracle. Per step, up to kProbes one-step
/// candidates are drawn from the regular churn generator (high swing, no
/// no-ops) and the first whose from-scratch plan shape differs from the
/// accepted prefix's is kept; when none flips, the last candidate is kept
/// anyway (generation always terminates, and a sub-100% flip rate is fine —
/// the bench asserts the aggregate). The result is plain Scenario data:
/// replay, shrinking and ScenarioToString work unchanged.
Scenario GeneratePlanFlipScenario(uint64_t seed, const GeneratorKnobs& knobs) {
  Scenario sc;
  sc.seed = seed;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
  QueryGenOptions q = knobs.query;
  q.min_relations = std::max(q.min_relations, 3);
  q.max_relations = std::min(q.max_relations, 5);
  q.max_dense_relations = std::min(q.max_dense_relations, 4);
  q.p_window = 0;  // keeps each probe optimization cheap
  GenerateCatalogAndQuery(q, /*use_tpch=*/false, rng, &sc.catalog, &sc.query);
  const auto& sets = NamedOptionSets();
  const auto& [name, opts] = sets[rng.NextBelow(sets.size())];
  sc.options_name = name;
  sc.options = opts;

  // Churn candidates are drawn against the registry state of the accepted
  // prefix, so each step's magnitudes are relative to where the plan
  // actually sits — a flip found at step k stays a flip when replayed.
  const auto prefix_world = BuildWorld(sc.catalog, sc.query);
  const JoinGraph& graph = *prefix_world->graph;
  StatsRegistry& prefix_registry = prefix_world->registry;

  ChurnGenOptions cg = knobs.churn;
  cg.min_steps = 1;
  cg.max_steps = 1;
  cg.max_mutations_per_step = 2;
  cg.p_noop = 0;
  cg.p_revert = 0.1;
  cg.max_log2_swing = std::max(knobs.churn.max_log2_swing, 6.0);

  auto cur_shape = ShapeAfterChurn(sc);
  const int steps = 4 + static_cast<int>(rng.NextBelow(3));
  constexpr int kProbes = 14;
  for (int s = 0; s < steps; ++s) {
    ChurnStep accepted;
    std::unique_ptr<PlanTree> flipped_shape;
    for (int p = 0; p < kProbes; ++p) {
      // Escalate: early probes draw gentle candidates (realistic drift);
      // once those fail to flip, later probes swing harder and mutate more
      // stats at once until something crosses a plan boundary.
      ChurnGenOptions probe_cg = cg;
      probe_cg.max_log2_swing = cg.max_log2_swing + static_cast<double>(p);
      probe_cg.max_mutations_per_step = p < 6 ? 2 : 3;
      std::vector<ChurnStep> cand = GenerateChurn(probe_cg, sc.query, graph, prefix_registry, rng);
      if (cand.empty() || cand[0].mutations.empty()) continue;
      accepted = cand[0];
      Scenario probe = sc;
      probe.churn.push_back(cand[0]);
      auto shape = ShapeAfterChurn(probe);
      if (!shape->SameShape(*cur_shape)) {
        flipped_shape = std::move(shape);
        break;
      }
    }
    if (accepted.mutations.empty()) break;
    sc.churn.push_back(accepted);
    for (const StatMutation& m : accepted.mutations) ApplyMutation(&prefix_registry, m);
    // A non-flipping fallback was probed too: its shape equals cur_shape.
    if (flipped_shape != nullptr) cur_shape = std::move(flipped_shape);
  }
  return sc;
}

// ---------------------------------------------------------------------------
// Storm runner: kScopeOverlap and kHandleStorm.
// ---------------------------------------------------------------------------

/// One delivered event, reduced to what the storm oracle compares: which
/// query fired, in what order. (Cost/diff exactness at 2-query scale is
/// RunScenario's notification oracle; the storm asserts exactness-and-order
/// at 16..64-query scale, where the interesting failure is a dropped,
/// duplicated or misordered event.)
class TagRecordingSubscriber final : public PlanSubscriber {
 public:
  TagRecordingSubscriber(int tag, std::vector<int>* out) : tag_(tag), out_(out) {}
  void OnPlanChange(const PlanChangeEvent&) override { out_->push_back(tag_); }

 private:
  int tag_;
  std::vector<int>* out_;
};

/// One registered query of a storm, in both worlds. Handles are declared
/// after the optimizers so unregistration runs first on destruction.
/// Each query owns an INDEPENDENT SummaryCalculator + CostModel pair (the
/// world's shared calculator would serve every peer out of its local cache
/// and the session's shared summary store — the contention surface the
/// storms exist to stress — would never see a lookup).
struct StormQuery {
  int tag = 0;
  size_t set_idx = 0;  // NamedOptionSets() index
  std::unique_ptr<SummaryCalculator> summaries;
  std::unique_ptr<CostModel> cost_model;
  std::unique_ptr<SummaryCalculator> mirror_summaries;
  std::unique_ptr<CostModel> mirror_cost_model;
  std::unique_ptr<DeclarativeOptimizer> opt;
  std::unique_ptr<DeclarativeOptimizer> mirror_opt;
  std::unique_ptr<TagRecordingSubscriber> sub;
  std::unique_ptr<TagRecordingSubscriber> mirror_sub;
  QueryHandle handle;
  QueryHandle mirror_handle;
  std::string prev_dump;                 // notification-exactness baseline
  std::unique_ptr<PlanTree> prev_shape;  // plan-flip counter baseline
};

/// The storm contract, per flush boundary:
///  * oracle: ONE fresh from-scratch optimizer per distinct option set
///    among the live queries (BestCost within tolerance + byte-identical
///    CanonicalDumpState for every query of that set), System-R + Volcano
///    ground truth (BestCost is option-set invariant), ValidateInvariants
///    on every live optimizer;
///  * mirror: an unbudgeted twin session executes the identical
///    seed-derived register/release schedule and identical mutations; every
///    live pair must be byte-identical;
///  * notifications: for every live query, an event fired iff its dump
///    changed, in registration order, with the mirror's stream identical.
/// kHandleStorm additionally rolls register/release/evict actions at every
/// boundary under a ~2-memo byte budget (the mirror never evicts) and holds
/// resident_memo_bytes to the exact sum over healthy live memos after a
/// rehydrate-all.
DiffResult RunStormScenario(const Scenario& sc, ScenarioClass cls, const DiffOptions& options,
                            ClassRunStats* stats) {
  DiffResult result;
  ClassRunStats acc;
  const auto& sets = NamedOptionSets();
  auto world = BuildWorld(sc.catalog, sc.query);
  auto mirror_world = BuildWorld(sc.catalog, sc.query);
  Rng storm_rng(sc.seed ^ (cls == ScenarioClass::kHandleStorm ? 0x57A6F00Dull : 0x0E7A10ABull));

  auto fail = [&](int step, std::string msg) {
    result.ok = false;
    result.fail_step = step;
    result.message = StrFormat("[%s storm] ", ScenarioClassName(cls)) + std::move(msg);
    if (stats != nullptr) stats->Accumulate(acc);
    return result;
  };

  // kHandleStorm sizes its budget off one settled memo: room for roughly
  // two residents, so a three-query session is already over budget and
  // every flush's enforcement has victims to pick.
  size_t memo_budget = 0;
  if (cls == ScenarioClass::kHandleStorm) {
    DeclarativeOptimizer probe(world->enumerator.get(), world->cost_model.get(),
                               &world->registry, sets[0].second);
    probe.Optimize();
    memo_budget = std::max<size_t>(1, 2 * probe.EstimatedMemoBytes());
  }

  ReoptSessionOptions popts;
  popts.memo_byte_budget = memo_budget;
  auto session = std::make_unique<ReoptSession>(&world->registry, popts);
  auto mirror_session = std::make_unique<ReoptSession>(&mirror_world->registry);

  std::vector<int> events;
  std::vector<int> mirror_events;
  std::vector<std::unique_ptr<StormQuery>> live;
  int next_tag = 0;

  auto register_query = [&](size_t set_idx) {
    auto q = std::make_unique<StormQuery>();
    q->tag = next_tag++;
    q->set_idx = set_idx;
    q->summaries = std::make_unique<SummaryCalculator>(&world->registry);
    q->cost_model = std::make_unique<CostModel>(q->summaries.get());
    q->mirror_summaries = std::make_unique<SummaryCalculator>(&mirror_world->registry);
    q->mirror_cost_model = std::make_unique<CostModel>(q->mirror_summaries.get());
    q->opt = std::make_unique<DeclarativeOptimizer>(world->enumerator.get(), q->cost_model.get(),
                                                    &world->registry, sets[set_idx].second);
    q->mirror_opt = std::make_unique<DeclarativeOptimizer>(
        mirror_world->enumerator.get(), q->mirror_cost_model.get(), &mirror_world->registry,
        sets[set_idx].second);
    q->opt->Optimize();
    q->mirror_opt->Optimize();
    q->sub = std::make_unique<TagRecordingSubscriber>(q->tag, &events);
    q->mirror_sub = std::make_unique<TagRecordingSubscriber>(q->tag, &mirror_events);
    q->handle = session->Register(*q->opt, q->sub.get());
    q->mirror_handle = mirror_session->Register(*q->mirror_opt, q->mirror_sub.get());
    q->prev_dump = q->opt->CanonicalDumpState();
    q->prev_shape = q->opt->GetBestPlan();
    ++acc.registrations;
    live.push_back(std::move(q));
  };

  const size_t initial_queries = cls == ScenarioClass::kScopeOverlap
                                     ? 16 + 8 * storm_rng.NextBelow(7)  // 16..64
                                     : 4;
  const size_t max_live = cls == ScenarioClass::kScopeOverlap ? initial_queries : 10;
  for (size_t i = 0; i < initial_queries; ++i) register_query(i % sets.size());

  // Full oracle sweep over the live set; `after_flush` additionally runs
  // the notification-exactness and plan-flip bookkeeping.
  auto check_all = [&](int step, bool after_flush) -> std::optional<std::string> {
    // Fresh from-scratch state, once per distinct option set.
    std::map<size_t, std::string> fresh_dump;
    std::map<size_t, double> fresh_cost;
    for (const auto& q : live) {
      if (fresh_dump.count(q->set_idx) != 0) continue;
      DeclarativeOptimizer fresh(world->enumerator.get(), world->cost_model.get(),
                                 &world->registry, sets[q->set_idx].second);
      fresh.Optimize();
      if (options.validate_invariants) fresh.ValidateInvariants();
      if (!std::isfinite(fresh.BestCost())) {
        return StrFormat("boundary %d: fresh optimization (options=%s) produced a non-finite "
                         "best cost (generator bug)",
                         step, sets[q->set_idx].first.c_str());
      }
      fresh_dump[q->set_idx] = fresh.CanonicalDumpState();
      fresh_cost[q->set_idx] = fresh.BestCost();
    }
    if (options.check_systemr && !fresh_cost.empty()) {
      SystemROptimizer systemr(world->enumerator.get(), world->cost_model.get());
      systemr.Optimize();
      for (const auto& [set_idx, cost] : fresh_cost) {
        if (!CostsAgree(cost, systemr.BestCost(), options.rel_tol)) {
          return StrFormat("boundary %d: System-R ground truth diverged for options=%s: "
                           "fresh=%s systemr=%s",
                           step, sets[set_idx].first.c_str(), DoubleToString(cost).c_str(),
                           DoubleToString(systemr.BestCost()).c_str());
        }
      }
    }
    if (options.check_volcano && !fresh_cost.empty()) {
      VolcanoOptimizer volcano(world->enumerator.get(), world->cost_model.get());
      volcano.Optimize();
      if (!CostsAgree(fresh_cost.begin()->second, volcano.BestCost(), options.rel_tol)) {
        return StrFormat("boundary %d: Volcano baseline diverged: fresh=%s volcano=%s", step,
                         DoubleToString(fresh_cost.begin()->second).c_str(),
                         DoubleToString(volcano.BestCost()).c_str());
      }
    }
    bool flipped = false;
    std::vector<int> expected_tags;
    for (const auto& q : live) {
      if (options.validate_invariants) q->opt->ValidateInvariants();
      if (!CostsAgree(q->opt->BestCost(), fresh_cost[q->set_idx], options.rel_tol)) {
        return StrFormat("boundary %d: query #%d (options=%s) BestCost diverged: "
                         "registered=%s fresh=%s",
                         step, q->tag, sets[q->set_idx].first.c_str(),
                         DoubleToString(q->opt->BestCost()).c_str(),
                         DoubleToString(fresh_cost[q->set_idx]).c_str());
      }
      const std::string dump = options.check_dump ? q->opt->CanonicalDumpState() : std::string();
      if (options.check_dump) {
        if (dump != fresh_dump[q->set_idx]) {
          return StrFormat("boundary %d: query #%d (options=%s) dump diverged from the "
                           "from-scratch oracle",
                           step, q->tag, sets[q->set_idx].first.c_str());
        }
        if (dump != q->mirror_opt->CanonicalDumpState()) {
          return StrFormat("boundary %d: query #%d dump diverged from its mirror twin "
                           "(budget=%zu)",
                           step, q->tag, memo_budget);
        }
      }
      if (after_flush) {
        if (options.check_dump && dump != q->prev_dump) expected_tags.push_back(q->tag);
        auto shape = q->opt->GetBestPlan();
        if (!shape->SameShape(*q->prev_shape)) flipped = true;
        q->prev_shape = std::move(shape);
        if (options.check_dump) q->prev_dump = dump;
      }
    }
    if (after_flush) {
      if (flipped) ++acc.plan_flips;
      acc.plan_changes += static_cast<int64_t>(events.size());
      if (options.check_dump) {
        // Exactness AND registration order, against the primary stream;
        // the mirror must have seen the very same stream.
        if (events != expected_tags) {
          return StrFormat("boundary %d: notification exactness violated: %zu event(s) fired "
                           "but %zu dump(s) changed (or out of registration order)",
                           step, events.size(), expected_tags.size());
        }
        if (mirror_events != expected_tags) {
          return StrFormat("boundary %d: mirror event stream diverged (%zu vs %zu events)",
                           step, mirror_events.size(), expected_tags.size());
        }
      }
    }
    return std::nullopt;
  };

  acc.queries = static_cast<int64_t>(live.size());
  if (auto err = check_all(-1, /*after_flush=*/false)) return fail(-1, *err);

  int64_t dispatched_flushes = 0;
  const size_t group = static_cast<size_t>(std::max(1, options.batch_steps));
  for (size_t s0 = 0; s0 < sc.churn.size(); s0 += group) {
    const size_t s1 = std::min(s0 + group, sc.churn.size());
    const int step = static_cast<int>(s1 - 1);

    // Handle-storm lifecycle actions, at the boundary (outside any flush):
    // one shared schedule drives BOTH sessions' register/release so the
    // live sets stay twins; manual evictions hit only the primary.
    if (cls == ScenarioClass::kHandleStorm) {
      const int n_actions = 1 + static_cast<int>(storm_rng.NextBelow(2));
      for (int a = 0; a < n_actions; ++a) {
        const uint64_t roll = storm_rng.NextBelow(4);
        if (roll == 0 && live.size() < max_live) {
          register_query(storm_rng.NextBelow(sets.size()));
        } else if (roll == 1 && live.size() > 2) {
          const size_t victim = storm_rng.NextBelow(live.size());
          live[victim]->handle.Release();
          live[victim]->mirror_handle.Release();
          live.erase(live.begin() + static_cast<long>(victim));
          ++acc.releases;
        } else if (roll == 2 && !live.empty()) {
          const size_t victim = storm_rng.NextBelow(live.size());
          session->EvictQuery(live[victim]->handle.id());
        }
      }
      acc.queries = std::max(acc.queries, static_cast<int64_t>(live.size()));
    }

    for (size_t s = s0; s < s1; ++s) {
      for (const StatMutation& m : sc.churn[s].mutations) {
        ApplyMutation(&world->registry, m);
        ApplyMutation(&mirror_world->registry, m);
      }
    }
    events.clear();
    mirror_events.clear();
    if (session->Flush() > 0) {
      ++dispatched_flushes;
      result.eps_seeded += session->last_flush().eps_seeded;
      result.eps_scanned += session->last_flush().eps_scanned;
    }
    mirror_session->Flush();
    ++result.flushes;
    ++acc.flushes;

    // Budget enforcement may have spilled queries at the end of the flush;
    // the oracle reads live memos, so restore them all first (also the
    // manual-eviction path when this boundary's batch coalesced away).
    for (const auto& q : live) session->RehydrateQuery(q->handle.id());
    if (memo_budget > 0) {
      int64_t expected_resident = 0;
      for (const auto& q : live) {
        if (session->query_state(q->handle.id()) == QueryState::kHealthy) {
          expected_resident += static_cast<int64_t>(q->opt->EstimatedMemoBytes());
        }
      }
      if (session->resident_memo_bytes() != expected_resident) {
        return fail(step, StrFormat("boundary %d: resident_memo_bytes accounting diverged: "
                                    "gauge=%lld expected=%lld over %zu live queries",
                                    step, static_cast<long long>(session->resident_memo_bytes()),
                                    static_cast<long long>(expected_resident), live.size()));
      }
      acc.max_resident_bytes = std::max(acc.max_resident_bytes, expected_resident);
    }

    if (auto err = check_all(step, /*after_flush=*/true)) return fail(step, *err);
  }

  result.plan_flips = acc.plan_flips;
  result.plan_changes = acc.plan_changes;
  acc.eps_seeded = result.eps_seeded;
  acc.eps_scanned = result.eps_scanned;
  acc.evictions = session->metrics().evictions;
  acc.rehydrations = session->metrics().rehydrations;
  acc.summary_hits = session->summary_cache().hits();
  acc.summary_misses = session->summary_cache().misses();
  if (cls == ScenarioClass::kHandleStorm && dispatched_flushes >= 1 && acc.evictions == 0) {
    // The budget was sized for ~2 residents and at least 4 queries ran, so
    // every dispatched flush's enforcement has victims: a storm that never
    // evicted means the class lost its adversary.
    return fail(static_cast<int>(sc.churn.size()) - 1,
                StrFormat("no evictions over %lld dispatched flushes despite a %zu-byte "
                          "budget (budget enforcement never engaged)",
                          static_cast<long long>(dispatched_flushes), memo_budget));
  }
  if (stats != nullptr) stats->Accumulate(acc);
  return result;
}

}  // namespace

const char* ScenarioClassName(ScenarioClass cls) {
  switch (cls) {
    case ScenarioClass::kRandom:
      return "random";
    case ScenarioClass::kPlanFlip:
      return "plan-flip";
    case ScenarioClass::kScopeOverlap:
      return "scope-overlap";
    case ScenarioClass::kHandleStorm:
      return "handle-storm";
    case ScenarioClass::kStreamChurn:
      return "stream-churn";
  }
  return "unknown";
}

ScenarioClass DeriveScenarioClass(uint64_t seed) {
  switch ((seed >> 3) & 7) {
    case 4:
      return ScenarioClass::kPlanFlip;
    case 5:
      return ScenarioClass::kStreamChurn;
    case 6:
      return ScenarioClass::kScopeOverlap;
    case 7:
      return ScenarioClass::kHandleStorm;
    default:
      return ScenarioClass::kRandom;
  }
}

bool ScenarioClassHonorsRotations(ScenarioClass cls) {
  return cls == ScenarioClass::kRandom || cls == ScenarioClass::kPlanFlip ||
         cls == ScenarioClass::kStreamChurn;
}

Scenario GenerateClassScenario(uint64_t seed, ScenarioClass cls, const GeneratorKnobs& knobs) {
  switch (cls) {
    case ScenarioClass::kRandom:
      return GenerateScenario(seed, knobs);
    case ScenarioClass::kPlanFlip:
      return GeneratePlanFlipScenario(seed, knobs);
    case ScenarioClass::kScopeOverlap:
    case ScenarioClass::kHandleStorm: {
      // Small relation alphabet, dense mutations: with 16..64 queries all
      // bound to the same QuerySpec, every mutation's affected set is the
      // whole session by construction.
      GeneratorKnobs k = knobs;
      k.p_tpch = 0;
      k.query.min_relations = std::max(k.query.min_relations, 3);
      k.query.max_relations = std::min(k.query.max_relations, 4);
      k.query.max_dense_relations = std::min(k.query.max_dense_relations, 4);
      k.query.p_window = 0;
      k.query.p_aggregation = 0.25;
      k.churn.min_steps = std::max(k.churn.min_steps, 3);
      k.churn.max_steps = std::max(k.churn.max_steps, cls == ScenarioClass::kHandleStorm ? 6 : 5);
      k.churn.max_mutations_per_step = std::max(k.churn.max_mutations_per_step, 6);
      return GenerateScenario(seed, k);
    }
    case ScenarioClass::kStreamChurn: {
      // Window-heavy queries under long churn: the differential twin of
      // the sustained linear-road driver (bench_adversarial).
      GeneratorKnobs k = knobs;
      k.query.p_window = 0.9;
      k.query.min_relations = std::max(k.query.min_relations, 2);
      k.query.max_relations = std::min(k.query.max_relations, 6);
      k.churn.min_steps = std::max(k.churn.min_steps, 4);
      k.churn.max_steps = std::max(k.churn.max_steps, 8);
      return GenerateScenario(seed, k);
    }
  }
  return GenerateScenario(seed, knobs);
}

void ClassRunStats::Accumulate(const ClassRunStats& o) {
  flushes += o.flushes;
  plan_flips += o.plan_flips;
  plan_changes += o.plan_changes;
  queries = std::max(queries, o.queries);
  registrations += o.registrations;
  releases += o.releases;
  evictions += o.evictions;
  rehydrations += o.rehydrations;
  eps_seeded += o.eps_seeded;
  eps_scanned += o.eps_scanned;
  summary_hits += o.summary_hits;
  summary_misses += o.summary_misses;
  max_resident_bytes = std::max(max_resident_bytes, o.max_resident_bytes);
}

DiffResult RunClassScenario(const Scenario& scenario, ScenarioClass cls,
                            const DiffOptions& options, ClassRunStats* stats) {
  if (ScenarioClassHonorsRotations(cls)) {
    DiffResult r = RunScenario(scenario, options);
    if (stats != nullptr) {
      ClassRunStats s;
      s.flushes = r.flushes;
      s.plan_flips = r.plan_flips;
      s.plan_changes = r.plan_changes;
      s.eps_seeded = r.eps_seeded;
      s.eps_scanned = r.eps_scanned;
      s.queries = options.batch_steps >= 1 ? 2 : 1;  // primary + shadow
      stats->Accumulate(s);
    }
    return r;
  }
  DiffOptions storm = options;
  storm.fault_rotation = false;     // storms ignore the fault rotation
  storm.lifecycle_rotation = false;  // and run their own lifecycle schedule
  if (storm.batch_steps < 1) storm.batch_steps = 1;
  return RunStormScenario(scenario, cls, storm, stats);
}

}  // namespace iqro::testing
