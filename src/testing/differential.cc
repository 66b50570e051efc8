#include "testing/differential.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "baseline/systemr.h"
#include "baseline/volcano.h"
#include "common/check.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/declarative_optimizer.h"
#include "service/reopt_session.h"

namespace iqro::testing {

namespace {

/// Relative-tolerance equality that also accepts two infinities of the same
/// sign (a degenerate but internally consistent statistics state).
bool CostsAgree(double a, double b, double rel_tol) {
  if (std::isinf(a) || std::isinf(b)) return a == b;
  return std::abs(a - b) <= rel_tol * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Walks a plan tree and checks every node's cumulative cost against
/// System-R's per-(expr, prop) optimum.
std::optional<std::string> CheckPlanNodesAgainstSystemR(const PlanTree& t,
                                                        const SystemROptimizer& systemr,
                                                        double rel_tol) {
  const double truth = systemr.BestCostOf(t.expr, t.prop);
  if (!CostsAgree(t.cost, truth, rel_tol)) {
    return StrFormat("plan node %s prop=%d cost=%s but System-R optimum is %s",
                     RelSetToString(t.expr).c_str(), t.prop,
                     DoubleToString(t.cost).c_str(), DoubleToString(truth).c_str());
  }
  if (t.left != nullptr) {
    if (auto err = CheckPlanNodesAgainstSystemR(*t.left, systemr, rel_tol)) return err;
  }
  if (t.right != nullptr) {
    if (auto err = CheckPlanNodesAgainstSystemR(*t.right, systemr, rel_tol)) return err;
  }
  return std::nullopt;
}

/// One delivered PlanChangeEvent, flattened for cross-session comparison
/// (serial vs pooled event streams must be identical field-for-field).
struct RecordedEvent {
  int query_tag = -1;  // 0 = primary, 1 = shadow
  uint64_t flush_epoch = 0;
  double old_cost = 0;
  double new_cost = 0;
  PlanDiffSummary diff;

  bool operator==(const RecordedEvent& o) const {
    return query_tag == o.query_tag && flush_epoch == o.flush_epoch &&
           old_cost == o.old_cost && new_cost == o.new_cost &&
           diff.changed_operators == o.diff.changed_operators &&
           diff.total_operators == o.diff.total_operators &&
           diff.join_order_prefix == o.diff.join_order_prefix &&
           diff.join_order_len == o.diff.join_order_len;
  }
};

class RecordingSubscriber final : public PlanSubscriber {
 public:
  RecordingSubscriber(int tag, std::vector<RecordedEvent>* out) : tag_(tag), out_(out) {}
  void OnPlanChange(const PlanChangeEvent& e) override {
    out_->push_back({tag_, e.flush_epoch, e.old_cost, e.new_cost, e.diff});
  }

 private:
  int tag_;
  std::vector<RecordedEvent>* out_;
};

/// RAII for a fault-rotation run: the injector is armed with counting
/// disabled; every exit path disarms it and restores counting so the next
/// scenario (or a non-fault caller) starts clean.
struct FaultRotationGuard {
  bool active = false;
  ~FaultRotationGuard() {
    if (!active) return;
    FaultInjector::Instance().DisarmAll();
    FaultInjector::Instance().set_enabled(true);
  }
};

/// Derives the deterministic fault plan for a scenario: one single-shot
/// fault at a seed-chosen site and hit ordinal, plus (batch mode,
/// sometimes) a dependent rebuild fault so the FIRST rehabilitation
/// attempt also fails and the strike/backoff ladder is exercised. Every
/// armed fault is single-shot (period 0), which bounds strikes per query
/// below the parking threshold and guarantees the recovery loop converges.
void ArmFaultPlan(uint64_t seed, bool batch_mode) {
  Rng rng(seed ^ 0xFA17ull);
  FaultInjector::ArmSpec spec;
  // Ordinal ranges are sized to each site's hit rate per flush window so a
  // healthy fraction of seeds actually reach the ordinal; seeds that don't
  // degenerate to a plain (still checked) differential run.
  const uint64_t pick = rng.NextBelow(batch_mode ? 3 : 2);
  if (batch_mode && pick == 0) {
    spec.site = "service.pass";  // pre-dispatch, optimizer left untorn
    spec.fire_at_hit = 1 + static_cast<int64_t>(rng.NextBelow(8));
  } else if (pick <= 1) {
    spec.site = "reopt.seed";  // mid-seeding, partially applied batch
    spec.fire_at_hit = 1 + static_cast<int64_t>(rng.NextBelow(24));
  } else {
    spec.site = "reopt.fixpoint";  // mid-fixpoint, partially propagated
    spec.fire_at_hit = 1 + static_cast<int64_t>(rng.NextBelow(200));
  }
  spec.action = rng.NextBool(0.25) ? FaultInjector::Action::kBadAlloc
                                   : FaultInjector::Action::kThrow;
  FaultInjector::Instance().Arm(spec);
  if (batch_mode && rng.NextBool(1.0 / 3.0)) {
    FaultInjector::ArmSpec rebuild;
    rebuild.site = "reopt.rebuild";
    rebuild.fire_at_hit = 1;
    rebuild.action = rng.NextBool(0.25) ? FaultInjector::Action::kBadAlloc
                                        : FaultInjector::Action::kThrow;
    FaultInjector::Instance().Arm(rebuild);
  }
}

struct StepOracle {
  QueryContext* world;
  const Scenario* scenario;
  const DiffOptions* options;

  /// Runs every from-scratch implementation against the registry's current
  /// statistics and cross-checks the incremental optimizer. Returns an
  /// error message, or nullopt when everything agrees.
  std::optional<std::string> Check(DeclarativeOptimizer& inc) {
    const double tol = options->rel_tol;
    DeclarativeOptimizer fresh(world->enumerator.get(), world->cost_model.get(),
                               &world->registry, scenario->options);
    fresh.Optimize();
    if (options->validate_invariants) fresh.ValidateInvariants();
    if (!std::isfinite(fresh.BestCost())) {
      return "fresh optimization produced a non-finite best cost (generator bug)";
    }
    if (!CostsAgree(inc.BestCost(), fresh.BestCost(), tol)) {
      return StrFormat("BestCost diverged: incremental=%s fresh=%s",
                       DoubleToString(inc.BestCost()).c_str(),
                       DoubleToString(fresh.BestCost()).c_str());
    }
    auto inc_plan = inc.GetBestPlan();
    auto fresh_plan = fresh.GetBestPlan();
    if (!inc_plan->SameShape(*fresh_plan)) {
      return StrFormat(
          "GetBestPlan diverged:\nincremental:\n%s\nfresh:\n%s",
          inc_plan->ToString(scenario->query, world->props).c_str(),
          fresh_plan->ToString(scenario->query, world->props).c_str());
    }
    const double recomputed = RecomputeTreeCost(*inc_plan, *world->cost_model);
    if (!CostsAgree(recomputed, fresh.BestCost(), tol)) {
      return StrFormat("plan cost recomputation diverged: tree=%s best=%s",
                       DoubleToString(recomputed).c_str(),
                       DoubleToString(fresh.BestCost()).c_str());
    }
    if (options->check_dump) {
      const std::string inc_dump = inc.CanonicalDumpState();
      const std::string fresh_dump = fresh.CanonicalDumpState();
      if (inc_dump != fresh_dump) {
        return StrFormat("CanonicalDumpState diverged:\n--- incremental ---\n%s--- fresh ---\n%s",
                         inc_dump.c_str(), fresh_dump.c_str());
      }
    }
    if (options->check_systemr) {
      SystemROptimizer systemr(world->enumerator.get(), world->cost_model.get());
      systemr.Optimize();
      if (!CostsAgree(inc.BestCost(), systemr.BestCost(), tol)) {
        return StrFormat("System-R ground truth diverged: incremental=%s systemr=%s",
                         DoubleToString(inc.BestCost()).c_str(),
                         DoubleToString(systemr.BestCost()).c_str());
      }
      // Every node of the incremental plan must carry the exhaustive DP's
      // optimal cost for its (expr, prop) pair, not just the root.
      if (auto err = CheckPlanNodesAgainstSystemR(*inc_plan, systemr, tol)) return err;
    }
    if (options->check_volcano) {
      VolcanoOptimizer volcano(world->enumerator.get(), world->cost_model.get());
      volcano.Optimize();
      if (!CostsAgree(inc.BestCost(), volcano.BestCost(), tol)) {
        return StrFormat("Volcano baseline diverged: incremental=%s volcano=%s",
                         DoubleToString(inc.BestCost()).c_str(),
                         DoubleToString(volcano.BestCost()).c_str());
      }
    }
    return std::nullopt;
  }
};

}  // namespace

double RecomputeTreeCost(const PlanTree& t, const CostModel& model) {
  double local = 0;
  switch (t.alt.logop) {
    case LogOp::kScan:
      local = model.ScanCost(RelLowest(t.expr), t.alt.phyop);
      break;
    case LogOp::kSort:
      local = model.SortLocalCost(t.expr);
      break;
    case LogOp::kJoin:
      local = model.JoinLocalCost(t.alt.phyop, t.alt.lexpr, t.alt.rexpr);
      break;
  }
  double total = local;
  if (t.left != nullptr) total += RecomputeTreeCost(*t.left, model);
  if (t.right != nullptr) total += RecomputeTreeCost(*t.right, model);
  return total;
}

Scenario GenerateScenario(uint64_t seed, const GeneratorKnobs& knobs) {
  Scenario sc;
  sc.seed = seed;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
  const bool use_tpch = rng.NextBool(knobs.p_tpch);
  GenerateCatalogAndQuery(knobs.query, use_tpch, rng, &sc.catalog, &sc.query);
  const auto& sets = NamedOptionSets();
  const auto& [name, opts] = sets[rng.NextBelow(sets.size())];
  sc.options_name = name;
  sc.options = opts;
  // Churn generation reads the join graph and the initial statistics.
  const auto world = BuildWorld(sc.catalog, sc.query);
  sc.churn = GenerateChurn(knobs.churn, sc.query, *world->graph, world->registry, rng);
  return sc;
}

DiffResult RunScenario(const Scenario& scenario, const DiffOptions& options,
                       const FaultInjection& fault) {
  DiffResult result;
  auto world = BuildWorld(scenario.catalog, scenario.query);
  StepOracle oracle{world.get(), &scenario, &options};

  // Fault rotation: arm the seed-derived plan with counting DISABLED —
  // only the ScopedFaultWindow blocks around the primary world's flushes
  // below count hits, so the oracle's from-scratch optimizers and the
  // mirror world execute the same armed sites without ever faulting.
  FaultRotationGuard fault_guard;
  if (options.fault_rotation) {
    FaultInjector::Instance().set_enabled(false);
    ArmFaultPlan(scenario.seed, options.batch_steps >= 1);
    fault_guard.active = true;
  }

  // Heap-owned so the lifecycle rotation's snapshot-restart can destroy
  // and recreate it along with its world.
  auto inc = std::make_unique<DeclarativeOptimizer>(
      world->enumerator.get(), world->cost_model.get(), &world->registry, scenario.options);
  inc->Optimize();
  if (options.validate_invariants) inc->ValidateInvariants();
  if (auto err = oracle.Check(*inc)) return {false, -1, "initial optimization: " + *err};
  // Plan-shape baseline for the flip counter (DiffResult::plan_flips): a
  // detached tree snapshot, so it survives lifecycle restarts of `inc`.
  auto prev_plan_shape = inc->GetBestPlan();
  // Accumulates the primary session's seeding counters across every
  // dispatched flush (last_flush() only keeps the most recent one, and
  // fault-rotation recovery runs several per boundary).
  const auto count_flush = [&result](ReoptSession& s) {
    const size_t n = s.Flush();
    if (n > 0) {
      result.eps_seeded += s.last_flush().eps_seeded;
      result.eps_scanned += s.last_flush().eps_scanned;
    }
    return n;
  };

  // Batch mode: a ReoptSession owns the flushes, and a shadow optimizer
  // (same options, same registry) rides along to prove that one drained
  // batch drives every registered query to the identical fixpoint. Both
  // carry a recording PlanSubscriber: after every flush the notification
  // oracle below asserts an event fired iff the query's canonical plan
  // changed, with the oracle's own before/after costs.
  std::unique_ptr<ReoptSession> session;
  std::unique_ptr<DeclarativeOptimizer> shadow;
  // Parallel mode additionally runs a full serial-mirror world in
  // lockstep (see DiffOptions::worker_threads).
  std::unique_ptr<QueryContext> mirror_world;
  std::unique_ptr<DeclarativeOptimizer> mirror_inc;
  std::unique_ptr<DeclarativeOptimizer> mirror_shadow;
  std::unique_ptr<ReoptSession> mirror_session;
  // Handles after the sessions: they unregister (touching their session)
  // before the sessions destruct.
  std::vector<QueryHandle> handles;
  std::vector<QueryHandle> mirror_handles;
  std::vector<RecordedEvent> events;
  std::vector<RecordedEvent> mirror_events;
  RecordingSubscriber primary_sub(0, &events);
  RecordingSubscriber shadow_sub(1, &events);
  RecordingSubscriber mirror_primary_sub(0, &mirror_events);
  RecordingSubscriber mirror_shadow_sub(1, &mirror_events);
  std::string prev_primary_dump;
  std::string prev_shadow_dump;
  double prev_primary_cost = 0;
  double prev_shadow_cost = 0;
  // Lifecycle rotation state: the boundary roll RNG, the snapshot path the
  // restart arm reuses, and quarantine strikes carried across session
  // generations (a restart resets the new session's counters; the
  // end-of-run fault accounting needs the whole scenario's total).
  Rng lifecycle_rng(scenario.seed ^ 0x11FEull);
  const std::string snapshot_path =
      "/tmp/iqro_diff_lifecycle_" + std::to_string(scenario.seed) + ".snap";
  int64_t quarantines_carried = 0;
  const bool lifecycle = options.lifecycle_rotation && options.batch_steps >= 1;
  if (options.batch_steps >= 1) {
    shadow = std::make_unique<DeclarativeOptimizer>(
        world->enumerator.get(), world->cost_model.get(), &world->registry, scenario.options);
    shadow->Optimize();
    ReoptSessionOptions session_options;
    session_options.worker_threads = options.worker_threads;
    session = std::make_unique<ReoptSession>(&world->registry, session_options);
    handles.push_back(session->Register(*inc, &primary_sub));
    handles.push_back(session->Register(*shadow, &shadow_sub));
    prev_primary_dump = inc->CanonicalDumpState();
    prev_shadow_dump = shadow->CanonicalDumpState();
    prev_primary_cost = inc->BestCost();
    prev_shadow_cost = shadow->BestCost();
    // The mirror world serves three claims: parallel ≡ serial (pooled
    // mode), faulted-then-recovered ≡ never-faulted (fault rotation), and
    // evicted/restarted ≡ undisturbed (lifecycle rotation) — so it also
    // runs, serially, for serial fault- or lifecycle-rotation scenarios.
    if (options.worker_threads >= 1 || options.fault_rotation || lifecycle) {
      mirror_world = BuildWorld(scenario.catalog, scenario.query);
      mirror_inc = std::make_unique<DeclarativeOptimizer>(
          mirror_world->enumerator.get(), mirror_world->cost_model.get(),
          &mirror_world->registry, scenario.options);
      mirror_shadow = std::make_unique<DeclarativeOptimizer>(
          mirror_world->enumerator.get(), mirror_world->cost_model.get(),
          &mirror_world->registry, scenario.options);
      mirror_inc->Optimize();
      mirror_shadow->Optimize();
      mirror_session = std::make_unique<ReoptSession>(&mirror_world->registry);
      mirror_handles.push_back(mirror_session->Register(*mirror_inc, &mirror_primary_sub));
      mirror_handles.push_back(mirror_session->Register(*mirror_shadow, &mirror_shadow_sub));
    }
  }
  const size_t group = options.batch_steps >= 1 ? static_cast<size_t>(options.batch_steps) : 1;

  for (size_t s0 = 0; s0 < scenario.churn.size(); s0 += group) {
    const size_t s1 = std::min(s0 + group, scenario.churn.size());
    for (size_t s = s0; s < s1; ++s) {
      for (const StatMutation& m : scenario.churn[s].mutations) {
        ApplyMutation(&world->registry, m);
        if (mirror_world != nullptr) ApplyMutation(&mirror_world->registry, m);
      }
      if (fault.kind == FaultInjection::Kind::kDropSeed &&
          static_cast<size_t>(fault.step) == s) {
        world->registry.DropOnePendingForTest();
        if (mirror_world != nullptr) mirror_world->registry.DropOnePendingForTest();
      }
    }
    const int fail_step = static_cast<int>(s1 - 1);
    if (session != nullptr) {
      events.clear();
      mirror_events.clear();
      if (options.fault_rotation) {
        {
          ScopedFaultWindow window;
          count_flush(*session);
        }
        // Recovery: each flush ticks the retry clock and rehabilitates
        // whatever backoff has expired. Faults stay armed (a seed can
        // fail the rebuild itself — that is the point), but every armed
        // spec is single-shot, so strikes per query stay below the
        // parking threshold and the loop converges.
        int recovery_flushes = 0;
        while (session->num_quarantined() > 0 || session->num_parked() > 0) {
          if (++recovery_flushes > 32) {
            return {false, fail_step,
                    StrFormat("after churn step %zu: quarantined queries failed to "
                              "recover within 32 flushes (%d quarantined, %d parked)",
                              s1 - 1, session->num_quarantined(), session->num_parked())};
          }
          ScopedFaultWindow window;
          count_flush(*session);
        }
      } else {
        count_flush(*session);
      }
      if (lifecycle) {
        // Deferred rehydration: a query evicted at the previous boundary
        // whose batch turned out irrelevant is still spilled — restore it
        // now (outside any fault window) so the oracle below reads a live
        // memo. The relevant-batch case was already rehydrated inside the
        // flush; this is a no-op for it.
        for (QueryHandle& h : handles) session->RehydrateQuery(h.id());
      }
      if (mirror_session != nullptr) mirror_session->Flush();  // never in a window
    } else if (options.fault_rotation) {
      // Legacy mode: the throw surfaces to the caller. The core's strong
      // exception guarantee must leave the optimizer torn down (never
      // optimized-but-stale: the drained batch is unrecoverable), and a
      // from-scratch rebuild outside the fault window must restore a state
      // the oracle cannot tell from never having faulted.
      bool faulted = false;
      try {
        ScopedFaultWindow window;
        inc->Reoptimize();
      } catch (const InjectedFault&) {
        faulted = true;
      } catch (const std::bad_alloc&) {
        faulted = true;
      }
      if (faulted) {
        if (inc->optimized()) {
          return {false, fail_step,
                  StrFormat("after churn step %zu: strong exception guarantee violated — "
                            "optimizer still reports optimized() after a faulted "
                            "Reoptimize()",
                            s1 - 1)};
        }
        inc->RebuildFromScratch();
      }
    } else {
      inc->Reoptimize();
    }
    if (options.validate_invariants) {
      inc->ValidateInvariants();
      if (shadow != nullptr) shadow->ValidateInvariants();
    }
    if (auto err = oracle.Check(*inc)) {
      return {false, fail_step, StrFormat("after churn step %zu: ", s1 - 1) + *err};
    }
    if (shadow != nullptr) {
      if (!CostsAgree(shadow->BestCost(), inc->BestCost(), options.rel_tol)) {
        return {false, fail_step,
                StrFormat("after churn step %zu: shadow session query diverged: "
                          "shadow=%s primary=%s",
                          s1 - 1, DoubleToString(shadow->BestCost()).c_str(),
                          DoubleToString(inc->BestCost()).c_str())};
      }
      if (options.check_dump && shadow->CanonicalDumpState() != inc->CanonicalDumpState()) {
        return {false, fail_step,
                StrFormat("after churn step %zu: shadow session query dump diverged",
                          s1 - 1)};
      }
    }
    if (mirror_session != nullptr) {
      // The direct parallel ≡ serial claim (pooled mode) and the
      // faulted-then-recovered ≡ never-faulted claim (fault rotation):
      // every registered query must land byte-identical to its twin in
      // the serial, never-faulted mirror world.
      if (!CostsAgree(mirror_inc->BestCost(), inc->BestCost(), options.rel_tol)) {
        return {false, fail_step,
                StrFormat("after churn step %zu: flush diverged from the mirror world: "
                          "primary=%s mirror=%s",
                          s1 - 1, DoubleToString(inc->BestCost()).c_str(),
                          DoubleToString(mirror_inc->BestCost()).c_str())};
      }
      if (options.check_dump) {
        if (inc->CanonicalDumpState() != mirror_inc->CanonicalDumpState()) {
          return {false, fail_step,
                  StrFormat("after churn step %zu: primary dump diverged from the mirror "
                            "world (worker_threads=%d, fault_rotation=%d)",
                            s1 - 1, options.worker_threads, options.fault_rotation ? 1 : 0)};
        }
        if (shadow->CanonicalDumpState() != mirror_shadow->CanonicalDumpState()) {
          return {false, fail_step,
                  StrFormat("after churn step %zu: shadow dump diverged from the mirror "
                            "world (worker_threads=%d, fault_rotation=%d)",
                            s1 - 1, options.worker_threads, options.fault_rotation ? 1 : 0)};
        }
      }
      if (options.validate_invariants) {
        mirror_inc->ValidateInvariants();
        mirror_shadow->ValidateInvariants();
      }
    }
    if (session != nullptr) {
      // Notification oracle: for each registered query, a PlanChangeEvent
      // fired this flush iff the query's CanonicalDumpState changed —
      // exactly once, with old/new costs equal to the oracle's own
      // before/after BestCost, in registration order; and (parallel mode)
      // the pooled session's event stream is field-identical to the serial
      // mirror's.
      const std::string primary_dump = inc->CanonicalDumpState();
      const std::string shadow_dump = shadow->CanonicalDumpState();
      const double primary_cost = inc->BestCost();
      const double shadow_cost = shadow->BestCost();
      struct Expected {
        int tag;
        const char* name;
        bool changed;
        double before;
        double after;
      };
      const Expected expected[] = {
          {0, "primary", primary_dump != prev_primary_dump, prev_primary_cost, primary_cost},
          {1, "shadow", shadow_dump != prev_shadow_dump, prev_shadow_cost, shadow_cost},
      };
      for (const Expected& ex : expected) {
        int fired = 0;
        const RecordedEvent* ev = nullptr;
        for (const RecordedEvent& e : events) {
          if (e.query_tag == ex.tag) {
            ++fired;
            ev = &e;
          }
        }
        if (fired != (ex.changed ? 1 : 0)) {
          return {false, fail_step,
                  StrFormat("after churn step %zu: %s subscriber fired %d time(s) but the "
                            "canonical plan %s — notification exactness violated",
                            s1 - 1, ex.name, fired, ex.changed ? "changed" : "did not change")};
        }
        if (ev != nullptr) {
          // The digest's costs are the same doubles the oracle reads
          // (root best aggregate), so equality here is exact, not approximate.
          if (ev->old_cost != ex.before || ev->new_cost != ex.after) {
            return {false, fail_step,
                    StrFormat("after churn step %zu: %s event costs diverged: event %s -> %s, "
                              "oracle %s -> %s",
                              s1 - 1, ex.name, DoubleToString(ev->old_cost).c_str(),
                              DoubleToString(ev->new_cost).c_str(),
                              DoubleToString(ex.before).c_str(),
                              DoubleToString(ex.after).c_str())};
          }
          if (ev->diff.changed_operators < 0 ||
              ev->diff.changed_operators > ev->diff.total_operators ||
              ev->diff.join_order_prefix < 0 ||
              ev->diff.join_order_prefix > ev->diff.join_order_len) {
            return {false, fail_step,
                    StrFormat("after churn step %zu: %s event diff summary out of range "
                              "(%d/%d operators, prefix %d/%d)",
                              s1 - 1, ex.name, ev->diff.changed_operators,
                              ev->diff.total_operators, ev->diff.join_order_prefix,
                              ev->diff.join_order_len)};
          }
        }
      }
      // Under fault rotation a quarantined query's event fires in a later
      // recovery flush than its healthy peer's, so only the PER-QUERY
      // subsequences are order-comparable; without faults the whole stream
      // must be in registration order and field-identical to the mirror's.
      if (!options.fault_rotation && events.size() == 2 && events[0].query_tag != 0) {
        return {false, fail_step,
                StrFormat("after churn step %zu: events fired out of registration order",
                          s1 - 1)};
      }
      if (mirror_session != nullptr) {
        bool streams_agree;
        if (options.fault_rotation) {
          streams_agree = true;
          for (int tag = 0; tag <= 1 && streams_agree; ++tag) {
            std::vector<RecordedEvent> got, want;
            for (const RecordedEvent& e : events) {
              if (e.query_tag == tag) got.push_back(e);
            }
            for (const RecordedEvent& e : mirror_events) {
              if (e.query_tag == tag) want.push_back(e);
            }
            streams_agree = got == want;
          }
        } else {
          streams_agree = events == mirror_events;
        }
        if (!streams_agree) {
          return {false, fail_step,
                  StrFormat("after churn step %zu: event stream diverged from the "
                            "%s mirror (%zu vs %zu events, worker_threads=%d)",
                            s1 - 1, options.fault_rotation ? "never-faulted" : "serial",
                            events.size(), mirror_events.size(), options.worker_threads)};
        }
      }
      prev_primary_dump = primary_dump;
      prev_shadow_dump = shadow_dump;
      prev_primary_cost = primary_cost;
      prev_shadow_cost = shadow_cost;
      result.plan_changes += static_cast<int64_t>(events.size());
    }
    ++result.flushes;
    {
      auto cur_plan_shape = inc->GetBestPlan();
      if (!cur_plan_shape->SameShape(*prev_plan_shape)) ++result.plan_flips;
      prev_plan_shape = std::move(cur_plan_shape);
    }
    // Lifecycle rotation: disturb the primary world AFTER the boundary's
    // checks, so the next boundary proves the disturbance invisible. All
    // of this runs outside fault windows — an armed fault plan never
    // fires inside an eviction, restore, or restart.
    if (lifecycle && session != nullptr && s1 < scenario.churn.size()) {
      const uint64_t roll = lifecycle_rng.NextBelow(4);
      if (roll == 1) {
        // Evict: spill one or both queries. Whether the next flush
        // rehydrates them naturally (relevant batch) or the harness does
        // right after it (irrelevant batch) is up to the churn.
        session->EvictQuery(handles[0].id());
        if (lifecycle_rng.NextBool(0.5)) session->EvictQuery(handles[1].id());
      } else if (roll == 2) {
        // Snapshot-restart: persist, tear the whole primary world down,
        // rebuild it fresh, warm-start from the snapshot, re-subscribe.
        session->SaveSnapshot(snapshot_path);
        quarantines_carried += session->metrics().quarantines;
        handles.clear();
        session.reset();
        inc.reset();
        shadow.reset();
        world = BuildWorld(scenario.catalog, scenario.query);
        oracle.world = world.get();
        inc = std::make_unique<DeclarativeOptimizer>(world->enumerator.get(),
                                                     world->cost_model.get(),
                                                     &world->registry, scenario.options);
        shadow = std::make_unique<DeclarativeOptimizer>(world->enumerator.get(),
                                                        world->cost_model.get(),
                                                        &world->registry, scenario.options);
        ReoptSessionOptions session_options;
        session_options.worker_threads = options.worker_threads;
        session = std::make_unique<ReoptSession>(&world->registry, session_options);
        handles = session->LoadSnapshot(snapshot_path, {inc.get(), shadow.get()});
        std::remove(snapshot_path.c_str());
        // Re-subscribing baselines each query at its restored (byte-
        // identical) plan — exactly where the mirror's settled baseline
        // sits, so the event streams keep agreeing.
        handles[0].Subscribe(&primary_sub);
        handles[1].Subscribe(&shadow_sub);
      }
    }
  }
  if (options.fault_rotation) {
    result.faults_fired = FaultInjector::Instance().fired();
    // Strikes recorded by pre-restart session generations were carried
    // over; the live session holds only the post-restart remainder.
    if (session != nullptr &&
        quarantines_carried + session->metrics().quarantines != result.faults_fired) {
      // Every single-shot fired action lands inside exactly one query's
      // pass, rebuild, or seeding — one strike each, no more, no fewer.
      return {false, static_cast<int>(scenario.churn.size()) - 1,
              StrFormat("fault accounting diverged: %lld fault(s) fired but the session "
                        "recorded %lld quarantine strike(s)",
                        static_cast<long long>(result.faults_fired),
                        static_cast<long long>(quarantines_carried +
                                               session->metrics().quarantines))};
    }
  }
  return result;
}

namespace {

/// Removes relation slot `slot` from the scenario, remapping every slot,
/// edge and scope reference. Returns nullopt when the removal disconnects
/// the join graph (the scenario would become meaningless).
std::optional<Scenario> RemoveRelation(const Scenario& sc, int slot) {
  if (sc.query.num_relations() <= 1) return std::nullopt;
  Scenario out = sc;
  QuerySpec& q = out.query;
  q.relations.erase(q.relations.begin() + slot);

  auto remap_slot = [slot](int r) { return r > slot ? r - 1 : r; };
  auto remap_scope = [slot](RelSet s) -> RelSet {
    RelSet low = s & (RelSingleton(slot) - 1);
    return low | ((s >> (slot + 1)) << slot);
  };

  std::vector<int> edge_remap(sc.query.joins.size(), -1);
  q.joins.clear();
  for (size_t e = 0; e < sc.query.joins.size(); ++e) {
    JoinPredicate j = sc.query.joins[e];
    if (j.left_rel == slot || j.right_rel == slot) continue;
    j.left_rel = remap_slot(j.left_rel);
    j.right_rel = remap_slot(j.right_rel);
    edge_remap[e] = static_cast<int>(q.joins.size());
    q.joins.push_back(j);
  }
  if (q.num_relations() > 1) {
    JoinGraph graph(q);
    if (!graph.IsConnected(q.AllRelations())) return std::nullopt;
  }

  std::erase_if(q.locals, [&](const LocalPredicate& p) { return p.rel == slot; });
  for (LocalPredicate& p : q.locals) p.rel = remap_slot(p.rel);
  std::erase_if(q.projections, [&](const ColRef& c) { return c.rel == slot; });
  for (ColRef& c : q.projections) c.rel = remap_slot(c.rel);
  std::erase_if(q.group_by, [&](const ColRef& c) { return c.rel == slot; });
  for (ColRef& c : q.group_by) c.rel = remap_slot(c.rel);
  std::erase_if(q.aggregates, [&](const AggItem& a) { return a.arg.rel == slot; });
  for (AggItem& a : q.aggregates) a.arg.rel = remap_slot(a.arg.rel);

  for (ChurnStep& step : out.churn) {
    std::erase_if(step.mutations, [&](const StatMutation& m) {
      switch (m.kind) {
        case StatMutation::Kind::kJoinSelectivity:
          return edge_remap[static_cast<size_t>(m.target)] < 0;
        case StatMutation::Kind::kCardMultiplier:
          return RelContains(m.scope, slot);
        default:
          return m.target == slot;
      }
    });
    for (StatMutation& m : step.mutations) {
      if (m.kind == StatMutation::Kind::kJoinSelectivity) {
        m.target = edge_remap[static_cast<size_t>(m.target)];
      } else if (m.kind == StatMutation::Kind::kCardMultiplier) {
        m.scope = remap_scope(m.scope);
      } else {
        m.target = remap_slot(m.target);
      }
    }
  }
  std::erase_if(out.churn, [](const ChurnStep& s) { return s.mutations.empty(); });

  // Drop synthetic tables no longer referenced by any slot.
  if (!out.catalog.use_tpch) {
    std::vector<int> table_remap(out.catalog.tables.size(), -1);
    std::vector<SyntheticTableSpec> kept;
    for (QueryRelation& r : q.relations) {
      int& mapped = table_remap[static_cast<size_t>(r.table)];
      if (mapped < 0) {
        mapped = static_cast<int>(kept.size());
        kept.push_back(out.catalog.tables[static_cast<size_t>(r.table)]);
      }
      r.table = mapped;
    }
    out.catalog.tables = std::move(kept);
  }
  return out;
}

}  // namespace

Scenario ShrinkScenario(const Scenario& failing,
                        const std::function<bool(const Scenario&)>& fails, int budget) {
  Scenario best = failing;
  auto attempt = [&](const Scenario& candidate) {
    if (budget <= 0) return false;
    --budget;
    if (!fails(candidate)) return false;
    best = candidate;
    return true;
  };

  bool progress = true;
  while (progress && budget > 0) {
    progress = false;

    // Drop whole churn steps, newest first (a failing prefix shrinks fast).
    for (int s = static_cast<int>(best.churn.size()) - 1; s >= 0 && budget > 0; --s) {
      Scenario c = best;
      c.churn.erase(c.churn.begin() + s);
      if (attempt(c)) progress = true;
    }
    // Drop individual mutations.
    for (size_t s = 0; s < best.churn.size() && budget > 0; ++s) {
      for (size_t m = best.churn[s].mutations.size(); m-- > 0 && budget > 0;) {
        if (best.churn[s].mutations.size() <= 1) break;  // step removal covers it
        Scenario c = best;
        c.churn[s].mutations.erase(c.churn[s].mutations.begin() + static_cast<long>(m));
        if (attempt(c)) progress = true;
      }
    }
    // Strip query decoration: locals, aggregation, projections, windows.
    for (size_t p = best.query.locals.size(); p-- > 0 && budget > 0;) {
      Scenario c = best;
      c.query.locals.erase(c.query.locals.begin() + static_cast<long>(p));
      if (attempt(c)) progress = true;
    }
    if (best.query.has_aggregation() && budget > 0) {
      Scenario c = best;
      c.query.group_by.clear();
      c.query.aggregates.clear();
      if (attempt(c)) progress = true;
    }
    if (!best.query.projections.empty() && budget > 0) {
      Scenario c = best;
      c.query.projections.clear();
      if (attempt(c)) progress = true;
    }
    for (int r = 0; r < best.query.num_relations() && budget > 0; ++r) {
      if (best.query.relations[static_cast<size_t>(r)].window.kind == WindowSpec::Kind::kNone) {
        continue;
      }
      Scenario c = best;
      c.query.relations[static_cast<size_t>(r)].window = WindowSpec{};
      if (attempt(c)) progress = true;
    }
    // Remove whole relations (largest structural step, tried last).
    for (int r = best.query.num_relations() - 1; r >= 0 && budget > 0; --r) {
      std::optional<Scenario> c = RemoveRelation(best, r);
      if (c.has_value() && attempt(*c)) progress = true;
    }
  }
  return best;
}

}  // namespace iqro::testing
