#include "server/sharded_service.h"

#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>

#include "core/declarative_optimizer.h"
#include "cost/cost_model.h"
#include "service/flush_policy.h"
#include "service/metrics_exporter.h"
#include "service/plan_subscriber.h"
#include "service/reopt_session.h"
#include "service/snapshot.h"
#include "stats/summary.h"
#include "testing/differential.h"

namespace iqro::server {

namespace {

/// Manifest section type: one serialized world record (specs + query
/// configurations) per section.
constexpr uint32_t kManifestWorldSection = 1;

const OptimizerOptions* FindOptionSet(const std::string& name) {
  for (const auto& [set_name, options] : testing::ScenarioOptionSets()) {
    if (set_name == name) return &options;
  }
  return nullptr;
}

/// Structural validation of a registration's specs — the wire codec caps
/// sizes, but cross-references (relation slots, table ids, column ranges)
/// are the service's to check before a world is built from them.
void ValidateSpecs(const testing::CatalogSpec& catalog, const QuerySpec& query) {
  const int nrel = query.num_relations();
  if (nrel < 1 || nrel > kMaxRelations) {
    throw ServiceError(WireErrorCode::kBadRequest, "query must have 1.." +
                                                       std::to_string(kMaxRelations) +
                                                       " relations, has " + std::to_string(nrel));
  }
  if (!catalog.use_tpch && catalog.tables.empty()) {
    throw ServiceError(WireErrorCode::kBadRequest, "synthetic catalog has no tables");
  }
  for (const QueryRelation& rel : query.relations) {
    if (!catalog.use_tpch &&
        (rel.table < 0 || rel.table >= static_cast<int>(catalog.tables.size()))) {
      throw ServiceError(WireErrorCode::kBadRequest,
                         "relation references table " + std::to_string(rel.table) + " of " +
                             std::to_string(catalog.tables.size()));
    }
  }
  auto check_rel = [nrel](int rel, const char* what) {
    if (rel < 0 || rel >= nrel) {
      throw ServiceError(WireErrorCode::kBadRequest,
                         std::string(what) + " references relation " + std::to_string(rel));
    }
  };
  for (const JoinPredicate& j : query.joins) {
    check_rel(j.left_rel, "join");
    check_rel(j.right_rel, "join");
  }
  for (const LocalPredicate& l : query.locals) check_rel(l.rel, "local predicate");
  for (const ColRef& c : query.projections) check_rel(c.rel, "projection");
  for (const ColRef& c : query.group_by) check_rel(c.rel, "group-by");
}

/// A mutation the registry would reject or that targets state outside the
/// world is dropped at the door — a hostile client must not be able to
/// crash a shard or poison a world it shares.
bool ValidMutation(const testing::StatMutation& m, int num_relations, int num_edges) {
  if (!std::isfinite(m.value) || m.value <= 0) return false;
  const RelSet all = num_relations >= 32 ? ~RelSet{0} : (RelSet{1} << num_relations) - 1;
  switch (m.kind) {
    case testing::StatMutation::Kind::kBaseRows:
    case testing::StatMutation::Kind::kLocalSelectivity:
    case testing::StatMutation::Kind::kRowWidth:
    case testing::StatMutation::Kind::kScanCost:
      return m.target >= 0 && m.target < num_relations;
    case testing::StatMutation::Kind::kJoinSelectivity:
      return m.target >= 0 && m.target < num_edges;
    case testing::StatMutation::Kind::kCardMultiplier:
      return m.scope != 0 && (m.scope & ~all) == 0;
  }
  return false;
}

ServiceError UnknownWorld(uint64_t world_key) {
  return ServiceError(WireErrorCode::kUnknownWorld,
                      "no world registered under key " + std::to_string(world_key));
}

/// One world's session, configured from the service options — the same
/// for a freshly built world and one restored from a snapshot.
std::unique_ptr<ReoptSession> NewWorldSession(StatsRegistry* registry,
                                              const ShardedServiceOptions& options) {
  ReoptSessionOptions so;
  so.per_query_work_budget = options.per_query_work_budget;
  so.memo_byte_budget = options.memo_byte_budget;
  if (options.auto_flush_count > 0) {
    so.flush_policy = std::make_shared<CountPolicy>(options.auto_flush_count);
  } else if (options.flush_deadline.count() > 0) {
    so.flush_policy = std::make_shared<DeadlinePolicy>(options.flush_deadline);
  }
  return std::make_unique<ReoptSession>(registry, so);
}

}  // namespace

/// Relays one session's notifications for one query to its current
/// EventSink (shard-thread calls only; the sink pointer is owned by the
/// GroupQuery and mutated only via shard commands, so no lock is needed).
struct ShardedService::GroupQuery final : public PlanSubscriber {
  uint64_t id = 0;
  uint64_t world_key = 0;
  std::string options_name;
  std::unique_ptr<SummaryCalculator> summaries;
  std::unique_ptr<CostModel> cost_model;
  std::unique_ptr<DeclarativeOptimizer> optimizer;
  EventSink* sink = nullptr;
  /// Declared after the optimizer: released (unregistering from the
  /// session) before the optimizer dies.
  QueryHandle handle;

  void OnPlanChange(const PlanChangeEvent& event) override {
    if (sink == nullptr) return;
    ServerEvent e;
    e.kind = ServerEvent::Kind::kPlanChange;
    e.query_id = id;
    e.world_key = world_key;
    e.flush_epoch = event.flush_epoch;
    e.old_cost = event.old_cost;
    e.new_cost = event.new_cost;
    e.changed_operators = event.diff.changed_operators;
    e.total_operators = event.diff.total_operators;
    e.join_order_prefix = event.diff.join_order_prefix;
    e.join_order_len = event.diff.join_order_len;
    sink->OnServerEvent(e);
  }

  void OnQueryQuarantined(const QueryQuarantinedEvent& event) override {
    if (sink == nullptr) return;
    ServerEvent e;
    e.kind = ServerEvent::Kind::kQuarantine;
    e.query_id = id;
    e.world_key = world_key;
    e.flush_epoch = event.flush_epoch;
    e.reason = static_cast<uint8_t>(event.reason);
    e.strikes = event.strikes;
    e.parked = event.parked;
    e.message = event.message;
    sink->OnServerEvent(e);
  }
};

/// One world: the spec-owned scenario (the enumerator borrows its query),
/// the wired optimization world, the session, and the registered
/// configurations. Destruction order matters: queries release their
/// handles first, then the session unsubscribes from the registry, then
/// the world dies.
struct ShardedService::Group {
  uint64_t world_key = 0;
  uint64_t fingerprint = 0;
  RelSet scope_mask = 0;
  /// Owns catalog + query for the world's lifetime (BuildScenarioWorld's
  /// enumerator keeps a pointer to scenario.query).
  testing::Scenario scenario;
  std::unique_ptr<testing::ScenarioWorld> world;
  std::unique_ptr<ReoptSession> session;
  std::vector<std::unique_ptr<GroupQuery>> queries;  // registration order
};

struct ShardedService::Shard {
  uint32_t index = 0;
  std::thread thread;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> queue;
  bool stop = false;
  /// Shard-thread-only: never touched off-thread.
  std::unordered_map<uint64_t, std::unique_ptr<Group>> groups;
};

ShardedService::ShardedService(ShardedServiceOptions options) : options_(std::move(options)) {
  if (options_.num_shards < 1) options_.num_shards = 1;
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = static_cast<uint32_t>(i);
    Shard* raw = shard.get();
    shard->thread = std::thread([this, raw] { ShardLoop(raw); });
    shards_.push_back(std::move(shard));
  }
}

ShardedService::~ShardedService() {
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lk(shard->mu);
      shard->stop = true;
    }
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  // Groups die on this thread after every shard thread joined — session
  // destructors unsubscribe from their registries with no flush possible.
}

uint32_t ShardedService::ShardOfWorld(uint64_t world_key, RelSet scope_mask, int num_shards) {
  std::string bytes;
  ByteWriter w(&bytes);
  w.PutU64(world_key);
  w.PutU32(scope_mask);
  const uint64_t h = Fnv1a64(bytes.data(), bytes.size());
  return static_cast<uint32_t>(h % static_cast<uint64_t>(num_shards < 1 ? 1 : num_shards));
}

void ShardedService::ShardLoop(Shard* shard) {
  using Clock = std::chrono::steady_clock;
  const bool poll = options_.flush_deadline.count() > 0 && options_.auto_flush_count <= 0;
  Clock::time_point last_poll = Clock::now();
  for (;;) {
    std::function<void()> cmd;
    {
      std::unique_lock<std::mutex> lk(shard->mu);
      const auto ready = [shard] { return shard->stop || !shard->queue.empty(); };
      if (poll) {
        shard->cv.wait_for(lk, options_.poll_granularity, ready);
      } else {
        shard->cv.wait(lk, ready);
      }
      if (!shard->queue.empty()) {
        cmd = std::move(shard->queue.front());
        shard->queue.pop_front();
      } else if (shard->stop) {
        return;
      }
    }
    if (cmd) cmd();
    // Let deadline policies and quarantine backoffs fire: on an idle tick,
    // which lands a whole granularity after the command that armed a
    // deadline, and also between commands once a granularity has passed
    // since the last poll — a shard that receives a command more often
    // than poll_granularity must not starve its quiet worlds' deadlines.
    if (poll && (!cmd || Clock::now() - last_poll >= options_.poll_granularity)) {
      for (auto& [key, group] : shard->groups) group->session->Poll();
      last_poll = Clock::now();
    }
  }
}

void ShardedService::Post(uint32_t shard, std::function<void()> fn) {
  Shard* s = shards_[shard].get();
  {
    std::lock_guard<std::mutex> lk(s->mu);
    s->queue.push_back(std::move(fn));
  }
  s->cv.notify_all();
}

template <typename R, typename F>
void ShardedService::PostDone(uint32_t shard, F fn, Done<R> done) {
  Post(shard, [fn = std::move(fn), done = std::move(done)]() mutable {
    R result{};
    std::exception_ptr error;
    try {
      result = fn();
    } catch (...) {
      error = std::current_exception();
    }
    done(std::move(result), std::move(error));
  });
}

namespace {

/// Runs an async form to completion: `start` receives the Done to hand
/// it, and the caller blocks until that Done ran. Exceptions propagate.
/// The Done moves its result and exception into the caller's frame, so
/// the shard keeps no reference to either once the caller wakes.
template <typename R, typename Start>
R Wait(Start start) {
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  R result{};
  std::exception_ptr error;
  start(ShardedService::Done<R>([&](R r, std::exception_ptr e) {
    std::lock_guard<std::mutex> lk(mu);
    result = std::move(r);
    error = std::move(e);
    ready = true;
    cv.notify_one();
  }));
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return ready; });
  if (error) std::rethrow_exception(error);
  return result;
}

}  // namespace

template <typename F>
auto ShardedService::Call(uint32_t shard, F fn) -> decltype(fn()) {
  using R = decltype(fn());
  return Wait<R>([&](Done<R> done) { PostDone<R>(shard, std::move(fn), std::move(done)); });
}

std::optional<ShardedService::WorldInfo> ShardedService::FindWorld(uint64_t world_key) const {
  std::lock_guard<std::mutex> lk(index_mu_);
  auto it = worlds_.find(world_key);
  if (it == worlds_.end()) return std::nullopt;
  return it->second;
}

std::optional<ShardedService::QueryLoc> ShardedService::FindQuery(uint64_t query_id) const {
  std::lock_guard<std::mutex> lk(index_mu_);
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return std::nullopt;
  return it->second;
}

ShardedService::RegisterResult ShardedService::RegisterOnShard(
    uint32_t shard_idx, uint64_t world_key, const testing::CatalogSpec& catalog,
    const QuerySpec& query, const std::string& options_name, EventSink* sink) {
  const OptimizerOptions* options = FindOptionSet(options_name);
  // Checked by RegisterQuery already; re-checked here because
  // LoadSnapshots funnels through this path too.
  if (options == nullptr) {
    throw ServiceError(WireErrorCode::kUnknownOptions, "unknown option set " + options_name);
  }
  Shard* shard = shards_[shard_idx].get();
  const uint64_t fingerprint = WorldFingerprint(catalog, query);
  Group* group = nullptr;
  auto it = shard->groups.find(world_key);
  if (it != shard->groups.end()) {
    group = it->second.get();
    if (group->fingerprint != fingerprint) {
      throw ServiceError(WireErrorCode::kSpecMismatch,
                         "world key reused with different catalog/query specs");
    }
  } else {
    auto fresh = std::make_unique<Group>();
    fresh->world_key = world_key;
    fresh->fingerprint = fingerprint;
    fresh->scope_mask = query.AllRelations();
    fresh->scenario.catalog = catalog;
    fresh->scenario.query = query;
    fresh->world = testing::BuildScenarioWorld(fresh->scenario);
    fresh->session = NewWorldSession(&fresh->world->registry, options_);
    group = fresh.get();
    shard->groups.emplace(world_key, std::move(fresh));
  }

  auto q = std::make_unique<GroupQuery>();
  q->world_key = world_key;
  q->options_name = options_name;
  q->summaries = std::make_unique<SummaryCalculator>(&group->world->registry);
  q->cost_model = std::make_unique<CostModel>(q->summaries.get());
  q->optimizer = std::make_unique<DeclarativeOptimizer>(
      group->world->enumerator.get(), q->cost_model.get(), &group->world->registry, *options);
  q->optimizer->Optimize();
  q->sink = sink;
  RegisterResult result;
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    q->id = next_query_id_++;
    queries_[q->id] = QueryLoc{shard_idx, world_key};
    // Validation dims come from the BUILT world's registry, not the spec:
    // the join graph may merge parallel join predicates into one edge.
    worlds_[world_key] = WorldInfo{shard_idx, group->world->registry.num_relations(),
                                   group->world->registry.num_edges()};
  }
  try {
    q->handle = group->session->Register(*q->optimizer, q.get());
  } catch (const SessionOverloaded& e) {
    std::lock_guard<std::mutex> lk(index_mu_);
    queries_.erase(q->id);
    throw ServiceError(WireErrorCode::kOverloaded, e.what());
  }
  result.query_id = q->id;
  result.shard = shard_idx;
  result.best_cost = q->optimizer->BestCost();
  group->queries.push_back(std::move(q));
  return result;
}

ShardedService::RegisterResult ShardedService::RegisterQuery(uint64_t world_key,
                                                             const testing::CatalogSpec& catalog,
                                                             const QuerySpec& query,
                                                             const std::string& options_name,
                                                             EventSink* sink) {
  return Wait<RegisterResult>([&](Done<RegisterResult> done) {
    RegisterQueryAsync(world_key, catalog, query, options_name, sink, std::move(done));
  });
}

void ShardedService::RegisterQueryAsync(uint64_t world_key, testing::CatalogSpec catalog,
                                        QuerySpec query, std::string options_name,
                                        EventSink* sink, Done<RegisterResult> done) {
  try {
    if (FindOptionSet(options_name) == nullptr) {
      throw ServiceError(WireErrorCode::kUnknownOptions, "unknown option set " + options_name);
    }
    ValidateSpecs(catalog, query);
  } catch (const ServiceError&) {
    done(RegisterResult{}, std::current_exception());
    return;
  }
  const std::optional<WorldInfo> world = FindWorld(world_key);
  const uint32_t shard =
      world ? world->shard : ShardOfWorld(world_key, query.AllRelations(), num_shards());
  PostDone<RegisterResult>(
      shard,
      [this, shard, world_key, catalog = std::move(catalog), query = std::move(query),
       options_name = std::move(options_name), sink] {
        return RegisterOnShard(shard, world_key, catalog, query, options_name, sink);
      },
      std::move(done));
}

bool ShardedService::ReleaseQuery(uint64_t query_id) {
  return Wait<bool>([&](Done<bool> done) { ReleaseQueryAsync(query_id, std::move(done)); });
}

void ShardedService::ReleaseQueryAsync(uint64_t query_id, Done<bool> done) {
  std::optional<QueryLoc> loc;
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    auto it = queries_.find(query_id);
    if (it != queries_.end()) {
      loc = it->second;
      queries_.erase(it);
    }
  }
  if (!loc) {
    done(false, nullptr);
    return;
  }
  PostDone<bool>(loc->shard, [this, loc = *loc, query_id] {
    Shard* shard = shards_[loc.shard].get();
    auto git = shard->groups.find(loc.world_key);
    if (git == shard->groups.end()) return false;
    auto& queries = git->second->queries;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (queries[i]->id == query_id) {
        queries.erase(queries.begin() + static_cast<ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }, std::move(done));
}

bool ShardedService::SetSink(uint64_t query_id, EventSink* sink) {
  return Wait<bool>([&](Done<bool> done) { SetSinkAsync(query_id, sink, std::move(done)); });
}

void ShardedService::SetSinkAsync(uint64_t query_id, EventSink* sink, Done<bool> done) {
  const std::optional<QueryLoc> loc = FindQuery(query_id);
  if (!loc) {
    done(false, nullptr);
    return;
  }
  PostDone<bool>(loc->shard, [this, loc = *loc, query_id, sink] {
    Shard* shard = shards_[loc.shard].get();
    auto git = shard->groups.find(loc.world_key);
    if (git == shard->groups.end()) return false;
    for (auto& q : git->second->queries) {
      if (q->id == query_id) {
        q->sink = sink;
        return true;
      }
    }
    return false;
  }, std::move(done));
}

size_t ShardedService::RecordStatBatch(uint64_t world_key,
                                       const std::vector<testing::StatMutation>& mutations) {
  const std::optional<WorldInfo> world = FindWorld(world_key);
  if (!world) throw UnknownWorld(world_key);
  const WorldInfo& info = *world;
  std::vector<testing::StatMutation> accepted;
  accepted.reserve(mutations.size());
  size_t rejected = 0;
  for (const testing::StatMutation& m : mutations) {
    if (ValidMutation(m, info.num_relations, info.num_edges)) {
      accepted.push_back(m);
    } else {
      ++rejected;
    }
  }
  if (rejected > 0) {
    std::lock_guard<std::mutex> lk(index_mu_);
    mutations_rejected_ += static_cast<int64_t>(rejected);
  }
  const size_t count = accepted.size();
  if (count == 0) return 0;
  Post(info.shard, [this, shard_idx = info.shard, world_key,
                    muts = std::move(accepted)] {
    Shard* shard = shards_[shard_idx].get();
    auto it = shard->groups.find(world_key);
    if (it == shard->groups.end()) return;  // released between post and run
    for (const testing::StatMutation& m : muts) {
      testing::ApplyMutation(&it->second->world->registry, m);
    }
  });
  return count;
}

size_t ShardedService::Flush(uint64_t world_key) {
  return Wait<size_t>([&](Done<size_t> done) { FlushAsync(world_key, std::move(done)); });
}

void ShardedService::FlushAsync(uint64_t world_key, Done<size_t> done) {
  const std::optional<WorldInfo> world = FindWorld(world_key);
  if (!world) {
    done(0, std::make_exception_ptr(UnknownWorld(world_key)));
    return;
  }
  PostDone<size_t>(world->shard, [this, shard_idx = world->shard, world_key]() -> size_t {
    Shard* shard = shards_[shard_idx].get();
    auto it = shard->groups.find(world_key);
    if (it == shard->groups.end()) return 0;
    return it->second->session->Flush();
  }, std::move(done));
}

size_t ShardedService::FlushAll() {
  // Post to every shard first, then collect — shards flush in parallel.
  std::vector<std::future<size_t>> futures;
  futures.reserve(shards_.size());
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    auto promise = std::make_shared<std::promise<size_t>>();
    futures.push_back(promise->get_future());
    Post(i, [this, i, promise] {
      size_t total = 0;
      for (auto& [key, group] : shards_[i]->groups) total += group->session->Flush();
      promise->set_value(total);
    });
  }
  size_t total = 0;
  for (auto& f : futures) total += f.get();
  return total;
}

void ShardedService::Drain() {
  std::vector<std::future<void>> futures;
  futures.reserve(shards_.size());
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    auto promise = std::make_shared<std::promise<void>>();
    futures.push_back(promise->get_future());
    Post(i, [promise] { promise->set_value(); });
  }
  for (auto& f : futures) f.get();
}

std::string ShardedService::QueryCanonicalDump(uint64_t query_id) {
  const std::optional<QueryLoc> loc = FindQuery(query_id);
  if (!loc) {
    throw ServiceError(WireErrorCode::kUnknownQuery, "unknown query " + std::to_string(query_id));
  }
  return Call(loc->shard, [this, loc = *loc, query_id]() -> std::string {
    Shard* shard = shards_[loc.shard].get();
    auto git = shard->groups.find(loc.world_key);
    if (git == shard->groups.end()) {
      throw ServiceError(WireErrorCode::kUnknownQuery, "query's world is gone");
    }
    for (auto& q : git->second->queries) {
      if (q->id == query_id) return q->optimizer->CanonicalDumpState();
    }
    throw ServiceError(WireErrorCode::kUnknownQuery, "unknown query " + std::to_string(query_id));
  });
}

double ShardedService::QueryBestCost(uint64_t query_id) {
  const std::optional<QueryLoc> loc = FindQuery(query_id);
  if (!loc) {
    throw ServiceError(WireErrorCode::kUnknownQuery, "unknown query " + std::to_string(query_id));
  }
  return Call(loc->shard, [this, loc = *loc, query_id]() -> double {
    Shard* shard = shards_[loc.shard].get();
    auto git = shard->groups.find(loc.world_key);
    if (git == shard->groups.end()) {
      throw ServiceError(WireErrorCode::kUnknownQuery, "query's world is gone");
    }
    for (auto& q : git->second->queries) {
      if (q->id == query_id) return q->optimizer->BestCost();
    }
    throw ServiceError(WireErrorCode::kUnknownQuery, "unknown query " + std::to_string(query_id));
  });
}

namespace {

std::string SnapshotPath(const std::string& dir, uint32_t shard, uint64_t world_key) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/shard%u_world_%016llx.snap", shard,
                static_cast<unsigned long long>(world_key));
  return dir + buf;
}

std::string ManifestPath(const std::string& dir, uint32_t shard) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/shard%u.manifest", shard);
  return dir + buf;
}

}  // namespace

size_t ShardedService::SaveSnapshots() {
  if (options_.snapshot_dir.empty()) {
    throw ServiceError(WireErrorCode::kBadRequest, "service has no snapshot_dir configured");
  }
  size_t total = 0;
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    total += Call(i, [this, i]() -> size_t {
      Shard* shard = shards_[i].get();
      service::SnapshotWriter manifest;
      size_t queries = 0;
      for (auto& [key, group] : shard->groups) {
        std::string record;
        ByteWriter w(&record);
        w.PutU64(group->world_key);
        w.PutU64(group->fingerprint);
        w.PutU32(group->scope_mask);
        EncodeCatalogSpec(&w, group->scenario.catalog);
        EncodeQuerySpec(&w, group->scenario.query);
        w.PutU32(static_cast<uint32_t>(group->queries.size()));
        for (const auto& q : group->queries) {
          w.PutU64(q->id);
          std::string name;
          ByteWriter nw(&name);
          nw.PutU32(static_cast<uint32_t>(q->options_name.size()));
          nw.PutBytes(q->options_name.data(), q->options_name.size());
          w.PutBytes(name.data(), name.size());
        }
        manifest.AddSection(kManifestWorldSection, std::move(record));
        group->session->SaveSnapshot(SnapshotPath(options_.snapshot_dir, i, key));
        queries += group->queries.size();
      }
      manifest.WriteAtomic(ManifestPath(options_.snapshot_dir, i));
      return queries;
    });
  }
  return total;
}

size_t ShardedService::LoadSnapshots() {
  if (options_.snapshot_dir.empty()) {
    throw ServiceError(WireErrorCode::kBadRequest, "service has no snapshot_dir configured");
  }
  if (num_queries() != 0 || num_worlds() != 0) {
    throw ServiceError(WireErrorCode::kBadRequest, "LoadSnapshots requires an empty service");
  }
  size_t total = 0;
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    total += Call(i, [this, i]() -> size_t {
      Shard* shard = shards_[i].get();
      std::unique_ptr<service::SnapshotReader> manifest;
      try {
        manifest = std::make_unique<service::SnapshotReader>(ManifestPath(options_.snapshot_dir, i));
      } catch (const SerializeError& e) {
        if (e.code == SerializeError::Code::kIo) return 0;  // empty shard
        throw;
      }
      size_t restored = 0;
      for (const auto& section : manifest->sections()) {
        if (section.type != kManifestWorldSection) {
          throw SerializeError(SerializeError::Code::kBadSection,
                               "unknown manifest section type " + std::to_string(section.type));
        }
        ByteReader r(section.payload);
        auto group = std::make_unique<Group>();
        group->world_key = r.GetU64();
        group->fingerprint = r.GetU64();
        group->scope_mask = r.GetU32();
        group->scenario.catalog = DecodeCatalogSpec(&r);
        group->scenario.query = DecodeQuerySpec(&r);
        if (WorldFingerprint(group->scenario.catalog, group->scenario.query) !=
            group->fingerprint) {
          throw SerializeError(SerializeError::Code::kMismatch,
                               "manifest world fingerprint disagrees with its specs");
        }
        const uint32_t nqueries = r.GetU32();
        group->world = testing::BuildScenarioWorld(group->scenario);
        group->session = NewWorldSession(&group->world->registry, options_);
        std::vector<DeclarativeOptimizer*> optimizers;
        optimizers.reserve(nqueries);
        for (uint32_t qi = 0; qi < nqueries; ++qi) {
          auto q = std::make_unique<GroupQuery>();
          q->id = r.GetU64();
          const uint32_t name_len = r.GetU32();
          const unsigned char* name = r.GetBytes(name_len);
          q->options_name.assign(reinterpret_cast<const char*>(name), name_len);
          const OptimizerOptions* options = FindOptionSet(q->options_name);
          if (options == nullptr) {
            throw SerializeError(SerializeError::Code::kBadSection,
                                 "manifest names unknown option set " + q->options_name);
          }
          q->world_key = group->world_key;
          q->summaries = std::make_unique<SummaryCalculator>(&group->world->registry);
          q->cost_model = std::make_unique<CostModel>(q->summaries.get());
          q->optimizer = std::make_unique<DeclarativeOptimizer>(group->world->enumerator.get(),
                                                                q->cost_model.get(),
                                                                &group->world->registry, *options);
          optimizers.push_back(q->optimizer.get());
          group->queries.push_back(std::move(q));
        }
        if (!r.AtEnd()) {
          throw SerializeError(SerializeError::Code::kBadSection,
                               "trailing bytes in manifest world record");
        }
        std::vector<QueryHandle> handles = group->session->LoadSnapshot(
            SnapshotPath(options_.snapshot_dir, i, group->world_key), optimizers);
        for (size_t qi = 0; qi < group->queries.size(); ++qi) {
          group->queries[qi]->handle = std::move(handles[qi]);
          // LoadSnapshot attaches no subscribers; re-wire plan-change
          // delivery so kSubscribeQuery (SetSink) works after a warm
          // restart. The sink is still null until a client re-attaches.
          group->queries[qi]->handle.Subscribe(group->queries[qi].get());
        }
        {
          std::lock_guard<std::mutex> lk(index_mu_);
          worlds_[group->world_key] = WorldInfo{i, group->world->registry.num_relations(),
                                                group->world->registry.num_edges()};
          for (const auto& q : group->queries) {
            queries_[q->id] = QueryLoc{i, group->world_key};
            if (q->id >= next_query_id_) next_query_id_ = q->id + 1;
          }
        }
        restored += group->queries.size();
        shard->groups.emplace(group->world_key, std::move(group));
      }
      return restored;
    });
  }
  return total;
}

std::string ShardedService::MetricsText() {
  ReoptSessionMetrics sum;
  std::vector<size_t> shard_queries(shards_.size(), 0);
  size_t worlds = 0;
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    worlds += Call(i, [this, i, &sum, &shard_queries] {
      for (auto& [key, group] : shards_[i]->groups) {
        const ReoptSessionMetrics& m = group->session->metrics();
        sum.mutations_observed += m.mutations_observed;
        sum.flushes += m.flushes;
        sum.empty_flushes += m.empty_flushes;
        sum.changes_flushed += m.changes_flushed;
        sum.reopt_passes += m.reopt_passes;
        sum.queries_skipped += m.queries_skipped;
        sum.eps_seeded += m.eps_seeded;
        sum.plan_changes += m.plan_changes;
        sum.quarantines += m.quarantines;
        sum.rehabilitations += m.rehabilitations;
        sum.queries_parked += m.queries_parked;
        sum.watermark_flushes += m.watermark_flushes;
        sum.evictions += m.evictions;
        sum.rehydrations += m.rehydrations;
        sum.resident_memo_bytes += m.resident_memo_bytes;
        shard_queries[i] += group->queries.size();
      }
      return shards_[i]->groups.size();
    });
  }
  std::string out = PrometheusSessionText(sum, "");
  char buf[96];
  out += "# TYPE iqro_service_shards gauge\n";
  std::snprintf(buf, sizeof(buf), "iqro_service_shards %zu\n", shards_.size());
  out += buf;
  out += "# TYPE iqro_service_worlds gauge\n";
  std::snprintf(buf, sizeof(buf), "iqro_service_worlds %zu\n", worlds);
  out += buf;
  out += "# TYPE iqro_service_queries gauge\n";
  std::snprintf(buf, sizeof(buf), "iqro_service_queries %zu\n", num_queries());
  out += buf;
  out += "# TYPE iqro_shard_queries gauge\n";
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "iqro_shard_queries{shard=\"%u\"} %zu\n", i, shard_queries[i]);
    out += buf;
  }
  return out;
}

ShardedServiceStats ShardedService::Stats() {
  ShardedServiceStats stats;
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    stats.worlds += Call(i, [this, i, &stats] {
      for (auto& [key, group] : shards_[i]->groups) {
        const ReoptSessionMetrics& m = group->session->metrics();
        stats.queries += static_cast<int64_t>(group->queries.size());
        stats.flushes += m.flushes;
        stats.changes_flushed += m.changes_flushed;
        stats.plan_changes += m.plan_changes;
        stats.mutations_observed += m.mutations_observed;
        stats.quarantines += m.quarantines;
      }
      return static_cast<int64_t>(shards_[i]->groups.size());
    });
  }
  std::lock_guard<std::mutex> lk(index_mu_);
  stats.mutations_rejected = mutations_rejected_;
  return stats;
}

size_t ShardedService::num_queries() const {
  std::lock_guard<std::mutex> lk(index_mu_);
  return queries_.size();
}

size_t ShardedService::num_worlds() const {
  std::lock_guard<std::mutex> lk(index_mu_);
  return worlds_.size();
}

}  // namespace iqro::server
