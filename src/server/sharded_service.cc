#include "server/sharded_service.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <numeric>
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

namespace iqro::server {

namespace {

/// Manifest section type: one serialized world record (specs + query
/// configurations) per section.
constexpr uint32_t kManifestWorldSection = 1;

const OptimizerOptions& OptionSetOrThrow(const std::string& name) {
  const OptimizerOptions* options = FindOptionSet(name);
  if (options == nullptr) {
    throw ServiceError(WireErrorCode::kUnknownOptions, "unknown option set " + name);
  }
  return *options;
}

/// A mutation the registry would reject or that targets state outside the
/// world is dropped at the door — a hostile client must not be able to
/// crash a shard or poison a world it shares.
bool ValidMutation(const StatMutation& m, int num_relations, int num_edges) {
  if (!std::isfinite(m.value) || m.value <= 0) return false;
  const RelSet all = num_relations >= 32 ? ~RelSet{0} : (RelSet{1} << num_relations) - 1;
  switch (m.kind) {
    case StatMutation::Kind::kBaseRows:
    case StatMutation::Kind::kLocalSelectivity:
    case StatMutation::Kind::kRowWidth:
    case StatMutation::Kind::kScanCost:
      return m.target >= 0 && m.target < num_relations;
    case StatMutation::Kind::kJoinSelectivity:
      return m.target >= 0 && m.target < num_edges;
    case StatMutation::Kind::kCardMultiplier:
      return m.scope != 0 && (m.scope & ~all) == 0;
  }
  return false;
}

/// Adds every counter of `m`, and its resident-bytes gauge, to `sum`.
void AddSessionMetrics(ReoptSessionMetrics* sum, const ReoptSessionMetrics& m) {
  sum->mutations_observed += m.mutations_observed;
  sum->flushes += m.flushes;
  sum->empty_flushes += m.empty_flushes;
  sum->changes_flushed += m.changes_flushed;
  sum->reopt_passes += m.reopt_passes;
  sum->queries_skipped += m.queries_skipped;
  sum->eps_seeded += m.eps_seeded;
  sum->plan_changes += m.plan_changes;
  sum->quarantines += m.quarantines;
  sum->rehabilitations += m.rehabilitations;
  sum->queries_parked += m.queries_parked;
  sum->evictions += m.evictions;
  sum->rehydrations += m.rehydrations;
  sum->resident_memo_bytes += m.resident_memo_bytes;
}

ServiceError UnknownWorld(uint64_t world_key) {
  return ServiceError(WireErrorCode::kUnknownWorld,
                      "no world registered under key " + std::to_string(world_key));
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

/// One world: its catalog spec (kept for snapshots), the built world
/// (which owns the query), the session, and the registered
/// configurations. Destruction order matters: queries release their
/// handles first, then the session unsubscribes from the registry, then
/// the world dies.
struct ShardedService::Group {
  uint64_t world_key = 0;
  uint64_t fingerprint = 0;
  CatalogSpec catalog;
  std::unique_ptr<QueryContext> world;
  std::unique_ptr<ReoptSession> session;
  std::vector<std::unique_ptr<GroupQuery>> queries;  // registration order
};

/// One shard's worlds, summed on its thread.
struct ShardedService::ShardTotals {
  ReoptSessionMetrics sessions;
  size_t worlds = 0;
  size_t queries = 0;
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

template <typename F>
auto ShardedService::OnEveryShard(F fn) {
  using R = decltype(fn(0u));
  std::vector<R> results(shards_.size());
  std::vector<std::exception_ptr> errors(shards_.size());
  // Post to every shard first, then wait for the last one: shards run in
  // parallel, and each writes only its own slot.
  Wait<bool>([&](Done<bool> all_done) {
    auto pending = std::make_shared<std::atomic<size_t>>(shards_.size());
    for (uint32_t i = 0; i < shards_.size(); ++i) {
      PostDone<R>(i, [&fn, i] { return fn(i); },
                  [&results, &errors, i, pending, all_done](R r, std::exception_ptr e) {
                    results[i] = std::move(r);
                    errors[i] = std::move(e);
                    if (pending->fetch_sub(1) == 1) all_done(true, nullptr);
                  });
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

std::unique_ptr<ShardedService::Group> ShardedService::NewGroup(uint64_t world_key,
                                                                CatalogSpec catalog,
                                                                QuerySpec query) const {
  // Specs come from clients and snapshot manifests: the wire codec caps
  // sizes, WorldSpecError checks everything BuildWorld would trip over.
  const std::string error = WorldSpecError(catalog, query);
  if (!error.empty()) throw ServiceError(WireErrorCode::kBadRequest, error);
  auto group = std::make_unique<Group>();
  group->world_key = world_key;
  group->fingerprint = WorldFingerprint(catalog, query);
  group->world = BuildWorld(catalog, std::move(query));
  group->catalog = std::move(catalog);
  ReoptSessionOptions so;
  so.per_query_work_budget = options_.per_query_work_budget;
  so.memo_byte_budget = options_.memo_byte_budget;
  if (options_.auto_flush_count > 0) {
    so.flush_policy = std::make_shared<CountPolicy>(options_.auto_flush_count);
  } else if (options_.flush_deadline.count() > 0) {
    so.flush_policy = std::make_shared<DeadlinePolicy>(options_.flush_deadline);
  }
  group->session = std::make_unique<ReoptSession>(&group->world->registry, so);
  return group;
}

std::unique_ptr<ShardedService::GroupQuery> ShardedService::NewQuery(const Group& group,
                                                                     std::string options_name) {
  const OptimizerOptions& options = OptionSetOrThrow(options_name);
  auto q = std::make_unique<GroupQuery>();
  q->world_key = group.world_key;
  q->options_name = std::move(options_name);
  q->summaries = std::make_unique<SummaryCalculator>(&group.world->registry);
  q->cost_model = std::make_unique<CostModel>(q->summaries.get());
  q->optimizer = std::make_unique<DeclarativeOptimizer>(
      group.world->enumerator.get(), q->cost_model.get(), &group.world->registry, options);
  return q;
}

void ShardedService::IndexQuery(uint32_t shard, const Group& group, GroupQuery* q) {
  std::lock_guard<std::mutex> lk(index_mu_);
  if (q->id == 0) q->id = next_query_id_;
  next_query_id_ = std::max(next_query_id_, q->id + 1);
  queries_[q->id] = QueryLoc{shard, group.world_key};
  // Validation dims come from the BUILT world's registry, not the spec:
  // the join graph may merge parallel join predicates into one edge.
  worlds_[group.world_key] = WorldInfo{shard, group.world->registry.num_relations(),
                                       group.world->registry.num_edges()};
}

ShardedService::Group* ShardedService::GroupOnShard(uint32_t shard, uint64_t world_key) {
  auto it = shards_[shard]->groups.find(world_key);
  return it == shards_[shard]->groups.end() ? nullptr : it->second.get();
}

std::pair<ShardedService::Group*, size_t> ShardedService::QueryOnShard(const QueryLoc& loc,
                                                                       uint64_t query_id) {
  Group* group = GroupOnShard(loc.shard, loc.world_key);
  for (size_t i = 0; group != nullptr && i < group->queries.size(); ++i) {
    if (group->queries[i]->id == query_id) return {group, i};
  }
  return {nullptr, 0};
}

template <typename F>
auto ShardedService::ReadQuery(uint64_t query_id, F fn) {
  using R = decltype(fn(std::declval<GroupQuery&>()));
  const std::optional<QueryLoc> loc = FindQuery(query_id);
  const auto unknown = [query_id] {
    return ServiceError(WireErrorCode::kUnknownQuery, "unknown query " + std::to_string(query_id));
  };
  if (!loc) throw unknown();
  return Wait<R>([&](Done<R> done) {
    PostDone<R>(loc->shard, [&] {
      auto [group, i] = QueryOnShard(*loc, query_id);
      if (group == nullptr) throw unknown();
      return fn(*group->queries[i]);
    }, std::move(done));
  });
}

ShardedService::RegisterResult ShardedService::RegisterOnShard(
    uint32_t shard_idx, uint64_t world_key, const CatalogSpec& catalog, const QuerySpec& query,
    const std::string& options_name, EventSink* sink) {
  Group* group = GroupOnShard(shard_idx, world_key);
  if (group == nullptr) {
    auto fresh = NewGroup(world_key, catalog, query);
    group = fresh.get();
    shards_[shard_idx]->groups.emplace(world_key, std::move(fresh));
  } else if (group->fingerprint != WorldFingerprint(catalog, query)) {
    throw ServiceError(WireErrorCode::kSpecMismatch,
                       "world key reused with different catalog/query specs");
  }
  auto q = NewQuery(*group, options_name);
  q->optimizer->Optimize();
  q->sink = sink;
  IndexQuery(shard_idx, *group, q.get());
  q->handle = group->session->Register(*q->optimizer, q.get());
  const RegisterResult result{q->id, shard_idx, q->optimizer->BestCost()};
  group->queries.push_back(std::move(q));
  return result;
}

ShardedService::RegisterResult ShardedService::RegisterQuery(uint64_t world_key,
                                                             const CatalogSpec& catalog,
                                                             const QuerySpec& query,
                                                             const std::string& options_name,
                                                             EventSink* sink) {
  return Wait<RegisterResult>([&](Done<RegisterResult> done) {
    RegisterQueryAsync(world_key, catalog, query, options_name, sink, std::move(done));
  });
}

void ShardedService::RegisterQueryAsync(uint64_t world_key, CatalogSpec catalog,
                                        QuerySpec query, std::string options_name,
                                        EventSink* sink, Done<RegisterResult> done) {
  try {
    OptionSetOrThrow(options_name);
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
    auto [group, i] = QueryOnShard(loc, query_id);
    if (group != nullptr) group->queries.erase(group->queries.begin() + static_cast<ptrdiff_t>(i));
    return group != nullptr;
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
    auto [group, i] = QueryOnShard(loc, query_id);
    if (group != nullptr) group->queries[i]->sink = sink;
    return group != nullptr;
  }, std::move(done));
}

size_t ShardedService::RecordStatBatch(uint64_t world_key,
                                       const std::vector<StatMutation>& mutations) {
  const std::optional<WorldInfo> world = FindWorld(world_key);
  if (!world) throw UnknownWorld(world_key);
  const WorldInfo& info = *world;
  std::vector<StatMutation> accepted;
  accepted.reserve(mutations.size());
  size_t rejected = 0;
  for (const StatMutation& m : mutations) {
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
  Post(info.shard, [this, shard = info.shard, world_key, muts = std::move(accepted)] {
    Group* group = GroupOnShard(shard, world_key);
    if (group == nullptr) return;
    for (const StatMutation& m : muts) ApplyMutation(&group->world->registry, m);
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
  PostDone<size_t>(world->shard, [this, shard = world->shard, world_key]() -> size_t {
    Group* group = GroupOnShard(shard, world_key);
    return group == nullptr ? 0 : group->session->Flush();
  }, std::move(done));
}

size_t ShardedService::FlushAll() {
  const std::vector<size_t> flushed = OnEveryShard([this](uint32_t i) {
    size_t total = 0;
    for (auto& [key, group] : shards_[i]->groups) total += group->session->Flush();
    return total;
  });
  return std::accumulate(flushed.begin(), flushed.end(), size_t{0});
}

void ShardedService::Drain() {
  OnEveryShard([](uint32_t) { return 0; });
}

std::string ShardedService::QueryCanonicalDump(uint64_t query_id) {
  return ReadQuery(query_id, [](GroupQuery& q) { return q.optimizer->CanonicalDumpState(); });
}

double ShardedService::QueryBestCost(uint64_t query_id) {
  return ReadQuery(query_id, [](GroupQuery& q) { return q.optimizer->BestCost(); });
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
  const std::vector<size_t> saved = OnEveryShard([this](uint32_t i) {
    service::SnapshotWriter manifest;
    size_t queries = 0;
    for (auto& [key, group] : shards_[i]->groups) {
      std::string record;
      ByteWriter w(&record);
      w.PutU64(group->world_key);
      w.PutU64(group->fingerprint);
      w.PutU32(group->world->query.AllRelations());
      EncodeCatalogSpec(&w, group->catalog);
      EncodeQuerySpec(&w, group->world->query);
      w.PutU32(static_cast<uint32_t>(group->queries.size()));
      for (const auto& q : group->queries) {
        w.PutU64(q->id);
        w.PutU32(static_cast<uint32_t>(q->options_name.size()));
        w.PutBytes(q->options_name.data(), q->options_name.size());
      }
      manifest.AddSection(kManifestWorldSection, std::move(record));
      group->session->SaveSnapshot(SnapshotPath(options_.snapshot_dir, i, key));
      queries += group->queries.size();
    }
    manifest.WriteAtomic(ManifestPath(options_.snapshot_dir, i));
    return queries;
  });
  return std::accumulate(saved.begin(), saved.end(), size_t{0});
}

size_t ShardedService::LoadSnapshots() {
  if (options_.snapshot_dir.empty()) {
    throw ServiceError(WireErrorCode::kBadRequest, "service has no snapshot_dir configured");
  }
  if (num_queries() != 0 || num_worlds() != 0) {
    throw ServiceError(WireErrorCode::kBadRequest, "LoadSnapshots requires an empty service");
  }
  const std::vector<size_t> restored = OnEveryShard([this](uint32_t i) -> size_t {
    std::unique_ptr<service::SnapshotReader> manifest;
    try {
      manifest = std::make_unique<service::SnapshotReader>(ManifestPath(options_.snapshot_dir, i));
    } catch (const SerializeError& e) {
      if (e.code == SerializeError::Code::kIo) return 0;  // empty shard
      throw;
    }
    size_t queries = 0;
    for (const auto& section : manifest->sections()) {
      if (section.type != kManifestWorldSection) {
        throw SerializeError(SerializeError::Code::kBadSection,
                             "unknown manifest section type " + std::to_string(section.type));
      }
      ByteReader r(section.payload);
      const uint64_t world_key = r.GetU64();
      const uint64_t fingerprint = r.GetU64();
      r.GetU32();  // scope mask: the query's relations, rederived on build
      CatalogSpec catalog = DecodeCatalogSpec(&r);
      QuerySpec query = DecodeQuerySpec(&r);
      if (WorldFingerprint(catalog, query) != fingerprint) {
        throw SerializeError(SerializeError::Code::kMismatch,
                             "manifest world fingerprint disagrees with its specs");
      }
      std::unique_ptr<Group> group;
      std::vector<DeclarativeOptimizer*> optimizers;
      try {
        group = NewGroup(world_key, std::move(catalog), std::move(query));
        const uint32_t nqueries = r.GetU32();
        for (uint32_t qi = 0; qi < nqueries; ++qi) {
          const uint64_t id = r.GetU64();
          const uint32_t name_len = r.GetU32();
          const unsigned char* name = r.GetBytes(name_len);
          group->queries.push_back(
              NewQuery(*group, std::string(reinterpret_cast<const char*>(name), name_len)));
          group->queries.back()->id = id;
          optimizers.push_back(group->queries.back()->optimizer.get());
        }
      } catch (const ServiceError& e) {
        throw SerializeError(SerializeError::Code::kBadSection,
                             std::string("manifest world record: ") + e.what());
      }
      if (!r.AtEnd()) {
        throw SerializeError(SerializeError::Code::kBadSection,
                             "trailing bytes in manifest world record");
      }
      std::vector<QueryHandle> handles = group->session->LoadSnapshot(
          SnapshotPath(options_.snapshot_dir, i, world_key), optimizers);
      for (size_t qi = 0; qi < group->queries.size(); ++qi) {
        GroupQuery& q = *group->queries[qi];
        q.handle = std::move(handles[qi]);
        // LoadSnapshot attaches no subscribers; re-wire plan-change
        // delivery so kSubscribeQuery (SetSink) works after a warm
        // restart. The sink is still null until a client re-attaches.
        q.handle.Subscribe(&q);
        IndexQuery(i, *group, &q);
      }
      queries += group->queries.size();
      shards_[i]->groups.emplace(world_key, std::move(group));
    }
    return queries;
  });
  return std::accumulate(restored.begin(), restored.end(), size_t{0});
}

std::vector<ShardedService::ShardTotals> ShardedService::CollectTotals() {
  return OnEveryShard([this](uint32_t i) {
    ShardTotals t;
    t.worlds = shards_[i]->groups.size();
    for (auto& [key, group] : shards_[i]->groups) {
      AddSessionMetrics(&t.sessions, group->session->metrics());
      t.queries += group->queries.size();
    }
    return t;
  });
}

std::string ShardedService::MetricsText() {
  const std::vector<ShardTotals> totals = CollectTotals();
  ReoptSessionMetrics sum;
  size_t worlds = 0;
  for (const ShardTotals& t : totals) {
    AddSessionMetrics(&sum, t.sessions);
    worlds += t.worlds;
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
  for (uint32_t i = 0; i < totals.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "iqro_shard_queries{shard=\"%u\"} %zu\n", i,
                  totals[i].queries);
    out += buf;
  }
  return out;
}

ShardedServiceStats ShardedService::Stats() {
  ShardedServiceStats stats;
  for (const ShardTotals& t : CollectTotals()) {
    stats.worlds += static_cast<int64_t>(t.worlds);
    stats.queries += static_cast<int64_t>(t.queries);
    stats.flushes += t.sessions.flushes;
    stats.changes_flushed += t.sessions.changes_flushed;
    stats.plan_changes += t.sessions.plan_changes;
    stats.mutations_observed += t.sessions.mutations_observed;
    stats.quarantines += t.sessions.quarantines;
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
