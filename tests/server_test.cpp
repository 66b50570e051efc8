// Server-layer tests: wire codec round-trips and the corrupt-frame corpus
// (tools/make_wire_corpus.py), shard-routing determinism — the same stream
// through a 1-shard service, a 4-shard service, and a single in-process
// ReoptSession oracle must land every query in byte-identical
// CanonicalDumpState — snapshot fan-out across a service restart, and the
// daemon end-to-end over a Unix socket (register, churn, events, metrics
// scrape, snapshot, warm-restart, malformed-frame isolation), and the
// daemon's concurrency contract: a flush held on one shard blocks neither
// other connections nor deadline polling, pipelined requests on one
// connection answer in order with each flush's events first, and a client
// hanging up mid-flush leaves the daemon serving.
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/declarative_optimizer.h"
#include "cost/cost_model.h"
#include "gtest/gtest.h"
#include "server/client.h"
#include "server/daemon.h"
#include "server/sharded_service.h"
#include "server/wire.h"
#include "service/metrics_exporter.h"
#include "service/reopt_session.h"
#include "service/snapshot.h"
#include "stats/summary.h"
#include "testing/differential.h"
#include "testing/scenario.h"
#include "workload/world.h"

namespace iqro {
namespace {

using server::Client;
using server::ClientError;
using server::Daemon;
using server::DaemonOptions;
using server::EventSink;
using server::MsgType;
using server::ServerEvent;
using server::ServerMessage;
using server::ServiceError;
using server::ShardedService;
using server::ShardedServiceOptions;
using server::WireErrorCode;

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path << " (regenerate: tools/make_wire_corpus.py)";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Thread-safe test sink recording per-query event counts (shard-thread
/// delivery contract).
class CountingSink final : public EventSink {
 public:
  void OnServerEvent(const ServerEvent& event) override {
    std::lock_guard<std::mutex> lk(mu_);
    if (event.kind == ServerEvent::Kind::kPlanChange) {
      ++plan_changes_[event.query_id];
    } else {
      ++quarantines_;
    }
  }
  int plan_changes(uint64_t query_id) {
    std::lock_guard<std::mutex> lk(mu_);
    return plan_changes_[query_id];
  }
  int total_plan_changes() {
    std::lock_guard<std::mutex> lk(mu_);
    int total = 0;
    for (const auto& [id, n] : plan_changes_) total += n;
    return total;
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, int> plan_changes_;
  int quarantines_ = 0;
};

/// A sink that blocks the shard thread inside its first event until
/// Release() — holds one shard mid-flush.
class LatchSink final : public EventSink {
 public:
  void OnServerEvent(const ServerEvent&) override {
    std::unique_lock<std::mutex> lk(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lk, [this] { return released_; });
  }
  bool WaitEntered(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lk(mu_);
    return cv_.wait_for(lk, timeout, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lk(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

/// Releases a LatchSink on scope exit, so a failed assertion cannot leave
/// a shard blocked while the daemon shuts down. Declare it after the
/// daemon and after anything that waits on the held shard.
struct ReleaseOnExit {
  LatchSink& latch;
  ~ReleaseOnExit() { latch.Release(); }
};

/// Records when the first event arrived.
class FirstEventSink final : public EventSink {
 public:
  void OnServerEvent(const ServerEvent&) override {
    std::lock_guard<std::mutex> lk(mu_);
    if (!seen_) first_ = std::chrono::steady_clock::now();
    seen_ = true;
    cv_.notify_all();
  }
  bool Wait(std::chrono::milliseconds timeout, std::chrono::steady_clock::time_point* at) {
    std::unique_lock<std::mutex> lk(mu_);
    if (!cv_.wait_for(lk, timeout, [this] { return seen_; })) return false;
    *at = first_;
    return true;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool seen_ = false;
  std::chrono::steady_clock::time_point first_;
};

/// Oracle-side plan-change counter.
class CountingSubscriber final : public PlanSubscriber {
 public:
  void OnPlanChange(const PlanChangeEvent&) override { ++plan_changes; }
  int plan_changes = 0;
};

const OptimizerOptions& NamedOptions(const std::string& name) {
  for (const auto& [set_name, options] : NamedOptionSets()) {
    if (set_name == name) return options;
  }
  ADD_FAILURE() << "unknown option set " << name;
  static OptimizerOptions fallback;
  return fallback;
}

/// A small synthetic 3-relation chain world whose plan flips when base
/// rows move by orders of magnitude — the hand-built daemon test spec.
CatalogSpec SmallCatalog() {
  CatalogSpec catalog;
  for (int i = 0; i < 3; ++i) {
    SyntheticTableSpec t;
    t.name = "t" + std::to_string(i);
    t.rows = 1000.0 * (i + 1);
    t.width = 8;
    t.cols.push_back({0, 999, 500});
    t.hist_seed = 7 + static_cast<uint64_t>(i);
    catalog.tables.push_back(std::move(t));
  }
  return catalog;
}

QuerySpec SmallChainQuery() {
  QuerySpec q;
  q.name = "chain3";
  for (int i = 0; i < 3; ++i) {
    QueryRelation rel;
    rel.table = i;
    rel.alias = "r" + std::to_string(i);
    q.relations.push_back(std::move(rel));
  }
  JoinPredicate j01;
  j01.left_rel = 0;
  j01.right_rel = 1;
  q.joins.push_back(j01);
  JoinPredicate j12;
  j12.left_rel = 1;
  j12.right_rel = 2;
  q.joins.push_back(j12);
  return q;
}

/// Swings SmallChainQuery's statistics by orders of magnitude so its join
/// order flips; consecutive rounds alternate between the two extremes.
std::vector<StatMutation> FlipBatch(int round) {
  const bool even = round % 2 == 0;
  return {{StatMutation::Kind::kBaseRows, 0, 0, even ? 5e6 : 20.0},
          {StatMutation::Kind::kJoinSelectivity, 0, 0, even ? 1e-4 : 0.5}};
}

// ---- wire codec ------------------------------------------------------------

TEST(WireTest, RegisterQueryRoundTrips) {
  server::RegisterQueryReq req;
  req.world_key = 0xFEEDFACE12345678ull;
  req.want_events = true;
  req.catalog = SmallCatalog();
  req.query = SmallChainQuery();
  req.query.locals.push_back({0, 0, PredOp::kLt, 500, 0});
  req.query.projections.push_back({1, 0});
  req.query.group_by.push_back({2, 0});
  req.query.aggregates.push_back({AggFn::kSum, {0, 0}});
  req.query.relations[1].window.kind = WindowSpec::Kind::kTuples;
  req.query.relations[1].window.size = 64;
  req.options_name = "aggsel";

  const std::string image = EncodeRegisterQuery(41, req);
  const std::vector<std::string> payloads = server::DecodeFrames(image);
  ASSERT_EQ(payloads.size(), 1u);
  const server::Request out = server::DecodeRequest(payloads[0]);
  EXPECT_EQ(out.type, MsgType::kRegisterQuery);
  EXPECT_EQ(out.request_id, 41u);
  EXPECT_EQ(out.register_query.world_key, req.world_key);
  EXPECT_TRUE(out.register_query.want_events);
  EXPECT_EQ(out.register_query.options_name, "aggsel");
  EXPECT_EQ(out.register_query.catalog.tables.size(), 3u);
  EXPECT_EQ(out.register_query.catalog.tables[2].name, "t2");
  EXPECT_DOUBLE_EQ(out.register_query.catalog.tables[1].rows, 2000.0);
  EXPECT_EQ(out.register_query.query.relations.size(), 3u);
  EXPECT_EQ(out.register_query.query.relations[1].window.kind, WindowSpec::Kind::kTuples);
  EXPECT_EQ(out.register_query.query.joins.size(), 2u);
  EXPECT_EQ(out.register_query.query.locals.size(), 1u);
  EXPECT_EQ(out.register_query.query.aggregates.size(), 1u);
  // The fingerprint is a pure function of the specs: identical through the
  // codec, different once the query changes.
  EXPECT_EQ(server::WorldFingerprint(req.catalog, req.query),
            server::WorldFingerprint(out.register_query.catalog, out.register_query.query));
  QuerySpec changed = req.query;
  changed.joins[0].op = PredOp::kLt;
  EXPECT_NE(server::WorldFingerprint(req.catalog, changed),
            server::WorldFingerprint(req.catalog, req.query));
}

TEST(WireTest, MutationBatchAndControlRequestsRoundTrip) {
  server::RecordStatBatchReq batch;
  batch.world_key = 99;
  batch.mutations.push_back({StatMutation::Kind::kBaseRows, 2, 0, 5e6});
  batch.mutations.push_back({StatMutation::Kind::kJoinSelectivity, 1, 0, 0.25});
  batch.mutations.push_back({StatMutation::Kind::kCardMultiplier, 0, 0x5, 3.5});

  std::string image = server::EncodeRecordStatBatch(1, batch);
  image += server::EncodeFlush(2, {true, 0});
  image += server::EncodeFlush(3, {false, 99});
  image += server::EncodeReleaseQuery(4, 12);
  image += server::EncodeSubscribeQuery(5, 12);
  image += server::EncodeSimpleRequest(MsgType::kSnapshot, 6);
  image += server::EncodeSimpleRequest(MsgType::kGetMetrics, 7);
  image += server::EncodeSimpleRequest(MsgType::kShutdown, 8);

  const std::vector<std::string> payloads = server::DecodeFrames(image);
  ASSERT_EQ(payloads.size(), 8u);
  const server::Request b = server::DecodeRequest(payloads[0]);
  ASSERT_EQ(b.type, MsgType::kRecordStatBatch);
  ASSERT_EQ(b.record_stat_batch.mutations.size(), 3u);
  EXPECT_EQ(b.record_stat_batch.mutations[0].kind, StatMutation::Kind::kBaseRows);
  EXPECT_DOUBLE_EQ(b.record_stat_batch.mutations[0].value, 5e6);
  EXPECT_EQ(b.record_stat_batch.mutations[2].scope, 0x5u);
  EXPECT_TRUE(server::DecodeRequest(payloads[1]).flush.all);
  const server::Request f = server::DecodeRequest(payloads[2]);
  EXPECT_FALSE(f.flush.all);
  EXPECT_EQ(f.flush.world_key, 99u);
  EXPECT_EQ(server::DecodeRequest(payloads[3]).release_query.query_id, 12u);
  EXPECT_EQ(server::DecodeRequest(payloads[4]).subscribe_query.query_id, 12u);
  EXPECT_EQ(server::DecodeRequest(payloads[5]).type, MsgType::kSnapshot);
  EXPECT_EQ(server::DecodeRequest(payloads[6]).type, MsgType::kGetMetrics);
  EXPECT_EQ(server::DecodeRequest(payloads[7]).type, MsgType::kShutdown);
}

TEST(WireTest, ServerMessagesRoundTrip) {
  std::string image = server::EncodeRegistered(11, {42, 3, 123.5});
  image += server::EncodeOk(12, 77);
  image += server::EncodeError(13, WireErrorCode::kSpecMismatch, "specs differ");
  image += server::EncodeMetricsText(14, "# TYPE x counter\nx 1\n");
  server::PlanChangeEventMsg pc;
  pc.query_id = 42;
  pc.world_key = 9;
  pc.flush_epoch = 5;
  pc.old_cost = 10.0;
  pc.new_cost = 4.0;
  pc.changed_operators = 2;
  pc.total_operators = 5;
  pc.join_order_prefix = 1;
  pc.join_order_len = 3;
  image += server::EncodePlanChangeEvent(pc);
  server::QuarantineEventMsg qe;
  qe.query_id = 42;
  qe.world_key = 9;
  qe.reason = 1;
  qe.strikes = 2;
  qe.parked = true;
  qe.message = "work budget exceeded";
  image += server::EncodeQuarantineEvent(qe);

  const std::vector<std::string> payloads = server::DecodeFrames(image);
  ASSERT_EQ(payloads.size(), 6u);
  const server::ServerMessage reg = server::DecodeServerMessage(payloads[0]);
  EXPECT_EQ(reg.type, MsgType::kRegistered);
  EXPECT_EQ(reg.request_id, 11u);
  EXPECT_EQ(reg.registered.query_id, 42u);
  EXPECT_EQ(reg.registered.shard, 3u);
  EXPECT_DOUBLE_EQ(reg.registered.best_cost, 123.5);
  EXPECT_EQ(server::DecodeServerMessage(payloads[1]).ok.value, 77u);
  const server::ServerMessage err = server::DecodeServerMessage(payloads[2]);
  EXPECT_EQ(err.error.code, WireErrorCode::kSpecMismatch);
  EXPECT_EQ(err.error.message, "specs differ");
  EXPECT_EQ(server::DecodeServerMessage(payloads[3]).metrics.text, "# TYPE x counter\nx 1\n");
  const server::ServerMessage ev = server::DecodeServerMessage(payloads[4]);
  EXPECT_EQ(ev.type, MsgType::kPlanChange);
  EXPECT_EQ(ev.request_id, 0u) << "events carry request id 0";
  EXPECT_EQ(ev.plan_change.query_id, 42u);
  EXPECT_DOUBLE_EQ(ev.plan_change.new_cost, 4.0);
  EXPECT_EQ(ev.plan_change.join_order_len, 3);
  const server::ServerMessage qv = server::DecodeServerMessage(payloads[5]);
  EXPECT_EQ(qv.type, MsgType::kQuarantine);
  EXPECT_TRUE(qv.quarantine.parked);
  EXPECT_EQ(qv.quarantine.message, "work budget exceeded");
}

TEST(WireTest, FrameDecoderReassemblesSplitFeeds) {
  std::string image = server::EncodeFlush(1, {false, 5});
  image += server::EncodeFlush(2, {true, 0});
  image += server::EncodeReleaseQuery(3, 9);

  server::FrameDecoder dec;
  std::vector<std::string> payloads;
  std::string payload;
  // One byte at a time: reassembly must be position-independent.
  for (const char c : image) {
    dec.Feed(&c, 1);
    while (dec.Next(&payload)) payloads.push_back(payload);
  }
  dec.Finish();
  ASSERT_EQ(payloads.size(), 3u);
  EXPECT_EQ(server::DecodeRequest(payloads[0]).flush.world_key, 5u);
  EXPECT_TRUE(server::DecodeRequest(payloads[1]).flush.all);
  EXPECT_EQ(server::DecodeRequest(payloads[2]).release_query.query_id, 9u);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(WireTest, CorruptCorpusIsRejectedWithTypedErrors) {
  enum class Stage { kFrame, kRequest };
  const struct {
    const char* file;
    Stage stage;
    SerializeError::Code code;
  } corpus[] = {
      {"short_magic.bin", Stage::kFrame, SerializeError::Code::kTruncated},
      {"bad_magic.bin", Stage::kFrame, SerializeError::Code::kBadMagic},
      {"bad_version.bin", Stage::kFrame, SerializeError::Code::kBadVersion},
      {"oversize_len.bin", Stage::kFrame, SerializeError::Code::kBadSection},
      {"truncated_payload.bin", Stage::kFrame, SerializeError::Code::kTruncated},
      {"bad_checksum.bin", Stage::kFrame, SerializeError::Code::kChecksum},
      {"trailing_junk.bin", Stage::kFrame, SerializeError::Code::kBadMagic},
      {"unknown_type.bin", Stage::kRequest, SerializeError::Code::kBadSection},
      {"truncated_body.bin", Stage::kRequest, SerializeError::Code::kTruncated},
      {"trailing_body.bin", Stage::kRequest, SerializeError::Code::kBadSection},
      {"bad_flag.bin", Stage::kRequest, SerializeError::Code::kBadSection},
      {"relations_overflow.bin", Stage::kRequest, SerializeError::Code::kBadSection},
      {"bad_mutation_kind.bin", Stage::kRequest, SerializeError::Code::kBadSection},
  };
  for (const auto& entry : corpus) {
    const std::string image =
        ReadFileOrDie(std::string(IQRO_TEST_DATA_DIR) + "/wire/" + entry.file);
    try {
      const std::vector<std::string> payloads = server::DecodeFrames(image);
      if (entry.stage == Stage::kFrame) {
        FAIL() << entry.file << " framed cleanly; expected " << SerializeErrorCodeName(entry.code);
      }
      ASSERT_EQ(payloads.size(), 1u) << entry.file;
      server::DecodeRequest(payloads[0]);
      FAIL() << entry.file << " decoded cleanly; expected " << SerializeErrorCodeName(entry.code);
    } catch (const SerializeError& e) {
      EXPECT_EQ(e.code, entry.code)
          << entry.file << ": rejected as " << SerializeErrorCodeName(e.code) << ", expected "
          << SerializeErrorCodeName(entry.code);
    }
  }
}

// ---- shard routing ---------------------------------------------------------

TEST(ShardRoutingTest, ShardOfWorldIsPinned) {
  // Pinned values: the routing hash is part of the persistence/restart
  // contract (snapshot manifests name shards), so an accidental change to
  // the hash input layout must fail loudly.
  EXPECT_EQ(ShardedService::ShardOfWorld(1, 0xF, 4), 3u);
  EXPECT_EQ(ShardedService::ShardOfWorld(2, 0xF, 4), 0u);
  EXPECT_EQ(ShardedService::ShardOfWorld(0xDEADBEEF, 0x7, 4), 0u);
  EXPECT_EQ(ShardedService::ShardOfWorld(42, 0x3FF, 4), 1u);
  // Everything maps to shard 0 of a 1-shard service.
  for (uint64_t key = 0; key < 32; ++key) {
    EXPECT_EQ(ShardedService::ShardOfWorld(key, 0xF, 1), 0u);
  }
  // The key salts the hash: worlds sharing one scope-mask alphabet still
  // spread across shards.
  bool hit[4] = {false, false, false, false};
  for (uint64_t key = 0; key < 64; ++key) hit[ShardedService::ShardOfWorld(key, 0xF, 4)] = true;
  EXPECT_TRUE(hit[0] && hit[1] && hit[2] && hit[3]);
}

// The tentpole differential: the same (register, mutate, flush) stream
// through a 1-shard service, a 4-shard service, and a per-world in-process
// ReoptSession oracle must produce byte-identical per-query
// CanonicalDumpState after every flush, and the same plan-change counts.
TEST(ShardedServiceTest, RoutingDifferentialMatchesSingleSessionOracle) {
  const char* env = std::getenv("IQRO_SERVER_DIFF_ITERS");
  const int iters = env != nullptr ? std::atoi(env) : 200;

  struct Oracle {
    testing::Scenario scenario;
    std::unique_ptr<QueryContext> world;
    std::unique_ptr<DeclarativeOptimizer> opt;
    std::unique_ptr<DeclarativeOptimizer> opt_all;  // even seeds: 2nd config
    std::unique_ptr<ReoptSession> session;
    CountingSubscriber sub;
    CountingSubscriber sub_all;
    QueryHandle handle;
    QueryHandle handle_all;
  };

  for (int i = 0; i < iters; ++i) {
    const uint64_t seed = 0x5EED0000u + static_cast<uint64_t>(i);
    SCOPED_TRACE("seed " + std::to_string(seed));
    Oracle oracle;
    oracle.scenario = testing::GenerateScenario(seed);
    const bool two_configs = i % 2 == 0 && oracle.scenario.options_name != "all";
    oracle.world = BuildWorld(oracle.scenario.catalog, oracle.scenario.query);
    oracle.session = std::make_unique<ReoptSession>(&oracle.world->registry);
    oracle.opt = std::make_unique<DeclarativeOptimizer>(
        oracle.world->enumerator.get(), oracle.world->cost_model.get(), &oracle.world->registry,
        oracle.scenario.options);
    oracle.opt->Optimize();
    oracle.handle = oracle.session->Register(*oracle.opt, &oracle.sub);
    if (two_configs) {
      oracle.opt_all = std::make_unique<DeclarativeOptimizer>(
          oracle.world->enumerator.get(), oracle.world->cost_model.get(), &oracle.world->registry,
          NamedOptions("all"));
      oracle.opt_all->Optimize();
      oracle.handle_all = oracle.session->Register(*oracle.opt_all, &oracle.sub_all);
    }

    ShardedService svc1(ShardedServiceOptions{});
    ShardedServiceOptions opts4;
    opts4.num_shards = 4;
    ShardedService svc4(opts4);
    CountingSink sink1;
    CountingSink sink4;
    const uint64_t world_key = seed;

    const auto r1 = svc1.RegisterQuery(world_key, oracle.scenario.catalog, oracle.scenario.query,
                                       oracle.scenario.options_name, &sink1);
    const auto r4 = svc4.RegisterQuery(world_key, oracle.scenario.catalog, oracle.scenario.query,
                                       oracle.scenario.options_name, &sink4);
    EXPECT_DOUBLE_EQ(r1.best_cost, oracle.opt->BestCost());
    EXPECT_DOUBLE_EQ(r4.best_cost, oracle.opt->BestCost());
    EXPECT_EQ(r4.shard,
              ShardedService::ShardOfWorld(world_key, oracle.scenario.query.AllRelations(), 4));
    uint64_t q1_all = 0;
    uint64_t q4_all = 0;
    if (two_configs) {
      q1_all = svc1.RegisterQuery(world_key, oracle.scenario.catalog, oracle.scenario.query,
                                  "all", &sink1)
                   .query_id;
      q4_all = svc4.RegisterQuery(world_key, oracle.scenario.catalog, oracle.scenario.query,
                                  "all", &sink4)
                   .query_id;
    }

    for (size_t step = 0; step < oracle.scenario.churn.size(); ++step) {
      const auto& mutations = oracle.scenario.churn[step].mutations;
      for (const StatMutation& m : mutations) {
        ApplyMutation(&oracle.world->registry, m);
      }
      oracle.session->Flush();
      ASSERT_EQ(svc1.RecordStatBatch(world_key, mutations), mutations.size());
      ASSERT_EQ(svc4.RecordStatBatch(world_key, mutations), mutations.size());
      svc1.Flush(world_key);
      svc4.Flush(world_key);

      const std::string want = oracle.opt->CanonicalDumpState();
      ASSERT_EQ(svc1.QueryCanonicalDump(r1.query_id), want)
          << "1-shard diverged from oracle at churn step " << step;
      ASSERT_EQ(svc4.QueryCanonicalDump(r4.query_id), want)
          << "4-shard diverged from oracle at churn step " << step;
      if (two_configs) {
        const std::string want_all = oracle.opt_all->CanonicalDumpState();
        ASSERT_EQ(svc1.QueryCanonicalDump(q1_all), want_all) << "churn step " << step;
        ASSERT_EQ(svc4.QueryCanonicalDump(q4_all), want_all) << "churn step " << step;
      }
    }

    // Notification parity: the sharded services must deliver exactly the
    // oracle's plan-change stream, query by query.
    svc1.Drain();
    svc4.Drain();
    EXPECT_EQ(sink1.plan_changes(r1.query_id), oracle.sub.plan_changes);
    EXPECT_EQ(sink4.plan_changes(r4.query_id), oracle.sub.plan_changes);
    if (two_configs) {
      EXPECT_EQ(sink1.plan_changes(q1_all), oracle.sub_all.plan_changes);
      EXPECT_EQ(sink4.plan_changes(q4_all), oracle.sub_all.plan_changes);
    }
  }
}

TEST(ShardedServiceTest, RejectsBadRegistrationsAndMutations) {
  ShardedService svc(ShardedServiceOptions{});
  const CatalogSpec catalog = SmallCatalog();
  const QuerySpec query = SmallChainQuery();

  // Unknown option set / structurally bad specs.
  EXPECT_THROW(svc.RegisterQuery(1, catalog, query, "no-such-set", nullptr), ServiceError);
  QuerySpec bad = query;
  bad.joins[0].right_rel = 7;  // out of range
  try {
    svc.RegisterQuery(1, catalog, bad, "all", nullptr);
    FAIL() << "out-of-range join relation accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code, WireErrorCode::kBadRequest);
  }

  // Specs that pass the wire codec but that a world cannot be built from
  // (each used to abort or trap on the shard thread): all kBadRequest.
  auto expect_bad_request = [&](const CatalogSpec& c, const QuerySpec& q, const char* what) {
    try {
      svc.RegisterQuery(1, c, q, "all", nullptr);
      ADD_FAILURE() << what << " accepted";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code, WireErrorCode::kBadRequest) << what;
    }
  };
  CatalogSpec tpch;
  tpch.use_tpch = true;
  QuerySpec tpch_query = query;
  tpch_query.relations[0].table = 99;
  expect_bad_request(tpch, tpch_query, "TPC-H table 99");
  CatalogSpec clustered = catalog;
  clustered.tables[0].clustered_on = 1;  // the table has one column
  expect_bad_request(clustered, query, "clustering column past the last column");
  CatalogSpec full_range = catalog;
  full_range.tables[0].cols[0] = {INT64_MIN, INT64_MAX, 500};
  expect_bad_request(full_range, query, "column range spanning all of int64");
  CatalogSpec duplicate = catalog;
  duplicate.tables[1].name = duplicate.tables[0].name;
  expect_bad_request(duplicate, query, "two tables with one name");
  QuerySpec self_edge = query;
  self_edge.joins[0].right_rel = self_edge.joins[0].left_rel;
  expect_bad_request(catalog, self_edge, "join edge from a relation to itself");
  QuerySpec negative_col = query;
  negative_col.locals.push_back({0, -1, PredOp::kLt, 5, 0});
  expect_bad_request(catalog, negative_col, "local predicate on column -1");
  QuerySpec disconnected = query;
  disconnected.joins.pop_back();  // r2 joins nothing
  expect_bad_request(catalog, disconnected, "disconnected join graph");
  EXPECT_EQ(svc.num_worlds(), 0u);

  const auto reg = svc.RegisterQuery(1, catalog, query, "all", nullptr);
  EXPECT_EQ(svc.num_worlds(), 1u);
  // Same key, different specs: fingerprint mismatch.
  QuerySpec other = query;
  other.joins.pop_back();
  try {
    svc.RegisterQuery(1, catalog, other, "all", nullptr);
    FAIL() << "world key reuse with different specs accepted";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code, WireErrorCode::kSpecMismatch);
  }

  // Mutations against an unknown world throw; invalid mutations against a
  // known world are dropped and counted, valid ones accepted.
  EXPECT_THROW(svc.RecordStatBatch(99, {}), ServiceError);
  std::vector<StatMutation> batch;
  batch.push_back({StatMutation::Kind::kBaseRows, 0, 0, 5e5});     // valid
  batch.push_back({StatMutation::Kind::kBaseRows, 9, 0, 1e3});    // bad slot
  batch.push_back({StatMutation::Kind::kBaseRows, 1, 0, -4.0});   // bad value
  batch.push_back({StatMutation::Kind::kCardMultiplier, 0, 0, 2.0});  // empty scope
  EXPECT_EQ(svc.RecordStatBatch(1, batch), 1u);
  EXPECT_GT(svc.Flush(1), 0u);
  EXPECT_EQ(svc.Stats().mutations_rejected, 3);

  EXPECT_TRUE(svc.ReleaseQuery(reg.query_id));
  EXPECT_FALSE(svc.ReleaseQuery(reg.query_id));
  EXPECT_THROW(svc.QueryCanonicalDump(reg.query_id), ServiceError);
  // The world survives its last query; new registrations join it.
  EXPECT_EQ(svc.num_worlds(), 1u);
  EXPECT_EQ(svc.RegisterQuery(1, catalog, query, "all", nullptr).shard, reg.shard);
}

TEST(ShardedServiceTest, SnapshotFanOutSurvivesRestart) {
  char dir_template[] = "/tmp/iqro_server_snap_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;

  ShardedServiceOptions opts;
  opts.num_shards = 3;
  opts.snapshot_dir = dir;

  std::vector<uint64_t> query_ids;
  std::vector<std::string> dumps;
  std::vector<uint64_t> world_keys;
  {
    ShardedService svc(opts);
    for (int i = 0; i < 4; ++i) {
      const uint64_t seed = 0xABC00 + static_cast<uint64_t>(i);
      testing::Scenario scenario = testing::GenerateScenario(seed);
      const auto reg = svc.RegisterQuery(seed, scenario.catalog, scenario.query,
                                         scenario.options_name, nullptr);
      world_keys.push_back(seed);
      query_ids.push_back(reg.query_id);
      if (!scenario.churn.empty()) {
        svc.RecordStatBatch(seed, scenario.churn[0].mutations);
        svc.Flush(seed);
      }
    }
    for (const uint64_t id : query_ids) dumps.push_back(svc.QueryCanonicalDump(id));
    EXPECT_EQ(svc.SaveSnapshots(), 4u);
  }

  ShardedService restored(opts);
  ASSERT_EQ(restored.LoadSnapshots(), 4u);
  EXPECT_EQ(restored.num_worlds(), 4u);
  EXPECT_EQ(restored.num_queries(), 4u);
  for (size_t i = 0; i < query_ids.size(); ++i) {
    // Ids are preserved and every restored memo is byte-identical.
    EXPECT_EQ(restored.QueryCanonicalDump(query_ids[i]), dumps[i]) << "query " << query_ids[i];
  }
  // The restored service keeps working: post-restore churn flushes, and a
  // re-attached sink observes events again (the kSubscribeQuery path).
  CountingSink sink;
  EXPECT_TRUE(restored.SetSink(query_ids[0], &sink));
  std::vector<StatMutation> batch;
  batch.push_back({StatMutation::Kind::kBaseRows, 0, 0, 7e6});
  EXPECT_EQ(restored.RecordStatBatch(world_keys[0], batch), 1u);
  restored.Flush(world_keys[0]);

  // LoadSnapshots only warm-starts an empty service.
  EXPECT_THROW(restored.LoadSnapshots(), ServiceError);
}

// A manifest whose checksums hold but whose world specs cannot be built
// (edited by hand, or written by a buggy build) fails the load with a
// typed error instead of aborting a shard thread.
TEST(ShardedServiceTest, ManifestWithUnbuildableSpecsFailsTheLoad) {
  char dir_template[] = "/tmp/iqro_server_badmanifest_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string manifest_path = std::string(dir_template) + "/shard0.manifest";
  CatalogSpec catalog = SmallCatalog();
  catalog.tables[1].name = catalog.tables[0].name;
  const QuerySpec query = SmallChainQuery();
  std::string record;
  ByteWriter w(&record);
  w.PutU64(1);  // world key
  w.PutU64(server::WorldFingerprint(catalog, query));
  w.PutU32(query.AllRelations());
  server::EncodeCatalogSpec(&w, catalog);
  server::EncodeQuerySpec(&w, query);
  w.PutU32(0);  // no queries
  service::SnapshotWriter manifest;
  manifest.AddSection(1, std::move(record));  // one world record
  manifest.WriteAtomic(manifest_path);

  ShardedServiceOptions opts;
  opts.snapshot_dir = dir_template;
  ShardedService svc(opts);
  try {
    svc.LoadSnapshots();
    ADD_FAILURE() << "manifest with duplicate table names loaded";
  } catch (const SerializeError& e) {
    EXPECT_EQ(e.code, SerializeError::Code::kBadSection);
  }
  EXPECT_EQ(svc.num_worlds(), 0u);
  std::remove(manifest_path.c_str());
  rmdir(dir_template);
}

TEST(ShardedServiceTest, DeadlineFlushFiresWhileShardIsBusy) {
  // One shard, two worlds: a busy one whose commands arrive back to back
  // (far more often than poll_granularity) and a quiet one that gets a
  // single batch and must still flush on its deadline.
  ShardedServiceOptions opts;
  opts.flush_deadline = std::chrono::milliseconds(20);
  opts.poll_granularity = std::chrono::milliseconds(2);
  ShardedService svc(opts);
  FirstEventSink quiet_sink;
  svc.RegisterQuery(1, SmallCatalog(), SmallChainQuery(), "all", &quiet_sink);
  const auto busy = svc.RegisterQuery(2, SmallCatalog(), SmallChainQuery(), "all", nullptr);

  std::atomic<bool> stop{false};
  std::thread stream([&] {
    while (!stop.load()) svc.QueryBestCost(busy.query_id);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto sent = std::chrono::steady_clock::now();
  ASSERT_EQ(svc.RecordStatBatch(1, FlipBatch(0)), 2u);
  std::chrono::steady_clock::time_point fired_at;
  const bool fired = quiet_sink.Wait(std::chrono::seconds(2), &fired_at);
  stop.store(true);
  stream.join();

  ASSERT_TRUE(fired) << "the quiet world's deadline flush never ran while its shard was busy";
  // deadline + granularity, plus slack for a loaded (or sanitized) host.
  EXPECT_LE(fired_at - sent, opts.flush_deadline + opts.poll_granularity +
                                 std::chrono::milliseconds(150));
}

// ---- daemon end-to-end -----------------------------------------------------

std::string TestSocketPath(const char* tag) {
  return "/tmp/iqro_srvtest_" + std::string(tag) + "_" + std::to_string(getpid()) + ".sock";
}

TEST(DaemonTest, EndToEndRegisterChurnEventsMetrics) {
  const std::string sock = TestSocketPath("e2e");
  DaemonOptions options;
  options.unix_path = sock;
  options.service.num_shards = 2;
  Daemon daemon(options);
  daemon.Start();

  // In-process mirror of the exact same stream: socket-delivered events
  // must match in-process delivery count for count.
  ShardedServiceOptions mirror_opts;
  mirror_opts.num_shards = 2;
  ShardedService mirror(mirror_opts);
  CountingSink mirror_sink;

  Client client;
  client.ConnectUnix(sock);
  const CatalogSpec catalog = SmallCatalog();
  const QuerySpec query = SmallChainQuery();
  // A registration no world can be built from is answered with kError,
  // and the same connection goes on to register.
  CatalogSpec duplicate = catalog;
  duplicate.tables[1].name = duplicate.tables[0].name;
  try {
    client.RegisterQuery(7, duplicate, query, "all");
    ADD_FAILURE() << "duplicate table names accepted over the socket";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.code, WireErrorCode::kBadRequest);
  }
  const server::RegisteredResp reg = client.RegisterQuery(7, catalog, query, "all");
  const auto mirror_reg = mirror.RegisterQuery(7, catalog, query, "all", &mirror_sink);
  EXPECT_DOUBLE_EQ(reg.best_cost, mirror_reg.best_cost);
  EXPECT_EQ(reg.shard, mirror_reg.shard);

  // Application-level rejection leaves the connection usable.
  EXPECT_THROW(client.RegisterQuery(7, catalog, query, "bogus-options"), ClientError);

  int socket_plan_changes = 0;
  for (int round = 0; round < 6; ++round) {
    const std::vector<StatMutation> batch = FlipBatch(round);
    ASSERT_EQ(client.RecordStatBatch(7, batch), batch.size());
    mirror.RecordStatBatch(7, batch);
    const uint64_t changes = client.Flush(7);
    EXPECT_EQ(changes, mirror.Flush(7));
    // Events of this flush were queued into the outbox before the flush
    // response, so they are already here — no extra wait needed.
    for (const auto& ev : client.TakeEvents()) {
      EXPECT_EQ(ev.msg.type, MsgType::kPlanChange);
      EXPECT_EQ(ev.msg.plan_change.query_id, reg.query_id);
      EXPECT_EQ(ev.msg.plan_change.world_key, 7u);
      ++socket_plan_changes;
    }
  }
  mirror.Drain();
  EXPECT_GT(socket_plan_changes, 0) << "mutation swings never flipped a plan";
  EXPECT_EQ(socket_plan_changes, mirror_sink.plan_changes(mirror_reg.query_id));

  // Metrics over the binary protocol and sanity of the text exposition.
  const std::string metrics = client.Metrics();
  EXPECT_NE(metrics.find("iqro_session_flushes_total"), std::string::npos);
  EXPECT_NE(metrics.find("iqro_service_queries 1"), std::string::npos);
  EXPECT_NE(metrics.find("iqro_shard_queries{shard=\"0\"}"), std::string::npos);

  client.ReleaseQuery(reg.query_id);
  EXPECT_THROW(client.Flush(99), ClientError);  // unknown world -> kError, conn lives
  EXPECT_NE(client.Metrics().find("iqro_service_queries 0"), std::string::npos);
  daemon.Stop();
  EXPECT_FALSE(access(sock.c_str(), F_OK) == 0) << "socket not unlinked on shutdown";
}

TEST(DaemonTest, MalformedFrameClosesOnlyThatConnection) {
  const std::string sock = TestSocketPath("mal");
  DaemonOptions options;
  options.unix_path = sock;
  Daemon daemon(options);
  daemon.Start();

  Client good;
  good.ConnectUnix(sock);
  const server::RegisteredResp reg =
      good.RegisterQuery(1, SmallCatalog(), SmallChainQuery(), "all");

  // A raw connection spewing garbage gets closed by the daemon...
  int bad_fd = socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(bad_fd, 0);
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, sock.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(connect(bad_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const char garbage[] = "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX";
  ASSERT_GT(write(bad_fd, garbage, sizeof(garbage)), 0);
  char buf[16];
  EXPECT_EQ(read(bad_fd, buf, sizeof(buf)), 0) << "daemon should close on bad magic";
  close(bad_fd);

  // ...while the well-behaved peer and its registered query are untouched.
  std::vector<StatMutation> batch;
  batch.push_back({StatMutation::Kind::kBaseRows, 0, 0, 9e6});
  EXPECT_EQ(good.RecordStatBatch(1, batch), 1u);
  EXPECT_GT(good.Flush(1), 0u);
  EXPECT_EQ(daemon.service().num_queries(), 1u);
  EXPECT_GT(daemon.service().QueryBestCost(reg.query_id), 0.0);
  daemon.Stop();
}

TEST(DaemonTest, SnapshotShutdownWarmRestartResubscribe) {
  const std::string sock = TestSocketPath("warm");
  char dir_template[] = "/tmp/iqro_daemon_snap_XXXXXX";
  ASSERT_NE(mkdtemp(dir_template), nullptr);
  const std::string dir = dir_template;

  DaemonOptions options;
  options.unix_path = sock;
  options.service.num_shards = 2;
  options.service.snapshot_dir = dir;

  uint64_t query_id = 0;
  std::string dump_before;
  {
    Daemon daemon(options);
    daemon.Start();
    Client client;
    client.ConnectUnix(sock);
    query_id = client.RegisterQuery(5, SmallCatalog(), SmallChainQuery(), "all").query_id;
    std::vector<StatMutation> batch;
    batch.push_back({StatMutation::Kind::kBaseRows, 1, 0, 3e6});
    client.RecordStatBatch(5, batch);
    client.Flush(5);
    EXPECT_EQ(client.Snapshot(), 1u);  // explicit kSnapshot
    dump_before = daemon.service().QueryCanonicalDump(query_id);
    // kShutdown over the wire answers, then drains + re-snapshots.
    client.Shutdown();
    daemon.Wait();
  }

  DaemonOptions warm = options;
  warm.load_snapshots = true;
  Daemon daemon2(warm);
  daemon2.Start();
  EXPECT_EQ(daemon2.restored_queries(), 1u);
  EXPECT_EQ(daemon2.service().QueryCanonicalDump(query_id), dump_before)
      << "warm restart must restore the exact memo state";

  // Reconnect and re-attach event delivery to the NEW connection.
  Client client2;
  client2.ConnectUnix(sock);
  client2.SubscribeQuery(query_id);
  EXPECT_THROW(client2.SubscribeQuery(query_id + 999), ClientError);
  int plan_changes = 0;
  for (int round = 0; round < 4; ++round) {
    std::vector<StatMutation> batch;
    batch.push_back(
        {StatMutation::Kind::kBaseRows, 0, 0, round % 2 == 0 ? 8e6 : 12.0});
    batch.push_back({StatMutation::Kind::kJoinSelectivity, 0, 0,
                     round % 2 == 0 ? 1e-4 : 0.5});
    client2.RecordStatBatch(5, batch);
    client2.Flush(5);
    plan_changes += static_cast<int>(client2.TakeEvents().size());
  }
  EXPECT_GT(plan_changes, 0) << "re-subscribed connection received no events";
  daemon2.Stop();
}

/// A raw frame-level connection: sends arbitrary bytes, reads decoded
/// server messages one at a time (events and responses alike, in wire
/// order).
class RawConn {
 public:
  explicit RawConn(const std::string& path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawConn() { Close(); }

  void Close() {
    if (fd_ >= 0) close(fd_);
    fd_ = -1;
  }

  /// One write(2) for the whole byte string.
  void Send(const std::string& bytes) {
    ASSERT_EQ(write(fd_, bytes.data(), bytes.size()), static_cast<ssize_t>(bytes.size()));
  }

  /// The next message, or false when none arrives within `timeout`.
  bool Next(ServerMessage* msg, std::chrono::milliseconds timeout = std::chrono::seconds(10)) {
    std::string payload;
    while (!decoder_.Next(&payload)) {
      pollfd p{fd_, POLLIN, 0};
      if (poll(&p, 1, static_cast<int>(timeout.count())) <= 0) return false;
      char buf[16384];
      const ssize_t n = read(fd_, buf, sizeof(buf));
      if (n <= 0) return false;
      decoder_.Feed(buf, static_cast<size_t>(n));
    }
    *msg = server::DecodeServerMessage(payload);
    return true;
  }

  uint64_t Register(uint64_t request_id, uint64_t world_key) {
    server::RegisterQueryReq req;
    req.world_key = world_key;
    req.want_events = true;
    req.catalog = SmallCatalog();
    req.query = SmallChainQuery();
    req.options_name = "all";
    Send(server::EncodeRegisterQuery(request_id, req));
    ServerMessage msg;
    EXPECT_TRUE(Next(&msg));
    EXPECT_EQ(msg.type, MsgType::kRegistered);
    EXPECT_EQ(msg.request_id, request_id);
    return msg.registered.query_id;
  }

 private:
  int fd_ = -1;
  server::FrameDecoder decoder_;
};

std::string RecordFrame(uint64_t request_id, uint64_t world_key, int round) {
  server::RecordStatBatchReq req;
  req.world_key = world_key;
  req.mutations = FlipBatch(round);
  return server::EncodeRecordStatBatch(request_id, req);
}

std::string FlushFrame(uint64_t request_id, uint64_t world_key) {
  server::FlushReq req;
  req.all = false;
  req.world_key = world_key;
  return server::EncodeFlush(request_id, req);
}

/// Two world keys that SmallChainQuery routes to different shards.
std::pair<uint64_t, uint64_t> WorldsOnTwoShards(int num_shards) {
  const RelSet mask = SmallChainQuery().AllRelations();
  uint64_t y = 2;
  while (ShardedService::ShardOfWorld(y, mask, num_shards) ==
         ShardedService::ShardOfWorld(1, mask, num_shards)) {
    ++y;
  }
  return {1, y};
}

TEST(DaemonTest, PipelinedRequestsAnswerInOrderWithEventsBeforeEachOk) {
  const std::string sock = TestSocketPath("pipe");
  DaemonOptions options;
  options.unix_path = sock;
  options.service.num_shards = 2;
  Daemon daemon(options);
  daemon.Start();

  RawConn raw(sock);
  const uint64_t query_id = raw.Register(1, 7);
  // Five requests in ONE write: the daemon has them all buffered at once
  // and must still answer request n before it reads request n+1.
  raw.Send(RecordFrame(2, 7, 0) + FlushFrame(3, 7) + RecordFrame(4, 7, 1) + FlushFrame(5, 7) +
           server::EncodeSubscribeQuery(6, query_id));
  std::map<uint64_t, int> events_before;  // response id -> events since the previous response
  std::map<uint64_t, ServerMessage> responses;
  int events = 0;
  for (uint64_t expect = 2; expect <= 6;) {
    ServerMessage msg;
    ASSERT_TRUE(raw.Next(&msg)) << "no answer to request " << expect;
    if (msg.type == MsgType::kPlanChange) {
      EXPECT_EQ(msg.plan_change.query_id, query_id);
      ++events;
      continue;
    }
    ASSERT_EQ(msg.request_id, expect) << "responses out of request order";
    ASSERT_EQ(msg.type, MsgType::kOk) << "request " << expect;
    events_before[expect] = events;
    responses[expect] = msg;
    events = 0;
    ++expect;
  }
  EXPECT_EQ(responses[2].ok.value, 2u);
  EXPECT_EQ(responses[4].ok.value, 2u);
  EXPECT_GT(responses[3].ok.value, 0u);
  EXPECT_GT(responses[5].ok.value, 0u);
  // Each flush's plan change arrives before its kOk, never after it.
  EXPECT_EQ(events_before[2], 0);
  EXPECT_GT(events_before[3], 0);
  EXPECT_EQ(events_before[4], 0);
  EXPECT_GT(events_before[5], 0);
  EXPECT_EQ(events_before[6], 0);
  ServerMessage trailing;
  EXPECT_FALSE(raw.Next(&trailing, std::chrono::milliseconds(100)))
      << "unexpected frame " << MsgTypeName(trailing.type) << " after the last response";
  daemon.Stop();
}

TEST(DaemonTest, SlowFlushOnOneShardDoesNotBlockOtherConnections) {
  LatchSink latch;
  const std::string sock = TestSocketPath("slow");
  DaemonOptions options;
  options.unix_path = sock;
  options.service.num_shards = 4;
  Daemon daemon(options);
  daemon.Start();
  const auto [x, y] = WorldsOnTwoShards(4);

  Client a;
  Client b;
  a.ConnectUnix(sock);
  b.ConnectUnix(sock);
  const uint64_t a_query = a.RegisterQuery(x, SmallCatalog(), SmallChainQuery(), "all").query_id;
  const uint64_t b_query = b.RegisterQuery(y, SmallCatalog(), SmallChainQuery(), "all").query_id;
  daemon.service().RegisterQuery(x, SmallCatalog(), SmallChainQuery(), "all", &latch);
  ASSERT_EQ(a.RecordStatBatch(x, FlipBatch(0)), 2u);

  std::vector<server::ReceivedEvent> b_events;
  std::future<uint64_t> a_flush;
  std::future<void> b_work;
  ReleaseOnExit release{latch};
  a_flush = std::async(std::launch::async, [&] { return a.Flush(x); });
  ASSERT_TRUE(latch.WaitEntered(std::chrono::seconds(10))) << "X's flush never reached the latch";

  // X's shard is held inside a.Flush(x). Another connection on another
  // shard gets its mutations acknowledged, its flush answered and its
  // events delivered all the same.
  b_work = std::async(std::launch::async, [&] {
    EXPECT_EQ(b.RecordStatBatch(y, FlipBatch(0)), 2u);
    EXPECT_GT(b.Flush(y), 0u);
    b_events = b.TakeEvents();
  });
  const bool b_served = b_work.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  const bool a_held = a_flush.wait_for(std::chrono::seconds(0)) != std::future_status::ready;
  latch.Release();
  EXPECT_TRUE(b_served) << "a flush held on one shard blocked another connection";
  EXPECT_TRUE(a_held) << "X's flush was answered while its shard was still inside it";
  b_work.get();
  EXPECT_FALSE(b_events.empty());
  for (const auto& ev : b_events) EXPECT_EQ(ev.msg.plan_change.query_id, b_query);

  // Released: X's client gets its events, then its kOk.
  EXPECT_GT(a_flush.get(), 0u);
  const std::vector<server::ReceivedEvent> a_events = a.TakeEvents();
  EXPECT_FALSE(a_events.empty());
  for (const auto& ev : a_events) EXPECT_EQ(ev.msg.plan_change.query_id, a_query);
  daemon.Stop();
}

TEST(DaemonTest, ClientHangingUpMidFlushLeavesDaemonServing) {
  LatchSink latch;
  const std::string sock = TestSocketPath("hup");
  DaemonOptions options;
  options.unix_path = sock;
  options.service.num_shards = 4;
  Daemon daemon(options);
  daemon.Start();
  const auto [x, y] = WorldsOnTwoShards(4);

  Client peer;
  peer.ConnectUnix(sock);
  peer.RegisterQuery(y, SmallCatalog(), SmallChainQuery(), "all");
  daemon.service().RegisterQuery(x, SmallCatalog(), SmallChainQuery(), "all", &latch);
  auto raw = std::make_unique<RawConn>(sock);
  const uint64_t raw_query = raw->Register(1, x);

  std::future<void> peer_work;
  ReleaseOnExit release{latch};
  raw->Send(RecordFrame(2, x, 0) + FlushFrame(3, x));
  ASSERT_TRUE(latch.WaitEntered(std::chrono::seconds(10))) << "X's flush never reached the latch";
  raw.reset();  // hang up while the flush is in flight

  // The daemon sees the hang-up and keeps serving the peer meanwhile.
  peer_work = std::async(std::launch::async, [&] {
    EXPECT_EQ(peer.RecordStatBatch(y, FlipBatch(0)), 2u);
    EXPECT_GT(peer.Flush(y), 0u);
  });
  EXPECT_TRUE(peer_work.wait_for(std::chrono::seconds(10)) == std::future_status::ready)
      << "a client hanging up mid-flush stopped the daemon serving its peer";
  latch.Release();
  peer_work.get();

  // The abandoned flush completes into the closed connection's outbox;
  // two more round trips later the loop has closed that connection and
  // detached its sink.
  daemon.service().Drain();
  for (int round = 1; round <= 2; ++round) {
    EXPECT_EQ(peer.RecordStatBatch(y, FlipBatch(round)), 2u);
  }
  // Another flip on X reaches every sink still attached to it; a dangling
  // one would be a use-after-free (the sanitizer job's check).
  EXPECT_EQ(daemon.service().RecordStatBatch(x, FlipBatch(1)), 2u);
  EXPECT_GT(daemon.service().Flush(x), 0u);

  // The query outlived its connection; a new one re-attaches it.
  EXPECT_EQ(daemon.service().num_queries(), 3u);
  Client again;
  again.ConnectUnix(sock);
  again.SubscribeQuery(raw_query);
  EXPECT_EQ(again.RecordStatBatch(x, FlipBatch(0)), 2u);
  EXPECT_GT(again.Flush(x), 0u);
  EXPECT_FALSE(again.TakeEvents().empty());
  daemon.Stop();
}

// ---- Prometheus text rendering --------------------------------------------

TEST(PrometheusTest, SessionTextRendersAllCounters) {
  ReoptSessionMetrics m;
  m.mutations_observed = 10;
  m.flushes = 3;
  m.changes_flushed = 7;
  m.plan_changes = 2;
  m.resident_memo_bytes = 4096;
  const std::string text = PrometheusSessionText(m, "shard=\"1\"");
  EXPECT_NE(text.find("# TYPE iqro_session_mutations_observed_total counter"), std::string::npos);
  EXPECT_NE(text.find("iqro_session_mutations_observed_total{shard=\"1\"} 10"), std::string::npos);
  EXPECT_NE(text.find("iqro_session_flushes_total{shard=\"1\"} 3"), std::string::npos);
  EXPECT_NE(text.find("iqro_session_resident_memo_bytes{shard=\"1\"} 4096"), std::string::npos);
  // Unlabeled rendering drops the braces entirely.
  const std::string bare = PrometheusSessionText(m, "");
  EXPECT_NE(bare.find("iqro_session_flushes_total 3"), std::string::npos);
  EXPECT_EQ(bare.find("{"), std::string::npos);
}

}  // namespace
}  // namespace iqro
