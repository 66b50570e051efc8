// Loopback load bench for reoptd: many client threads drive the full wire
// path — Unix socket, frame codec, shard routing, per-world sessions,
// server-pushed plan-change events — against a self-hosted daemon (or an
// external one via --socket). The default shape registers 16 worlds x 64
// optimizer configurations = 1024 queries, then runs rounds of
// RecordStatBatch + Flush per world with statistics swings violent enough
// to flip join orders, so every flush produces event frames.
//
// Measured: registration and churn wall time, the closed-loop churn-phase
// mutation rate (mutations accepted / churn wall time, where every batch
// is followed by its Flush round trip — so the rate is bound by flush
// latency, not by ingest capacity), events delivered, and the
// flush-to-event latency
// distribution (p50/p95/p99). Latency is client-observed: the send
// timestamp of a Flush request to the local arrival timestamp of each
// event frame that flush produced — events are queued into the connection
// outbox before the flush response, so one socket read carries both.
//
// Flags:
//   --quick        small shape for CI smoke (4x4 queries, 3 rounds)
//   --socket PATH  drive an already-running daemon instead of self-hosting
//   --worlds N --configs N --clients N --rounds N --shards N
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/bench_util.h"
#include "server/client.h"
#include "server/daemon.h"
#include "testing/differential.h"

namespace iqro::bench {
namespace {

struct LoadConfig {
  int worlds = 16;
  int configs = 64;  // optimizer configurations registered per world
  int clients = 4;
  int rounds = 8;
  int shards = 4;
  std::string socket;  // non-empty: external daemon
};

/// Per-world synthetic 4-relation chain; hist_seed varies per world so the
/// worlds are not byte-identical.
testing::CatalogSpec LoadCatalog(uint64_t world) {
  testing::CatalogSpec catalog;
  for (int i = 0; i < 4; ++i) {
    testing::SyntheticTableSpec t;
    t.name = "t" + std::to_string(i);
    t.rows = 1000.0 * (i + 1);
    t.width = 16;
    t.cols.push_back({0, 9999, 2000});
    t.hist_seed = world * 16 + static_cast<uint64_t>(i) + 1;
    catalog.tables.push_back(std::move(t));
  }
  return catalog;
}

QuerySpec LoadQuery() {
  QuerySpec q;
  q.name = "chain4";
  for (int i = 0; i < 4; ++i) {
    QueryRelation rel;
    rel.table = i;
    rel.alias = "r" + std::to_string(i);
    q.relations.push_back(std::move(rel));
  }
  for (int i = 0; i < 3; ++i) {
    JoinPredicate j;
    j.left_rel = i;
    j.right_rel = i + 1;
    q.joins.push_back(j);
  }
  q.locals.push_back({3, 0, PredOp::kLt, 5000, 0});
  return q;
}

/// Alternating statistics swing: orders-of-magnitude base-row and
/// selectivity moves so the cheapest join order actually flips.
std::vector<testing::StatMutation> RoundBatch(int round) {
  using Kind = testing::StatMutation::Kind;
  const bool hi = round % 2 == 0;
  std::vector<testing::StatMutation> batch;
  batch.push_back({Kind::kBaseRows, 0, 0, hi ? 5e6 : 20.0});
  batch.push_back({Kind::kJoinSelectivity, 0, 0, hi ? 1e-4 : 0.6});
  batch.push_back({Kind::kBaseRows, 2, 0, hi ? 4e5 : 800.0});
  batch.push_back({Kind::kLocalSelectivity, 3, 0, hi ? 0.05 : 0.9});
  return batch;
}

struct ThreadResult {
  int64_t registered = 0;
  int64_t mutations = 0;
  int64_t flushes = 0;
  int64_t events = 0;
  std::vector<double> latencies_ms;
  double register_s = 0;
  double churn_s = 0;
};

void RunClient(const LoadConfig& cfg, const std::string& socket_path, int thread_idx,
               std::barrier<>* phase, ThreadResult* out) {
  using Clock = std::chrono::steady_clock;
  server::Client client;
  client.ConnectUnix(socket_path);

  const QuerySpec query = LoadQuery();
  const auto& option_sets = testing::ScenarioOptionSets();
  // Worlds are partitioned across client threads; each thread registers
  // and churns only its own, on its own connection (events go to the
  // registering connection).
  std::vector<uint64_t> my_worlds;
  for (int w = thread_idx; w < cfg.worlds; w += cfg.clients) {
    my_worlds.push_back(1000 + static_cast<uint64_t>(w));
  }

  const auto reg_start = Clock::now();
  for (const uint64_t world : my_worlds) {
    const testing::CatalogSpec catalog = LoadCatalog(world);
    for (int k = 0; k < cfg.configs; ++k) {
      client.RegisterQuery(world, catalog, query, option_sets[k % option_sets.size()].first);
      ++out->registered;
    }
  }
  out->register_s = std::chrono::duration<double>(Clock::now() - reg_start).count();

  phase->arrive_and_wait();  // churn starts only once every query is live

  const auto churn_start = Clock::now();
  for (int round = 0; round < cfg.rounds; ++round) {
    const std::vector<testing::StatMutation> batch = RoundBatch(round);
    for (const uint64_t world : my_worlds) {
      out->mutations += static_cast<int64_t>(client.RecordStatBatch(world, batch));
      const auto flush_sent = Clock::now();
      client.Flush(world);
      ++out->flushes;
      for (const server::ReceivedEvent& ev : client.TakeEvents()) {
        out->latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(ev.received_at - flush_sent).count());
        ++out->events;
      }
    }
  }
  out->churn_s = std::chrono::duration<double>(Clock::now() - churn_start).count();
}

int Run(const LoadConfig& cfg) {
  std::string socket_path = cfg.socket;
  std::unique_ptr<server::Daemon> daemon;
  if (socket_path.empty()) {
    socket_path = "/tmp/iqro_bench_daemon_" + std::to_string(getpid()) + ".sock";
    server::DaemonOptions options;
    options.unix_path = socket_path;
    options.service.num_shards = cfg.shards;
    daemon = std::make_unique<server::Daemon>(options);
    daemon->Start();
  }

  std::barrier<> phase(cfg.clients);
  std::vector<ThreadResult> results(cfg.clients);
  std::vector<std::thread> threads;
  threads.reserve(cfg.clients);
  const auto wall_start = std::chrono::steady_clock::now();
  for (int t = 0; t < cfg.clients; ++t) {
    threads.emplace_back(RunClient, cfg, socket_path, t, &phase, &results[t]);
  }
  for (std::thread& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  ThreadResult total;
  double register_s = 0;
  double churn_s = 0;
  for (const ThreadResult& r : results) {
    total.registered += r.registered;
    total.mutations += r.mutations;
    total.flushes += r.flushes;
    total.events += r.events;
    total.latencies_ms.insert(total.latencies_ms.end(), r.latencies_ms.begin(),
                              r.latencies_ms.end());
    register_s = std::max(register_s, r.register_s);
    churn_s = std::max(churn_s, r.churn_s);
  }
  const double mutations_per_sec = churn_s > 0 ? total.mutations / churn_s : 0;
  const double p50 = Percentile(total.latencies_ms, 0.50);
  const double p95 = Percentile(total.latencies_ms, 0.95);
  const double p99 = Percentile(total.latencies_ms, 0.99);

  TablePrinter table("reoptd loopback load (" + std::to_string(cfg.clients) + " clients, " +
                         std::to_string(cfg.shards) + " shards)",
                     {"metric", "value"});
  table.AddRow({"registered queries", std::to_string(total.registered)});
  table.AddRow({"register wall s", Num(register_s)});
  table.AddRow({"churn mutations/s (incl. flush RTT)", Num(mutations_per_sec)});
  table.AddRow({"flushes", std::to_string(total.flushes)});
  table.AddRow({"events delivered", std::to_string(total.events)});
  table.AddRow({"flush->event p50 ms", Num(p50, 3)});
  table.AddRow({"flush->event p95 ms", Num(p95, 3)});
  table.AddRow({"flush->event p99 ms", Num(p99, 3)});
  table.Print();

  JsonObj metrics;
  metrics.Put("registered_queries", total.registered)
      .Put("worlds", cfg.worlds)
      .Put("configs_per_world", cfg.configs)
      .Put("clients", cfg.clients)
      .Put("rounds", cfg.rounds)
      .Put("shards", daemon != nullptr ? cfg.shards : -1)
      .Put("self_hosted", daemon != nullptr)
      .Put("mutations_total", total.mutations)
      .Put("mutations_per_sec", mutations_per_sec)
      .Put("flushes_total", total.flushes)
      .Put("events_delivered", total.events)
      .Put("p50_flush_to_event_ms", p50)
      .Put("p95_flush_to_event_ms", p95)
      .Put("p99_flush_to_event_ms", p99)
      .Put("register_s", register_s)
      .Put("churn_s", churn_s)
      .Put("wall_s", wall_s);
  JsonObj root = BenchRoot("bench_daemon_load", metrics, {&table});
  WriteBenchJson("bench_daemon_load", root);

  if (daemon != nullptr) daemon->Stop();
  return 0;
}

}  // namespace
}  // namespace iqro::bench

int main(int argc, char** argv) {
  iqro::bench::LoadConfig cfg;
  auto next_arg = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--quick") == 0) {
      cfg.worlds = 4;
      cfg.configs = 4;
      cfg.clients = 2;
      cfg.rounds = 3;
      cfg.shards = 2;
    } else if (std::strcmp(a, "--socket") == 0) {
      cfg.socket = next_arg(i);
    } else if (std::strcmp(a, "--worlds") == 0) {
      cfg.worlds = std::atoi(next_arg(i));
    } else if (std::strcmp(a, "--configs") == 0) {
      cfg.configs = std::atoi(next_arg(i));
    } else if (std::strcmp(a, "--clients") == 0) {
      cfg.clients = std::atoi(next_arg(i));
    } else if (std::strcmp(a, "--rounds") == 0) {
      cfg.rounds = std::atoi(next_arg(i));
    } else if (std::strcmp(a, "--shards") == 0) {
      cfg.shards = std::atoi(next_arg(i));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--socket PATH] [--worlds N] [--configs N]\n"
                   "          [--clients N] [--rounds N] [--shards N]\n",
                   argv[0]);
      return 2;
    }
  }
  return iqro::bench::Run(cfg);
}
