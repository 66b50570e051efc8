// daemon_flush_rtt: the read path users see, statistics in and a new plan
// out, across client, wire, daemon, shard, service and core. A self-hosted
// Daemon on a Unix socket with 4 shards; 16 chain4 worlds x 64 optimizer
// configurations (1024 queries, events on). Four client threads (= nproc),
// each with its own connection and its own four worlds, run a closed loop:
// an op is RecordStatBatch (four seeded, plan-flipping mutations) then
// Flush on one of the client's worlds. The daemon loop runs every Flush
// synchronously, so loop serialization shows up here. End-to-end metrics
// are taken per 2 s window (WindowedSamples).
#ifndef BENCH_SUITE_SUITE_DAEMON_FLUSH_RTT_H_
#define BENCH_SUITE_SUITE_DAEMON_FLUSH_RTT_H_

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "server/daemon.h"
#include "suite/daemon_worlds.h"
#include "suite/replay.h"
#include "suite/report.h"
#include "suite/trace.h"
#include "suite/wire_codec.h"
#include "suite/worlds.h"

namespace bench_suite {

inline RunResult RunDaemonFlushRtt(const RunOptions& o) {
  namespace srv = iqro::server;
  constexpr int kWorlds = 16;
  constexpr int kConfigs = 64;
  constexpr int kClients = 4;
  constexpr int kShards = 4;
  constexpr size_t kStreamLen = 2048;
  constexpr double kWindowSeconds = 2;  // ~500 round trips per window
  RunResult r;
  const iqro::QuerySpec query = Chain4Query();
  const std::string socket = SocketPath("rtt");
  std::vector<DaemonWorld> worlds(kWorlds);
  for (int w = 0; w < kWorlds; ++w) worlds[static_cast<size_t>(w)].key = 1000 + static_cast<uint64_t>(w);

  std::unique_ptr<srv::Daemon> daemon;
  std::vector<std::unique_ptr<srv::Client>> clients(kClients);
  Samples setup_s;
  for (int rep = 0; rep < (o.trace ? 1 : kSetupReps); ++rep) {
    for (auto& c : clients) c.reset();
    if (daemon != nullptr) daemon->Stop();
    daemon.reset();
    for (DaemonWorld& w : worlds) {
      w.query_ids.clear();
      w.shards.clear();
    }
    const int64_t t0 = NowNs();
    srv::DaemonOptions opts;
    opts.unix_path = socket;
    opts.service.num_shards = kShards;
    daemon = std::make_unique<srv::Daemon>(opts);
    daemon->Start();
    std::vector<std::string> errors(kClients);
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        try {
          clients[static_cast<size_t>(t)] = std::make_unique<srv::Client>();
          clients[static_cast<size_t>(t)]->ConnectUnix(socket);
          for (int w = t; w < kWorlds; w += kClients) {
            DaemonWorld& dw = worlds[static_cast<size_t>(w)];
            const auto catalog = Chain4Catalog(dw.key);
            for (int k = 0; k < kConfigs; ++k) {
              const auto resp = clients[static_cast<size_t>(t)]->RegisterQuery(
                  dw.key, catalog, query, OptionSets()[k % OptionSets().size()].first);
              dw.query_ids.push_back(resp.query_id);
              dw.shards.push_back(resp.shard);
            }
          }
        } catch (const std::exception& e) {
          errors[static_cast<size_t>(t)] = e.what();
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (const std::string& e : errors) {
      if (!e.empty()) throw std::runtime_error("registration failed: " + e);
    }
    setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
  }

  std::vector<std::vector<Batch>> streams(kWorlds, std::vector<Batch>(kStreamLen));
  for (int w = 0; w < kWorlds; ++w) {
    Rng rng = StreamRng(o.seed, 3, static_cast<uint64_t>(w));
    for (Batch& b : streams[static_cast<size_t>(w)]) {
      for (int k = 0; k < 4; ++k) b.push_back(FlipMutation(rng));
    }
  }
  auto op_batch = [&](size_t w, int64_t k) -> const Batch& {
    return streams[w][static_cast<size_t>(k) % kStreamLen];
  };
  auto op_id = [](size_t w, int64_t k) {
    return (static_cast<uint64_t>(w) << 32) | static_cast<uint64_t>(k);
  };

  std::unique_ptr<Tracer> tracer = o.trace ? std::make_unique<Tracer>(1u << 22) : nullptr;
  std::vector<int64_t> consumed(kWorlds, 0);
  std::vector<int64_t> first_measured(kWorlds, -1);
  const srv::ShardedServiceStats svc0 = daemon->service().Stats();
  const int64_t start = NowNs();
  const int64_t warm_end = start + static_cast<int64_t>(1e9 * std::min(1.0, 0.1 * o.seconds));
  const double seconds = (o.trace ? 0.5 : 1.0) * o.seconds;
  const int64_t end = warm_end + static_cast<int64_t>(1e9 * seconds);
  struct ClientStats {
    explicit ClientStats(const WindowedSamples& empty) : op_ms(empty), plan_ms(empty) {}
    WindowedSamples op_ms, plan_ms;
    Samples traced_ms, untraced_ms;
    int64_t ops = 0;
    int64_t errors = 0;
    int64_t events = 0;
    std::vector<srv::PlanChangeEventMsg> event_sample;
  };
  const WindowedSamples windows(warm_end, seconds, kWindowSeconds);
  std::vector<ClientStats> stats(kClients, ClientStats(windows));
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        srv::Client& c = *clients[static_cast<size_t>(t)];
        ClientStats& st = stats[static_cast<size_t>(t)];
        for (size_t rr = 0;; ++rr) {
          const int64_t now = NowNs();
          if (now >= end) break;
          const bool measured = now >= warm_end;
          const size_t w = static_cast<size_t>(t) + kClients * (rr % (kWorlds / kClients));
          const int64_t k = consumed[w]++;
          if (measured && first_measured[w] < 0) first_measured[w] = k;
          const uint64_t op = op_id(w, k);
          Tracer* tr = tracer != nullptr && measured && k % 2 == 0 ? tracer.get() : nullptr;
          const int64_t t0 = NowNs();
          try {
            ScopedSpan span(tr, SpanKind::kOp, op);
            {
              ScopedSpan s(tr, SpanKind::kClientRecord, op, span.id());
              c.RecordStatBatch(worlds[w].key, op_batch(w, k));
            }
            ScopedSpan s(tr, SpanKind::kClientFlush, op, span.id());
            c.Flush(worlds[w].key);
          } catch (const std::exception& e) {
            if (st.errors++ == 0) std::fprintf(stderr, "daemon_flush_rtt: op failed: %s\n", e.what());
            if (measured) ++st.ops;
            continue;
          }
          const int64_t t1 = NowNs();
          const std::vector<srv::ReceivedEvent> events = c.TakeEvents();
          if (!measured) continue;
          const double ms = NsToMs(t1 - t0);
          st.op_ms.Add(t0, ms);
          (tr != nullptr ? st.traced_ms : st.untraced_ms).Add(ms);
          ++st.ops;
          st.events += static_cast<int64_t>(events.size());
          int64_t first_flip = 0;
          for (const srv::ReceivedEvent& ev : events) {
            if (ev.msg.type != srv::MsgType::kPlanChange) continue;
            if (st.event_sample.size() < 4096) st.event_sample.push_back(ev.msg.plan_change);
            const int64_t at = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   ev.received_at.time_since_epoch())
                                   .count();
            if (ev.msg.plan_change.changed_operators > 0 && (first_flip == 0 || at < first_flip)) {
              first_flip = at;
            }
          }
          if (first_flip != 0) st.plan_ms.Add(t0, NsToMs(first_flip - t0));
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  const int64_t finished = NowNs();
  const srv::ShardedServiceStats svc1 = daemon->service().Stats();

  ClientStats all(windows);
  for (const ClientStats& st : stats) {
    all.op_ms.Append(st.op_ms);
    all.plan_ms.Append(st.plan_ms);
    all.traced_ms.Append(st.traced_ms);
    all.untraced_ms.Append(st.untraced_ms);
    all.ops += st.ops;
    all.errors += st.errors;
    all.events += st.events;
    all.event_sample.insert(all.event_sample.end(), st.event_sample.begin(), st.event_sample.end());
  }
  Samples scratch_us;
  for (size_t w = 0; w < worlds.size(); ++w) {
    std::deque<const Batch*> history;
    for (int64_t k = 0; k < consumed[w]; ++k) history.push_back(&op_batch(w, k));
    r.mismatches += CheckServiceWorld(daemon->service(), worlds[w], history, &scratch_us, o.Repro());
  }
  for (auto& c : clients) c.reset();
  daemon->Stop();
  daemon.reset();
  r.attempted = all.ops;
  r.failed = all.errors + r.mismatches;
  const double socket_ops_per_s =
      SafeRatio(static_cast<double>(all.ops), static_cast<double>(end - warm_end) / 1e9);

  MetricSet& m = r.metrics;
  if (!o.trace) {
    m.Set("op_p50_ms", all.op_ms.P(0.50), "ms");
    m.Set("op_p90_ms", all.op_ms.P(0.90), "ms");
    m.Set("ops_per_s", all.op_ms.PerSecond(), "1/s");
    m.Set("plan_p50_ms", all.plan_ms.P(0.50), "ms");
    m.Set("plan_p90_ms", all.plan_ms.P(0.90), "ms");
    m.Set("setup_s", setup_s.Median(), "s");
    m.Set("rss_mb", MaxRssMb(), "MB");
    r.notes.push_back("daemon_flush_rtt: " + std::to_string(all.ops) + " round trips in " +
                      std::to_string(all.op_ms.windows()) + " windows, " +
                      std::to_string(all.plan_ms.size()) + " with a plan flip, " +
                      std::to_string(all.events) + " events");
    return r;
  }

  // Peel the layers off the same per-world op streams. Shard layer: an
  // in-process ShardedService driven by the same four callers.
  double shard_ops_per_s = 0;
  {
    srv::ShardedServiceOptions so;
    so.num_shards = kShards;
    srv::ShardedService svc(so);
    CountingSink sink;
    for (const DaemonWorld& dw : worlds) {
      const auto catalog = Chain4Catalog(dw.key);
      for (int k = 0; k < kConfigs; ++k) {
        svc.RegisterQuery(dw.key, catalog, query, OptionSets()[k % OptionSets().size()].first, &sink);
      }
    }
    int64_t total = 0;
    for (int64_t c : consumed) total += c;
    const int64_t t0 = NowNs();
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        std::vector<int64_t> next(kWorlds, 0);
        for (bool any = true; any;) {
          any = false;
          for (size_t w = static_cast<size_t>(t); w < kWorlds; w += kClients) {
            const int64_t k = next[w];
            if (k >= consumed[w]) continue;
            any = true;
            ++next[w];
            const uint64_t op = op_id(w, k);
            Tracer* tr = first_measured[w] >= 0 && k >= first_measured[w] ? tracer.get() : nullptr;
            {
              ScopedSpan s(tr, SpanKind::kShardRecord, op);
              svc.RecordStatBatch(worlds[w].key, op_batch(w, k));
            }
            ScopedSpan s(tr, SpanKind::kShardFlush, op);
            svc.Flush(worlds[w].key);
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    shard_ops_per_s = SafeRatio(static_cast<double>(total), static_cast<double>(NowNs() - t0) / 1e9);
  }

  // Service and core layers: per world, one serial ReoptSession and one
  // core-level copy, each op replayed on both back to back.
  ServiceTotals totals;
  for (size_t w = 0; w < worlds.size(); ++w) {
    std::vector<std::pair<uint64_t, const Batch*>> ops;
    for (int64_t k = 0; k < consumed[w]; ++k) ops.emplace_back(op_id(w, k), &op_batch(w, k));
    const size_t first = first_measured[w] >= 0 ? static_cast<size_t>(first_measured[w]) : ops.size();
    ReplayWorld(worlds[w].key, kConfigs, ops, first, tracer.get(), &totals);
  }
  AddServiceMetrics(*tracer, totals, scratch_us, &m);

  const Samples shard_flush_ms = tracer->Durations(SpanKind::kShardFlush).Scaled(1e-6);
  const Samples client_flush_ms = tracer->Durations(SpanKind::kClientFlush).Scaled(1e-6);
  const Samples client_record_us = tracer->Durations(SpanKind::kClientRecord).Scaled(1e-3);
  const auto service_per_op = tracer->PerOp(SpanKind::kServiceFlush);
  const auto shard_per_op = tracer->PerOp(SpanKind::kShardFlush);
  m.Set("shard.flush_call_ms.p50", shard_flush_ms.P(0.50), "ms");
  m.Set("shard.flush_call_ms.p99", shard_flush_ms.P(0.99), "ms");
  m.Set("shard.ops_per_s", shard_ops_per_s, "1/s");
  m.Set("shard.hop_ms.p50", PairedDiffP50(shard_per_op, service_per_op) / 1e6, "ms");
  m.Set("shard.query_skew", QuerySkew(worlds, kShards), "ratio");
  m.Set("shard.record_call_us.p50", tracer->Durations(SpanKind::kShardRecord).Median() / 1e3, "us");
  const double svc_flushes = static_cast<double>(svc1.flushes - svc0.flushes);
  m.Set("shard.flushes_per_s", SafeRatio(svc_flushes, static_cast<double>(finished - start) / 1e9),
        "1/s");
  m.Set("shard.changes_per_flush",
        SafeRatio(static_cast<double>(svc1.changes_flushed - svc0.changes_flushed), svc_flushes),
        "count");
  std::vector<std::pair<uint64_t, const Batch*>> sent;
  for (size_t w = 0; w < worlds.size(); ++w) {
    for (int64_t k = std::max<int64_t>(first_measured[w], 0); k < consumed[w]; ++k) {
      sent.emplace_back(worlds[w].key, &op_batch(w, k));
    }
  }
  AddWireCodecMetrics(sent, all.event_sample, &m);
  const double events_per_op = SafeRatio(static_cast<double>(all.events), static_cast<double>(all.ops));
  double event_bytes = 0;
  for (const srv::PlanChangeEventMsg& e : all.event_sample) {
    event_bytes += static_cast<double>(srv::EncodePlanChangeEvent(e).size());
  }
  // Per op: the record and flush answers, and the flush's events.
  m.Set("wire.bytes_per_flush",
        2.0 * static_cast<double>(srv::EncodeOk(1, 4).size()) +
            events_per_op * SafeRatio(event_bytes, static_cast<double>(all.event_sample.size())),
        "bytes");
  m.Set("client.record_rtt_us.p50", client_record_us.P(0.50), "us");
  m.Set("client.record_rtt_us.p99", client_record_us.P(0.99), "us");
  m.Set("client.flush_rtt_ms.p50", client_flush_ms.P(0.50), "ms");
  m.Set("client.flush_rtt_ms.p99", client_flush_ms.P(0.99), "ms");
  m.Set("client.events_per_flush", events_per_op, "count");
  m.Set("daemon.self_ms.p50",
        PairedDiffP50(tracer->PerOp(SpanKind::kClientFlush), shard_per_op) / 1e6, "ms");
  m.Set("daemon.serialization", SafeRatio(shard_ops_per_s, socket_ops_per_s), "ratio");
  m.Set("trace.overhead_pct",
        100.0 * (SafeRatio(all.traced_ms.Median(), all.untraced_ms.Median()) - 1), "%");
  AddDecomposition("daemon_flush_rtt decomposition",
                   {{"op (record + flush)", tracer->Durations(SpanKind::kOp).Median() / 1e6},
                    {"client.flush", client_flush_ms.Median()},
                    {"shard.flush (replay)", shard_flush_ms.Median()},
                    {"service.flush (replay)", m.Get("service.flush_ms.p50")},
                    {"core.flush (replay)", tracer->Durations(SpanKind::kCoreFlush).Median() / 1e6},
                    {"client.record", client_record_us.Median() / 1e3},
                    {"daemon self (flush)", m.Get("daemon.self_ms.p50")},
                    {"shard hop", m.Get("shard.hop_ms.p50")},
                    {"service self", m.Get("service.self_ms.p50")}},
                   {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, &r);
  if (tracer->dropped() > 0) {
    r.notes.push_back("warning: " + std::to_string(tracer->dropped()) + " spans dropped");
  }
  if (!o.trace_file.empty()) tracer->WriteCsv(o.trace_file);
  return r;
}

}  // namespace bench_suite

#endif  // BENCH_SUITE_SUITE_DAEMON_FLUSH_RTT_H_
