// daemon_ingest_open: the write path, where statistics arrive independently
// of the optimizer. A self-hosted Daemon with 4 shards and a 5 ms flush
// deadline (1 ms poll granularity); 16 chain4 worlds x 16 configurations on
// one connection, one generator thread (the caller) and one reader thread.
// 12 busy worlds get +-3% noise on two statistics. 4 quiet worlds, one per
// shard, get only probes: a probe is a decisive plan flip, and a quiet world
// gets its next probe 10 ms after the previous probe's event arrives.
//
// Open loop: busy batches are due on a fixed schedule at the phase's rate
// and probes ride on top. A batch is answered by the first plan-change
// event of a flush that applied it: the generator applies each batch to a
// mirror registry of its world, and an event whose flush epoch has reached
// the epoch the batch left behind covers it.
//
// The untraced run measures, at 1000 batches/s, busy batches (op_*) and
// probes (plan_*) from their send to that event. From the send, not the due
// time: a daemon stall cannot delay the generator, whose writes do not
// block at this rate (the socket buffer holds seconds of batches), so the
// difference is only the generator's own lateness, reported on its own.
// The traced run climbs the rate ladder (500 .. 64000 batches/s) and
// checks, per rung, the limits on acks and probes timed from the due time,
// so that there a stall also charges the requests queued behind it, and on
// the generator's lateness; then it measures the saturated ingest rate with
// 256 batches in flight (median of five bursts). The generator sleeps with
// 1 ns timer slack and spins the last 50 us before each due time.
#ifndef BENCH_SUITE_SUITE_DAEMON_INGEST_OPEN_H_
#define BENCH_SUITE_SUITE_DAEMON_INGEST_OPEN_H_

#include <sys/prctl.h>

#include <atomic>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "server/daemon.h"
#include "server/wire.h"
#include "suite/daemon_worlds.h"
#include "suite/raw_conn.h"
#include "suite/replay.h"
#include "suite/report.h"
#include "suite/trace.h"
#include "suite/wire_codec.h"
#include "suite/worlds.h"

namespace bench_suite {

/// Limits a ladder rung must meet.
inline constexpr double kAckP99LimitMs = 10;
inline constexpr double kProbeP99LimitMs = 50;  // 10x the flush deadline
inline constexpr double kLateP99LimitMs = 1;

/// What the reader thread saw in one phase.
struct IngestPhase {
  Samples ack_due_ms;   // ack arrival - due time
  Samples ack_send_ms;  // ack arrival - send time
  Samples ack_even_ms;  // ack_due_ms of even request ids (traced in traced runs)
  Samples ack_odd_ms;
  Samples fresh_ms;      // busy batch: covering event arrival - send time
  Samples probe_ms;      // probe: covering event arrival - send time
  Samples probe_due_ms;  // probe: covering event arrival - due time
  int64_t events = 0;
  int64_t bytes = 0;
  int64_t errors = 0;
  int64_t last_ack_ns = 0;
};

/// The generator side (run on the calling thread) and the reader thread of
/// the ingest workload, sharing one RawConn.
class IngestLoad {
 public:
  static constexpr int kMaxPhases = 12;
  static constexpr int64_t kProbeGapNs = 10'000'000;

  struct LogItem {
    size_t world;
    const Batch* batch;
    int64_t due_ns;
  };

  /// `mirrors` holds, per world, a registry in the daemon world's initial
  /// state; the generator applies every batch it sends to it, so it knows
  /// the registry epoch each batch leaves behind.
  IngestLoad(RawConn* conn, iqro::server::Daemon* daemon, const std::vector<DaemonWorld>* worlds,
             const std::vector<size_t>& quiet, const std::vector<Batch>* pool,
             const std::vector<size_t>* pool_world, std::vector<iqro::StatsRegistry*> mirrors,
             Tracer* tracer)
      : conn_(conn),
        daemon_(daemon),
        worlds_(worlds),
        pool_(pool),
        pool_world_(pool_world),
        tracer_(tracer),
        mirrors_(std::move(mirrors)),
        due_(new std::atomic<int64_t>[kRing]),
        sent_(new std::atomic<int64_t>[kRing]),
        ring_phase_(new std::atomic<uint8_t>[kRing]),
        history_(worlds->size()),
        pending_(worlds->size()),
        last_epoch_(worlds->size()) {
    for (size_t w = 0; w < mirrors_.size(); ++w) last_epoch_[w] = mirrors_[w]->epoch();
    // The generator runs on the constructing thread; 1 ns timer slack keeps
    // its sleeps from overshooting the spin window.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (size_t w : quiet) probes_.push_back(Probe{w});
    probe_batches_[0] = ProbeBatch(false);
    probe_batches_[1] = ProbeBatch(true);
    reader_ = std::thread([this] { ReaderLoop(); });
  }
  ~IngestLoad() { StopReader(); }
  IngestLoad(const IngestLoad&) = delete;
  IngestLoad& operator=(const IngestLoad&) = delete;

  void StopReader() {
    stop_.store(true);
    if (reader_.joinable()) reader_.join();
  }

  /// Busy batches due every 1/rate s for `seconds`, plus probes. `log`
  /// records what was sent (the traced run replays it one layer lower).
  void OpenLoop(int phase, double rate, double seconds, bool log) {
    if (!tracking_) throw std::logic_error("OpenLoop after Saturate: mirrors are stale");
    current_phase_.store(phase);
    const size_t expected = static_cast<size_t>(rate * seconds * 1.5) + 1024;
    late_ms_[phase].Reserve(expected);
    if (log) log_.reserve(log_.size() + expected);
    const int64_t t0 = NowNs();
    const int64_t stop_at = t0 + static_cast<int64_t>(seconds * 1e9);
    start_ns_[phase] = t0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      for (size_t q = 0; q < probes_.size(); ++q) {
        probes_[q].next_due = t0 + static_cast<int64_t>(q) * kProbeGapNs /
                                       static_cast<int64_t>(probes_.size());
      }
    }
    for (int64_t i = 0;;) {
      const int64_t busy_due = t0 + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
      if (busy_due >= stop_at) break;
      int probe = -1;
      int64_t due = busy_due;
      {
        std::lock_guard<std::mutex> lk(mu_);
        for (size_t q = 0; q < probes_.size(); ++q) {
          if (!probes_[q].outstanding && probes_[q].next_due < due) {
            due = probes_[q].next_due;
            probe = static_cast<int>(q);
          }
        }
      }
      SleepUntilNs(due);
      if (probe >= 0) {
        Probe& p = probes_[static_cast<size_t>(probe)];  // world and high: generator-owned
        p.high = !p.high;
        ++probes_sent_[phase];
        Send(phase, p.world, &probe_batches_[p.high ? 1 : 0], due, log, probe);
      } else {
        const size_t j = pool_cursor_++ % pool_->size();
        Send(phase, (*pool_world_)[j], &(*pool_)[j], due, log, -1);
        ++i;
      }
    }
  }

  /// `bursts` bursts of busy batches only, at most `window` unacknowledged,
  /// together lasting `seconds`, each closed by a FlushAll barrier. A
  /// burst's rate counts from its first send to its barrier's answer (every
  /// batch applied and flushed by then). Returns the median burst rate.
  double Saturate(int phase, int64_t window, double seconds, int bursts) {
    current_phase_.store(phase);
    {
      // Saturated batches skip the mirrors (applying them would slow the
      // generator), so freshness is not tracked from here on.
      std::lock_guard<std::mutex> lk(mu_);
      tracking_ = false;
    }
    Samples rates;
    for (int b = 0; b < bursts; ++b) {
      const int64_t t0 = NowNs();
      const int64_t stop_at = t0 + static_cast<int64_t>(seconds / bursts * 1e9);
      const int64_t sent0 = sent_batches_;
      while (NowNs() < stop_at) {
        int64_t acked = acked_.load(std::memory_order_acquire);
        while (sent_batches_ - acked >= window) {
          acked_.wait(acked);
          acked = acked_.load(std::memory_order_acquire);
        }
        const size_t j = pool_cursor_++ % pool_->size();
        Send(phase, (*pool_world_)[j], &(*pool_)[j], NowNs(), false, -1);
      }
      Barrier();
      rates.Add(SafeRatio(static_cast<double>(sent_batches_ - sent0),
                          static_cast<double>(NowNs() - t0) / 1e9));
    }
    return rates.Median();
  }

  /// Closes a phase: waits for every ack, times a shard Drain() (the
  /// backlog the rung left), waits up to 1 s for outstanding probes, then
  /// a FlushAll barrier, after which every event is in. A probe or busy
  /// batch still waiting for its event is missing. Returns the drain time
  /// in ms.
  double EndPhase() {
    WaitUntil([&] { return acked_.load() >= sent_batches_; }, 30'000);
    const int64_t d0 = NowNs();
    daemon_->service().Drain();
    const double drain_ms = NsToMs(NowNs() - d0);
    WaitUntil(
        [&] {
          std::lock_guard<std::mutex> lk(mu_);
          for (const Probe& p : probes_) {
            if (p.outstanding) return false;
          }
          return true;
        },
        1000);
    Barrier();
    std::lock_guard<std::mutex> lk(mu_);
    for (std::deque<Pending>& q : pending_) {
      for (const Pending& p : q) ++(p.probe >= 0 ? missed_probes_ : missed_busy_)[p.phase];
      q.clear();
    }
    for (Probe& p : probes_) p.outstanding = false;
    return drain_ms;
  }

  // ---- results (read after StopReader) ----
  const IngestPhase& phase(int p) const { return phases_[p]; }
  const Samples& late_ms(int p) const { return late_ms_[p]; }
  int64_t missed_probes(int p) const { return missed_probes_[p]; }
  int64_t missed_busy(int p) const { return missed_busy_[p]; }
  /// Events whose flush epoch no mirror had reached: the epoch attribution
  /// is out of step with the daemon (a benchmark bug).
  int64_t misattributed() const { return misattributed_; }
  int64_t probes_sent(int p) const { return probes_sent_[p]; }
  int64_t sent(int p) const { return sent_per_phase_[p]; }
  /// Batches acknowledged per second of an open-loop phase, from its start
  /// to its last ack.
  double acked_per_s(int p) const {
    return SafeRatio(static_cast<double>(phases_[p].ack_due_ms.size()),
                     static_cast<double>(phases_[p].last_ack_ns - start_ns_[p]) / 1e9);
  }
  int64_t unacked() const { return sent_batches_ - acked_.load(); }
  const std::vector<std::deque<const Batch*>>& history() const { return history_; }
  const std::vector<LogItem>& log() const { return log_; }
  const std::vector<iqro::server::PlanChangeEventMsg>& event_sample() const {
    return event_sample_;
  }
  const std::string& reader_error() const { return reader_error_; }

 private:
  static constexpr size_t kRing = size_t{1} << 20;

  struct Probe {
    size_t world = 0;
    bool high = false;         // generator-owned: which end the last probe set
    bool outstanding = false;  // guarded by mu_
    int64_t next_due = 0;      // guarded by mu_
  };

  /// A sent batch waiting for the first event of a flush that applied it:
  /// one whose flush epoch is at least the epoch the batch left behind.
  struct Pending {
    uint64_t epoch;
    int64_t due_ns;
    int64_t sent_ns;
    int phase;
    int probe;  // index into probes_, or -1 for a busy batch
  };

  /// Sleeps to within kSpinNs of `due`, then spins: a plain sleep wakes
  /// tens of microseconds late, which would be charged to the daemon.
  static void SleepUntilNs(int64_t due) {
    constexpr int64_t kSpinNs = 50'000;
    if (due - NowNs() > kSpinNs) {
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due - kSpinNs)));
    }
    while (NowNs() < due) {
    }
  }

  template <typename Pred>
  void WaitUntil(Pred done, int timeout_ms) {
    const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_ms) * 1'000'000;
    while (!done() && NowNs() < deadline && reader_error_flag_.load() == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  void Send(int phase, size_t world, const Batch* batch, int64_t due, bool log, int probe) {
    const uint64_t id = next_id_++;
    req_.world_key = (*worlds_)[world].key;
    req_.mutations = *batch;
    Tracer* t = log && id % 2 == 0 ? tracer_ : nullptr;
    ScopedSpan span(t, SpanKind::kClientRecord, id);
    const std::string frame = iqro::server::EncodeRecordStatBatch(id, req_);
    const int64_t sent_at = NowNs();
    if (tracking_) {
      // Registered before the frame leaves, so no event can beat it.
      for (const StatMutation& m : *batch) iqro::testing::ApplyMutation(mirrors_[world], m);
      std::lock_guard<std::mutex> lk(mu_);
      pending_[world].push_back({mirrors_[world]->epoch(), due, sent_at, phase, probe});
      last_epoch_[world] = mirrors_[world]->epoch();
      if (probe >= 0) probes_[static_cast<size_t>(probe)].outstanding = true;
    }
    const size_t slot = id & (kRing - 1);
    ring_phase_[slot].store(static_cast<uint8_t>(phase), std::memory_order_relaxed);
    sent_[slot].store(sent_at, std::memory_order_relaxed);
    due_[slot].store(due, std::memory_order_release);
    conn_->Send(frame);
    ++sent_batches_;
    ++sent_per_phase_[phase];
    late_ms_[phase].Add(NsToMs(sent_at - due));
    history_[world].push_back(batch);
    if (log) log_.push_back({world, batch, due});
  }

  void Barrier() {
    const uint64_t id = next_id_++;
    barrier_id_.store(id);
    iqro::server::FlushReq req;
    req.all = true;
    conn_->Send(iqro::server::EncodeFlush(id, req));
    WaitUntil([&] { return barrier_acked_.load() == id; }, 60'000);
  }

  void ReaderLoop() {
    namespace srv = iqro::server;
    std::string payload;
    try {
      while (!stop_.load()) {
        const int64_t n = conn_->Read(20);
        IngestPhase& cur = phases_[current_phase_.load()];
        cur.bytes += n;
        while (conn_->Next(&payload)) {
          const srv::ServerMessage msg = srv::DecodeServerMessage(payload);
          const int64_t now = NowNs();
          if (msg.type == srv::MsgType::kPlanChange) {
            ++cur.events;
            if (event_sample_.size() < 4096) event_sample_.push_back(msg.plan_change);
            OnEvent(msg.plan_change, now);
            continue;
          }
          if (msg.request_id == barrier_id_.load()) {
            barrier_acked_.store(msg.request_id);
            continue;
          }
          if (msg.type != srv::MsgType::kOk && msg.type != srv::MsgType::kError) continue;
          const size_t slot = msg.request_id & (kRing - 1);
          const int64_t due = due_[slot].load(std::memory_order_acquire);
          IngestPhase& ph = phases_[ring_phase_[slot].load(std::memory_order_relaxed)];
          if (msg.type == srv::MsgType::kError) {
            ++ph.errors;
          } else {
            const double ms = NsToMs(now - due);
            ph.ack_due_ms.Add(ms);
            ph.last_ack_ns = now;
            ph.ack_send_ms.Add(NsToMs(now - sent_[slot].load(std::memory_order_relaxed)));
            (msg.request_id % 2 == 0 ? ph.ack_even_ms : ph.ack_odd_ms).Add(ms);
          }
          acked_.fetch_add(1, std::memory_order_release);
          acked_.notify_all();
        }
      }
    } catch (const std::exception& e) {
      reader_error_ = e.what();
      reader_error_flag_.store(1);
      acked_.fetch_add(std::numeric_limits<int32_t>::max());  // release a waiting generator
      acked_.notify_all();
    }
  }

  /// An event answers every pending batch of its world that its flush
  /// applied; an answered probe schedules the world's next one.
  void OnEvent(const iqro::server::PlanChangeEventMsg& e, int64_t now) {
    size_t w = 0;
    while (w < worlds_->size() && (*worlds_)[w].key != e.world_key) ++w;
    if (w == worlds_->size()) return;
    std::lock_guard<std::mutex> lk(mu_);
    if (!tracking_) return;
    if (e.flush_epoch > last_epoch_[w]) ++misattributed_;
    std::deque<Pending>& q = pending_[w];
    while (!q.empty() && q.front().epoch <= e.flush_epoch) {
      const Pending& p = q.front();
      IngestPhase& ph = phases_[p.phase];
      (p.probe >= 0 ? ph.probe_ms : ph.fresh_ms).Add(NsToMs(now - p.sent_ns));
      if (p.probe >= 0) {
        ph.probe_due_ms.Add(NsToMs(now - p.due_ns));
        probes_[static_cast<size_t>(p.probe)].outstanding = false;
        probes_[static_cast<size_t>(p.probe)].next_due = now + kProbeGapNs;
      }
      q.pop_front();
    }
  }

  RawConn* conn_;
  iqro::server::Daemon* daemon_;
  const std::vector<DaemonWorld>* worlds_;
  const std::vector<Batch>* pool_;
  const std::vector<size_t>* pool_world_;
  Tracer* tracer_;
  std::vector<iqro::StatsRegistry*> mirrors_;  // generator-owned

  // Generator-owned.
  uint64_t next_id_ = 1;
  size_t pool_cursor_ = 0;
  int64_t sent_batches_ = 0;
  int64_t sent_per_phase_[kMaxPhases] = {};
  int64_t start_ns_[kMaxPhases] = {};
  int64_t probes_sent_[kMaxPhases] = {};
  int64_t missed_probes_[kMaxPhases] = {};
  int64_t missed_busy_[kMaxPhases] = {};
  Samples late_ms_[kMaxPhases];
  iqro::server::RecordStatBatchReq req_;
  Batch probe_batches_[2];
  std::vector<LogItem> log_;

  // Written by the generator before a send, read by the reader after the
  // ack (the release/acquire pair on due_ orders them).
  std::unique_ptr<std::atomic<int64_t>[]> due_;
  std::unique_ptr<std::atomic<int64_t>[]> sent_;
  std::unique_ptr<std::atomic<uint8_t>[]> ring_phase_;
  // Per world, every batch sent, in order (deques: growing never copies,
  // so the generator never stalls on a reallocation).
  std::vector<std::deque<const Batch*>> history_;  // generator-owned

  std::atomic<int> current_phase_{0};
  std::atomic<int64_t> acked_{0};
  std::atomic<uint64_t> barrier_id_{0};
  std::atomic<uint64_t> barrier_acked_{0};
  std::atomic<bool> stop_{false};
  std::atomic<int> reader_error_flag_{0};

  std::mutex mu_;
  std::vector<Probe> probes_;
  std::vector<std::deque<Pending>> pending_;  // guarded by mu_, per world
  std::vector<uint64_t> last_epoch_;          // guarded by mu_: each mirror's epoch
  bool tracking_ = true;                      // guarded by mu_ (written by the generator)
  int64_t misattributed_ = 0;                 // guarded by mu_

  // Reader-owned until the reader stops.
  IngestPhase phases_[kMaxPhases];
  std::vector<iqro::server::PlanChangeEventMsg> event_sample_;
  std::string reader_error_;

  std::thread reader_;  // last: starts after every member it uses exists
};

/// 16 world keys spread 4 per shard (so every quiet world shares its shard
/// with busy ones); the first world of each shard is its quiet world.
inline void IngestWorlds(int shards, std::vector<DaemonWorld>* worlds, std::vector<size_t>* quiet) {
  const iqro::RelSet mask = Chain4Query().AllRelations();
  std::vector<int> per_shard(static_cast<size_t>(shards), 0);
  for (uint64_t key = 2000; worlds->size() < static_cast<size_t>(4 * shards); ++key) {
    const uint32_t s = iqro::server::ShardedService::ShardOfWorld(key, mask, shards);
    if (per_shard[s] == 4) continue;
    if (per_shard[s]++ == 0) quiet->push_back(worlds->size());
    worlds->push_back(DaemonWorld{key, {}, {}});
  }
}

inline RunResult RunDaemonIngestOpen(const RunOptions& o) {
  namespace srv = iqro::server;
  constexpr int kShards = 4;
  constexpr int kConfigs = 16;
  constexpr int64_t kWindow = 256;
  RunResult r;
  const iqro::QuerySpec query = Chain4Query();
  const std::string socket = SocketPath("ingest");
  std::vector<DaemonWorld> worlds;
  std::vector<size_t> quiet;
  IngestWorlds(kShards, &worlds, &quiet);
  srv::ShardedServiceOptions service_opts;
  service_opts.num_shards = kShards;
  service_opts.flush_deadline = std::chrono::milliseconds(5);
  service_opts.poll_granularity = std::chrono::milliseconds(1);

  std::unique_ptr<RawConn> conn;
  std::unique_ptr<srv::Daemon> daemon;
  Samples setup_s;
  for (int rep = 0; rep < (o.trace ? 1 : kSetupReps); ++rep) {
    conn.reset();
    if (daemon != nullptr) daemon->Stop();
    daemon.reset();
    const int64_t t0 = NowNs();
    srv::DaemonOptions opts;
    opts.unix_path = socket;
    opts.service = service_opts;
    daemon = std::make_unique<srv::Daemon>(opts);
    daemon->Start();
    conn = std::make_unique<RawConn>();
    conn->ConnectUnix(socket);
    uint64_t id = 0;
    for (DaemonWorld& w : worlds) {
      w.query_ids.clear();
      w.shards.clear();
      srv::RegisterQueryReq req;
      req.world_key = w.key;
      req.catalog = Chain4Catalog(w.key);
      req.query = query;
      for (int k = 0; k < kConfigs; ++k) {
        req.options_name = OptionSets()[k % OptionSets().size()].first;
        ++id;
        const srv::ServerMessage resp = conn->Call(srv::EncodeRegisterQuery(id, req), id);
        w.query_ids.push_back(resp.registered.query_id);
        w.shards.push_back(resp.registered.shard);
      }
    }
    setup_s.Add(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // Busy batches: +-3% around each world's initial statistics. The
  // initial worlds then serve as the load's epoch mirrors.
  std::vector<size_t> busy;
  for (size_t w = 0; w < worlds.size(); ++w) {
    if (std::find(quiet.begin(), quiet.end(), w) == quiet.end()) busy.push_back(w);
  }
  std::vector<std::unique_ptr<World>> initial;
  std::vector<iqro::StatsRegistry*> mirrors;
  for (const DaemonWorld& w : worlds) {
    initial.push_back(MakeChainWorld(w.key, 0, nullptr));
    mirrors.push_back(initial.back()->registry);
  }
  std::vector<Batch> pool(1u << 16);
  std::vector<size_t> pool_world(pool.size());
  Rng rng = StreamRng(o.seed, 4);
  for (size_t j = 0; j < pool.size(); ++j) {
    const size_t w = busy[j % busy.size()];
    const iqro::StatsRegistry& reg = *initial[w]->registry;
    const int rel = rng.Below(4);
    const int edge = rng.Below(3);
    const double a = 1 + 0.03 * (2 * rng.Uniform() - 1);
    const double b = 1 + 0.03 * (2 * rng.Uniform() - 1);
    pool[j] = {{MutKind::kBaseRows, rel, 0, reg.base_rows(rel) * a},
               {MutKind::kJoinSelectivity, edge, 0, std::min(1.0, reg.join_selectivity(edge) * b)}};
    pool_world[j] = w;
  }

  std::unique_ptr<Tracer> tracer = o.trace ? std::make_unique<Tracer>(1u << 21) : nullptr;
  IngestLoad load(conn.get(), daemon.get(), &worlds, quiet, &pool, &pool_world, std::move(mirrors),
                  tracer.get());
  const double warm_s = std::min(1.0, 0.1 * o.seconds);
  load.OpenLoop(0, 1000, warm_s, false);
  load.EndPhase();

  MetricSet& m = r.metrics;
  int log_phase = -1;
  srv::ShardedServiceStats svc0;
  srv::ShardedServiceStats svc1;
  double log_seconds = 0;
  double saturated = 0;
  std::vector<double> drain_ms;
  if (!o.trace) {
    load.OpenLoop(1, 1000, o.seconds, false);
    load.EndPhase();
  } else {
    const double rung_s = std::max(0.5, o.seconds / 12);
    for (size_t i = 0; i < LadderRates().size(); ++i) {
      const int phase = static_cast<int>(i) + 1;
      const bool log = LadderRates()[i] == 1000;
      if (log) {
        log_phase = phase;
        svc0 = daemon->service().Stats();
      }
      const int64_t t0 = NowNs();
      load.OpenLoop(phase, LadderRates()[i], rung_s, log);
      if (log) {
        log_seconds = static_cast<double>(NowNs() - t0) / 1e9;
        svc1 = daemon->service().Stats();
      }
      drain_ms.push_back(load.EndPhase());
    }
    // Capacity, last: saturated batches skip the mirrors. Acks do not wait
    // for the shards, so the backlog sits in unbounded shard queues and
    // each burst's barrier charges its drain.
    const int saturate_phase = static_cast<int>(LadderRates().size()) + 1;
    saturated = load.Saturate(saturate_phase, kWindow, 0.25 * o.seconds, 5);
    load.EndPhase();
  }
  load.StopReader();
  if (!load.reader_error().empty()) {
    throw std::runtime_error("ingest reader failed: " + load.reader_error());
  }
  if (load.misattributed() > 0) {
    throw std::runtime_error(std::to_string(load.misattributed()) +
                             " events carried a flush epoch no sent batch had reached");
  }

  Samples scratch_us;
  for (size_t w = 0; w < worlds.size(); ++w) {
    r.mismatches +=
        CheckServiceWorld(daemon->service(), worlds[w], load.history()[w], &scratch_us, o.Repro());
  }
  int64_t errors = load.unacked();
  for (int p = 0; p < IngestLoad::kMaxPhases; ++p) errors += load.phase(p).errors;

  if (!o.trace) {
    const IngestPhase& steady = load.phase(1);
    r.attempted = load.sent(1);
    r.failed = errors + load.missed_probes(1) + load.missed_busy(1) + r.mismatches;
    m.Set("op_p50_ms", steady.fresh_ms.P(0.50), "ms");
    m.Set("op_p90_ms", steady.fresh_ms.P(0.90), "ms");
    m.Set("ops_per_s", load.acked_per_s(1), "1/s");
    m.Set("plan_p50_ms", steady.probe_ms.P(0.50), "ms");
    m.Set("plan_p90_ms", steady.probe_ms.P(0.90), "ms");
    m.Set("setup_s", setup_s.Median(), "s");
    m.Set("rss_mb", MaxRssMb(), "MB");
    r.notes.push_back("daemon_ingest_open: " + std::to_string(load.sent(1)) +
                      " batches at 1000/s (" + std::to_string(load.probes_sent(1)) +
                      " probes; " + std::to_string(load.missed_probes(1)) + " probes and " +
                      std::to_string(load.missed_busy(1)) + " busy batches unanswered)");
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "  at 1000/s: generator late p50/p99/max %.3f/%.3f/%.3f ms; ack from due "
                  "p50/p99 %.3f/%.3f ms, from send p50/p99 %.3f/%.3f ms",
                  load.late_ms(1).P(0.5), load.late_ms(1).P(0.99), load.late_ms(1).P(1.0),
                  steady.ack_due_ms.P(0.5), steady.ack_due_ms.P(0.99), steady.ack_send_ms.P(0.5),
                  steady.ack_send_ms.P(0.99));
    r.notes.push_back(buf);
    daemon->Stop();
    return r;
  }

  // The ladder.
  int max_rate = 0;
  r.notes.push_back("daemon_ingest_open ladder (ms unless noted):");
  r.notes.push_back("      rate   ack_p99  probe_p99  missing  late_p99   drain   pass");
  for (size_t i = 0; i < LadderRates().size(); ++i) {
    const int phase = static_cast<int>(i) + 1;
    const std::string rate = std::to_string(LadderRates()[i]);
    const IngestPhase& ph = load.phase(phase);
    const double ack99 = ph.ack_due_ms.P(0.99);
    const double probe99 = ph.probe_due_ms.P(0.99);
    const double late99 = load.late_ms(phase).P(0.99);
    const double miss = SafeRatio(static_cast<double>(load.missed_probes(phase)),
                                  static_cast<double>(load.probes_sent(phase)));
    const bool pass = ack99 <= kAckP99LimitMs && probe99 <= kProbeP99LimitMs &&
                      load.missed_probes(phase) == 0 && late99 <= kLateP99LimitMs;
    if (pass) max_rate = std::max(max_rate, LadderRates()[i]);
    m.Set("client.ack_p99_ms." + rate, ack99, "ms");
    m.Set("client.plan_p99_ms." + rate, probe99, "ms");
    m.Set("client.probe_miss_ratio." + rate, miss, "ratio");
    m.Set("gen.late_p99_ms." + rate, late99, "ms");
    m.Set("shard.drain_ms." + rate, drain_ms[i], "ms");
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %8s %9.3f %10.3f %8lld %9.3f %7.2f   %s", rate.c_str(), ack99,
                  probe99, static_cast<long long>(load.missed_probes(phase)), late99, drain_ms[i],
                  pass ? "yes" : "no");
    r.notes.push_back(buf);
  }
  m.Set("ingest.max_rate_bps", max_rate, "1/s");
  m.Set("ingest.saturated_bps", saturated, "1/s");
  r.attempted = 0;
  for (int p = 1; p <= static_cast<int>(LadderRates().size()) + 1; ++p) r.attempted += load.sent(p);
  r.failed = errors + r.mismatches;

  const IngestPhase& lp = load.phase(log_phase);
  const double svc_flushes = static_cast<double>(svc1.flushes - svc0.flushes);
  m.Set("shard.flushes_per_s", SafeRatio(svc_flushes, log_seconds), "1/s");
  m.Set("shard.changes_per_flush",
        SafeRatio(static_cast<double>(svc1.changes_flushed - svc0.changes_flushed), svc_flushes),
        "count");
  m.Set("shard.query_skew", QuerySkew(worlds, kShards), "ratio");
  m.Set("client.record_rtt_us.p50", lp.ack_send_ms.P(0.50) * 1e3, "us");
  m.Set("client.record_rtt_us.p99", lp.ack_send_ms.P(0.99) * 1e3, "us");
  m.Set("client.events_per_flush", SafeRatio(static_cast<double>(lp.events), svc_flushes), "count");
  m.Set("wire.bytes_per_flush", SafeRatio(static_cast<double>(lp.bytes), svc_flushes), "bytes");
  m.Set("trace.overhead_pct",
        100.0 * (SafeRatio(lp.ack_even_ms.Median(), lp.ack_odd_ms.Median()) - 1), "%");
  std::vector<std::pair<uint64_t, const Batch*>> sent;
  for (const IngestLoad::LogItem& it : load.log()) sent.emplace_back(worlds[it.world].key, it.batch);
  AddWireCodecMetrics(sent, load.event_sample(), &m);
  daemon->Stop();
  daemon.reset();

  // Peel the layers off the 1000/s stream. Shard layer: an in-process
  // ShardedService with the same deadline policy, fed on the same schedule.
  {
    srv::ShardedService svc(service_opts);
    CountingSink sink;
    for (const DaemonWorld& w : worlds) {
      const auto catalog = Chain4Catalog(w.key);
      for (int k = 0; k < kConfigs; ++k) {
        svc.RegisterQuery(w.key, catalog, query, OptionSets()[k % OptionSets().size()].first, &sink);
      }
    }
    const auto& log = load.log();
    const int64_t shift = log.empty() ? 0 : NowNs() - log.front().due_ns;
    for (size_t i = 0; i < log.size(); ++i) {
      const int64_t due = log[i].due_ns + shift;
      if (due > NowNs()) std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
      ScopedSpan span(tracer.get(), SpanKind::kShardRecord, i);
      svc.RecordStatBatch(worlds[log[i].world].key, *log[i].batch);
    }
    svc.Drain();
  }
  const double shard_record_us = tracer->Durations(SpanKind::kShardRecord).Median() / 1e3;
  m.Set("shard.record_call_us.p50", shard_record_us, "us");
  m.Set("daemon.self_ms.p50", lp.ack_send_ms.Median() - shard_record_us / 1e3, "ms");

  // Service and core layers: at 1000/s every busy world sees one batch per
  // deadline window, so each batch is replayed as its own flush.
  ServiceTotals totals;
  for (size_t w = 0; w < worlds.size(); ++w) {
    std::vector<std::pair<uint64_t, const Batch*>> ops;
    for (size_t i = 0; i < load.log().size(); ++i) {
      if (load.log()[i].world == w) ops.emplace_back(i, load.log()[i].batch);
    }
    ReplayWorld(worlds[w].key, kConfigs, ops, 0, tracer.get(), &totals);
  }
  AddServiceMetrics(*tracer, totals, scratch_us, &m);
  AddDecomposition("daemon_ingest_open decomposition at 1000/s",
                   {{"ack (from send)", lp.ack_send_ms.Median()},
                    {"shard.record (replay)", shard_record_us / 1e3},
                    {"daemon self (record)", m.Get("daemon.self_ms.p50")},
                    {"service.flush (replay)", m.Get("service.flush_ms.p50")},
                    {"core.flush (replay)", tracer->Durations(SpanKind::kCoreFlush).Median() / 1e6},
                    {"service self", m.Get("service.self_ms.p50")}},
                   {{0, 1}, {3, 4}}, &r);
  if (!o.trace_file.empty()) tracer->WriteCsv(o.trace_file);
  return r;
}

}  // namespace bench_suite

#endif  // BENCH_SUITE_SUITE_DAEMON_INGEST_OPEN_H_
