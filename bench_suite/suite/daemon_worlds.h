// What the two daemon workloads share: the self-hosted daemon's socket,
// the registered chain4 worlds, the oracle over the service's queries, and
// the shard layer's event sink.
#ifndef BENCH_SUITE_SUITE_DAEMON_WORLDS_H_
#define BENCH_SUITE_SUITE_DAEMON_WORLDS_H_

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "server/sharded_service.h"
#include "suite/worlds.h"

namespace bench_suite {

/// A Unix socket path relative to the working directory (run.py runs the
/// suite inside its build directory), short enough for sun_path.
inline std::string SocketPath(const char* tag) {
  return std::string("bench_suite_") + tag + "_" + std::to_string(getpid()) + ".sock";
}

/// One chain4 world as registered: configuration k uses option set
/// k % OptionSets().size().
struct DaemonWorld {
  uint64_t key = 0;
  std::vector<uint64_t> query_ids;
  std::vector<uint32_t> shards;
};

/// Max over mean queries per shard.
inline double QuerySkew(const std::vector<DaemonWorld>& worlds, int num_shards) {
  std::vector<double> per_shard(static_cast<size_t>(num_shards), 0);
  double total = 0;
  for (const DaemonWorld& w : worlds) {
    for (uint32_t s : w.shards) {
      per_shard[s] += 1;
      total += 1;
    }
  }
  return SafeRatio(*std::max_element(per_shard.begin(), per_shard.end()),
                   total / static_cast<double>(num_shards));
}

/// Oracle for one world: a fresh world with `history` applied in order,
/// optimized from scratch per option set, against every registered
/// query's canonical state in the service. Returns the mismatch count.
inline int64_t CheckServiceWorld(iqro::server::ShardedService& service, const DaemonWorld& w,
                                 const std::deque<const Batch*>& history, Samples* scratch_us,
                                 const std::string& repro) {
  auto fresh = MakeChainWorld(w.key, 0, nullptr);
  for (const Batch* b : history) {
    for (const StatMutation& m : *b) iqro::testing::ApplyMutation(fresh->registry, m);
  }
  const auto scratch =
      ScratchCanonicals(fresh->registry, fresh->enumerator, w.query_ids.size(), scratch_us);
  int64_t bad = 0;
  for (size_t k = 0; k < w.query_ids.size(); ++k) {
    if (service.QueryCanonicalDump(w.query_ids[k]) != scratch[k % scratch.size()]) {
      if (bad == 0) {
        std::fprintf(stderr, "oracle mismatch: world %llu config %zu (%s); repro: %s\n",
                     static_cast<unsigned long long>(w.key), k,
                     OptionSets()[k % OptionSets().size()].first.c_str(), repro.c_str());
      }
      ++bad;
    }
  }
  return bad;
}

/// In-process event sink for the shard-layer replays: counts events.
class CountingSink final : public iqro::server::EventSink {
 public:
  void OnServerEvent(const iqro::server::ServerEvent& /*event*/) override {
    events_.fetch_add(1, std::memory_order_relaxed);
  }
  int64_t events() const { return events_.load(); }

 private:
  std::atomic<int64_t> events_{0};
};

}  // namespace bench_suite

#endif  // BENCH_SUITE_SUITE_DAEMON_WORLDS_H_
