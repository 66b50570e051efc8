// Spans recorded by the benchmark's own code around its calls into each
// layer. A span has a kind (its name), start and end, the span that caused
// it and the id of the op it belongs to. Spans live in a buffer allocated
// before the run and are analysed, and optionally written out, after it.
// A null Tracer* turns every span into a no-op: untraced runs record
// nothing.
#ifndef BENCH_SUITE_SUITE_TRACE_H_
#define BENCH_SUITE_SUITE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "suite/measure.h"

namespace bench_suite {

enum class SpanKind : uint8_t {
  kOp,            // one whole op at the workload's top layer
  kStatsRecord,   // StatsRegistry mutator (testing::ApplyMutation)
  kStatsDrain,    // StatsRegistry::TakePendingBatch
  kCoreFlush,     // the core-level equivalent of one flush (drain + passes)
  kCoreReopt,     // DeclarativeOptimizer::ReoptimizeBatch, one query pass
  kCoreDigest,    // DeclarativeOptimizer::ComputePlanDigest
  kServiceFlush,  // ReoptSession::Flush
  kShardRecord,   // ShardedService::RecordStatBatch
  kShardFlush,    // ShardedService::Flush
  kClientRecord,  // Client::RecordStatBatch round trip
  kClientFlush,   // Client::Flush round trip
  kCount,
};

inline const char* SpanName(SpanKind k) {
  static const char* const kNames[] = {
      "op",          "stats.record",  "stats.drain",  "core.flush",
      "core.reopt",  "core.digest",   "service.flush", "shard.record",
      "shard.flush", "client.record", "client.flush",
  };
  return kNames[static_cast<size_t>(k)];
}

class Tracer {
 public:
  static constexpr uint32_t kNoSpan = 0xFFFFFFFFu;

  explicit Tracer(size_t capacity) : spans_(capacity) {}

  /// Opens a span; safe from several threads at once (each span is then
  /// written by the thread that opened it). Returns kNoSpan when full.
  uint32_t Begin(SpanKind kind, uint64_t op, uint32_t parent) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= spans_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return kNoSpan;
    }
    spans_[i] = Rec{NowNs(), 0, op, parent, kind};
    return static_cast<uint32_t>(i);
  }
  void End(uint32_t i) {
    if (i != kNoSpan) spans_[i].end_ns = NowNs();
  }

  size_t size() const { return std::min(next_.load(), spans_.size()); }
  int64_t dropped() const { return dropped_.load(); }

  /// Durations in ns of the closed spans of `kind`.
  Samples Durations(SpanKind kind) const {
    Samples s;
    for (size_t i = 0; i < size(); ++i) {
      const Rec& r = spans_[i];
      if (r.kind == kind && r.end_ns != 0) s.Add(static_cast<double>(r.end_ns - r.start_ns));
    }
    return s;
  }

  /// Per op id: the summed duration in ns of the closed spans of `kind`.
  std::unordered_map<uint64_t, int64_t> PerOp(SpanKind kind) const {
    std::unordered_map<uint64_t, int64_t> m;
    for (size_t i = 0; i < size(); ++i) {
      const Rec& r = spans_[i];
      if (r.kind == kind && r.end_ns != 0) m[r.op] += r.end_ns - r.start_ns;
    }
    return m;
  }

  /// Self time in ns of each closed span of `kind`: its duration minus the
  /// durations of its child spans (children of one span run one after
  /// another on its thread, so they never overlap).
  Samples SelfTimes(SpanKind kind) const {
    std::vector<int64_t> child(size(), 0);
    for (size_t i = 0; i < size(); ++i) {
      const Rec& r = spans_[i];
      if (r.parent != kNoSpan && r.end_ns != 0) child[r.parent] += r.end_ns - r.start_ns;
    }
    Samples s;
    for (size_t i = 0; i < size(); ++i) {
      const Rec& r = spans_[i];
      if (r.kind == kind && r.end_ns != 0) {
        s.Add(static_cast<double>(r.end_ns - r.start_ns - child[i]));
      }
    }
    return s;
  }

  /// Writes every span as CSV: kind,op,parent,start_ns,end_ns.
  bool WriteCsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "kind,op,parent,start_ns,end_ns\n");
    for (size_t i = 0; i < size(); ++i) {
      const Rec& r = spans_[i];
      std::fprintf(f, "%s,%llu,%lld,%lld,%lld\n", SpanName(r.kind),
                   static_cast<unsigned long long>(r.op),
                   r.parent == kNoSpan ? -1LL : static_cast<long long>(r.parent),
                   static_cast<long long>(r.start_ns), static_cast<long long>(r.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Rec {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t op = 0;
    uint32_t parent = kNoSpan;
    SpanKind kind = SpanKind::kOp;
  };
  std::vector<Rec> spans_;
  std::atomic<size_t> next_{0};
  std::atomic<int64_t> dropped_{0};
};

/// RAII span; a no-op when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind kind, uint64_t op, uint32_t parent = Tracer::kNoSpan)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(kind, op, parent) : Tracer::kNoSpan) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

/// p50 of (a - b) over the op ids present in both per-op maps, in ns: the
/// self time of a layer measured against the same op one layer lower.
inline double PairedDiffP50(const std::unordered_map<uint64_t, int64_t>& a,
                            const std::unordered_map<uint64_t, int64_t>& b) {
  Samples s;
  for (const auto& [op, ns] : a) {
    auto it = b.find(op);
    if (it != b.end()) s.Add(static_cast<double>(ns - it->second));
  }
  return s.Median();
}

}  // namespace bench_suite

#endif  // BENCH_SUITE_SUITE_TRACE_H_
