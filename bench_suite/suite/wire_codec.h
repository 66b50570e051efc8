// Wire-layer metrics: the public codecs of server/wire.h timed over the
// frames a run sent and received.
#ifndef BENCH_SUITE_SUITE_WIRE_CODEC_H_
#define BENCH_SUITE_SUITE_WIRE_CODEC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "server/wire.h"
#include "suite/measure.h"
#include "suite/worlds.h"

namespace bench_suite {

/// Mean ns per call of `fn(i)` over i in [0, n), repeated until at least
/// 20 ms have been timed. The codecs live in another translation unit, so
/// their calls cannot be optimized away.
template <typename F>
double NsPerCall(size_t n, F&& fn) {
  if (n == 0) return 0;
  int64_t calls = 0;
  const int64_t t0 = NowNs();
  int64_t elapsed = 0;
  do {
    for (size_t i = 0; i < n; ++i) fn(i);
    calls += static_cast<int64_t>(n);
    elapsed = NowNs() - t0;
  } while (elapsed < 20'000'000);
  return static_cast<double>(elapsed) / static_cast<double>(calls);
}

inline std::string FramePayload(const std::string& frame) {
  return frame.substr(iqro::server::kFrameHeaderSize);
}

/// Codec timings over the record batches a run sent (world key, batch) and
/// the plan-change events it received; sets the wire.* metrics except
/// wire.bytes_per_flush.
inline void AddWireCodecMetrics(const std::vector<std::pair<uint64_t, const Batch*>>& sent,
                                const std::vector<iqro::server::PlanChangeEventMsg>& events,
                                MetricSet* m) {
  namespace wire = iqro::server;
  std::vector<wire::RecordStatBatchReq> reqs(sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    reqs[i].world_key = sent[i].first;
    reqs[i].mutations = *sent[i].second;
  }
  std::vector<std::string> frames(reqs.size());
  double bytes = 0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    frames[i] = wire::EncodeRecordStatBatch(i + 1, reqs[i]);
    bytes += static_cast<double>(frames[i].size());
  }
  m->Set("wire.encode_ns.record_batch",
         NsPerCall(reqs.size(),
                   [&](size_t i) { (void)wire::EncodeRecordStatBatch(i + 1, reqs[i]); }),
         "ns");
  std::vector<std::string> payloads;
  for (const std::string& f : frames) payloads.push_back(FramePayload(f));
  m->Set("wire.decode_ns.record_batch",
         NsPerCall(payloads.size(),
                   [&](size_t i) { (void)wire::DecodeRequest(payloads[i]); }),
         "ns");
  m->Set("wire.bytes.record_batch", SafeRatio(bytes, static_cast<double>(frames.size())), "bytes");

  m->Set("wire.encode_ns.plan_change",
         NsPerCall(events.size(),
                   [&](size_t i) { (void)wire::EncodePlanChangeEvent(events[i]); }),
         "ns");
  std::vector<std::string> event_payloads;
  for (const auto& e : events) event_payloads.push_back(FramePayload(wire::EncodePlanChangeEvent(e)));
  m->Set("wire.decode_ns.server_msg",
         NsPerCall(event_payloads.size(),
                   [&](size_t i) { (void)wire::DecodeServerMessage(event_payloads[i]); }),
         "ns");
}

}  // namespace bench_suite

#endif  // BENCH_SUITE_SUITE_WIRE_CODEC_H_
