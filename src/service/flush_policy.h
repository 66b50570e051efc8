// FlushPolicy: when does a ReoptSession turn its pending mutation stream
// into a flush?
//
// The simplest answer is a raw mutation count. Feedback loops that care
// about latency want to bound the staleness *window* instead (a deadline).
// This header makes the trigger a strategy object; the session evaluates
// it on every recorded mutation (ReoptSession::OnStatsMutated) and on
// demand via ReoptSession::Poll() for time-based policies that must fire
// without a mutation arriving.
//
// ## Contract
//
//  * ShouldFlush() is consulted (a) after every value-changing recorded
//    mutation, with the StatsMutationEvent mapped into the context, and
//    (b) on every Poll(). Returning true asks the session to flush now; the
//    session declines while a flush is already in flight (a mutation made
//    from a subscriber callback), and the next mutation or Poll re-asks.
//  * OnFlush() is called at the end of every Flush() that drained the
//    registry — including one whose batch coalesced to nothing — with the
//    count of statistics already pending again (mutations made from
//    subscriber callbacks during the flush, which belong to the next
//    batch). This is the policy's reset hook.
//  * Both methods run on the session's thread (one thread per world), so
//    policies need no internal locking. They must not call back into the
//    session or the registry: ShouldFlush runs inside a registry mutation
//    and OnFlush inside a flush, so a call back would re-enter them (the
//    decision is pure). They must not throw — OnFlush runs from the flush
//    epilogue's destructor, which fires even when a subscriber callback
//    threw (the flush did drain; the policy's reset is owed).
//  * One policy instance serves one session. Sessions share ownership of
//    the policy (shared_ptr) so ReoptSessionOptions stays copyable.
//
// Time-based policies take a Clock so tests can drive them without
// sleeping; everything here is single-clock, steady, and monotonic.
#ifndef IQRO_SERVICE_FLUSH_POLICY_H_
#define IQRO_SERVICE_FLUSH_POLICY_H_

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace iqro {

/// Injectable monotonic time source (DeadlinePolicy). The default
/// Real() clock reads std::chrono::steady_clock; tests substitute a
/// hand-advanced fake.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual std::chrono::steady_clock::time_point Now() const = 0;
  /// Process-wide steady-clock instance (never null, never destroyed).
  static const Clock* Real();
};

/// What a policy may look at when deciding. Snapshot semantics: the fields
/// describe the state at one recorded mutation (OnStatsMutated) or at one
/// Poll() probe; they do not update while ShouldFlush runs.
struct FlushPolicyContext {
  /// Value-changing mutations observed since the last Flush() drained
  /// (successful or absorbed). The CountPolicy input.
  int64_t mutations_since_flush = 0;
  /// Distinct statistics with a pending delta — the pending-scope mask
  /// size. From the mutation's event (mutation path) or a registry probe
  /// (Poll).
  size_t pending_stats = 0;
};

class FlushPolicy {
 public:
  virtual ~FlushPolicy() = default;

  /// Flush now? See the contract above for when this is consulted.
  virtual bool ShouldFlush(const FlushPolicyContext& ctx) = 0;

  /// A flush drained the registry: `pending_after` is the distinct
  /// statistics already pending again at flush end — mutations made from
  /// subscriber callbacks during the flush, which belong to the NEXT
  /// epoch's batch and which a time-based policy must not silently disarm
  /// on. Default: stateless policies
  /// ignore it.
  virtual void OnFlush(size_t pending_after) { (void)pending_after; }
};

/// Flush once N value-changing mutations accumulated. The latency/batching knob when mutation *count*
/// is the right proxy for staleness.
class CountPolicy final : public FlushPolicy {
 public:
  /// `flush_after` must be >= 1.
  explicit CountPolicy(int64_t flush_after);
  bool ShouldFlush(const FlushPolicyContext& ctx) override;

 private:
  int64_t flush_after_;
};

/// Bounded staleness in wall-clock terms: flush once the oldest pending
/// mutation has waited `deadline`. Arms on the first mutation after a
/// flush; disarms on OnFlush. Deadlines are only *observed* when the
/// session consults the policy — on the next mutation or on Poll() — so a
/// deadline-driven deployment calls Poll() from its driver loop at a
/// granularity finer than the deadline, as reoptd's shard loop does
/// (docs/API.md "Policy contract").
class DeadlinePolicy final : public FlushPolicy {
 public:
  /// `clock` defaults to the real steady clock; tests inject a fake. Not
  /// owned; must outlive the policy.
  explicit DeadlinePolicy(std::chrono::milliseconds deadline,
                          const Clock* clock = Clock::Real());
  bool ShouldFlush(const FlushPolicyContext& ctx) override;
  /// Disarms — unless mutations made during the flush are already pending
  /// for the next batch (`pending_after > 0`), in which case the window
  /// re-arms immediately so their wait is bounded from now, not from
  /// whenever the next consultation happens to arrive.
  void OnFlush(size_t pending_after) override;

 private:
  std::chrono::milliseconds deadline_;
  const Clock* clock_;
  bool armed_ = false;
  std::chrono::steady_clock::time_point batch_opened_{};
};

}  // namespace iqro

#endif  // IQRO_SERVICE_FLUSH_POLICY_H_
