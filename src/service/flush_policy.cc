#include "service/flush_policy.h"

#include "common/check.h"

namespace iqro {

namespace {

class SteadyClock final : public Clock {
 public:
  std::chrono::steady_clock::time_point Now() const override {
    return std::chrono::steady_clock::now();
  }
};

}  // namespace

const Clock* Clock::Real() {
  static const SteadyClock* clock = new SteadyClock;
  return clock;
}

CountPolicy::CountPolicy(int64_t flush_after) : flush_after_(flush_after) {
  IQRO_CHECK(flush_after_ >= 1);
}

bool CountPolicy::ShouldFlush(const FlushPolicyContext& ctx) {
  return ctx.mutations_since_flush >= flush_after_;
}

DeadlinePolicy::DeadlinePolicy(std::chrono::milliseconds deadline, const Clock* clock)
    : deadline_(deadline), clock_(clock) {
  IQRO_CHECK(deadline_.count() >= 0);
  IQRO_CHECK(clock_ != nullptr);
}

bool DeadlinePolicy::ShouldFlush(const FlushPolicyContext& ctx) {
  // A Poll() with nothing recorded since the last flush has nothing to age:
  // stay disarmed so a later burst starts its own window.
  if (ctx.mutations_since_flush <= 0 && ctx.pending_stats == 0) return false;
  if (!armed_) {
    armed_ = true;
    batch_opened_ = clock_->Now();
  }
  return clock_->Now() - batch_opened_ >= deadline_;
}

void DeadlinePolicy::OnFlush(size_t pending_after) {
  if (pending_after > 0) {
    // Mutations raced this flush into the next epoch's batch: their wait
    // is already running, so the window restarts now rather than at the
    // next consultation (which, Poll()-driven, could be a full poll
    // interval away — silently stretching the staleness bound).
    armed_ = true;
    batch_opened_ = clock_->Now();
  } else {
    armed_ = false;
  }
}

}  // namespace iqro
