#pragma once
// Wall-clock timing for the runtime-scaling experiment (E6): the paper
// reports algorithm execution times from "milliseconds for small-scale
// problems to seconds for large-scale ones".

#include <chrono>
#include <cstdint>

namespace elpc::util {

/// `from + ms` for millisecond budgets that may arrive over the wire:
/// ms <= 0 yields `from`, and a budget past the clock's range yields
/// TimePoint::max() ("never") instead of overflowing the clock's
/// nanosecond count.
template <class TimePoint>
[[nodiscard]] TimePoint saturating_add_ms(TimePoint from, std::int64_t ms) {
  if (ms <= 0) {
    return from;
  }
  const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
      TimePoint::max() - from);
  if (ms >= headroom.count()) {
    return TimePoint::max();
  }
  return from + std::chrono::milliseconds(ms);
}

/// Monotonic stopwatch started at construction.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  [[nodiscard]] double elapsed_ms() const { return elapsed_seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace elpc::util
