// Wall-clock and CPU timers used by the workers' task accounting and the
// trace recorder.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>

namespace fdml {

/// Nanoseconds since the first call in this process. The logger and the
/// span tracer both stamp with this so their timelines line up; the epoch
/// is latched once (thread-safe static init) on first use.
inline std::uint64_t monotonic_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch)
          .count());
}

/// Monotonic wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double millis() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Per-thread CPU-time stopwatch (used to cost individual tree evaluations
/// for the scaling-trace recorder; wall time would be polluted by the other
/// in-process roles sharing the core).
class CpuTimer {
 public:
  CpuTimer() : start_(now()) {}

  void reset() { start_ = now(); }

  double seconds() const { return now() - start_; }

 private:
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  }

  double start_;
};

}  // namespace fdml
