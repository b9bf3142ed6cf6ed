#pragma once
// Monotonic timing for benchmark harnesses, solver diagnostics, and
// the observability layer's latency histograms.

#include <chrono>

namespace phes::util {

/// Monotonic stopwatch.  Explicitly pinned to steady_clock: these
/// durations feed latency histograms and trace spans, so they must be
/// immune to wall-clock adjustments (NTP steps, manual clock changes).
class WallTimer {
 public:
  using Clock = std::chrono::steady_clock;
  static_assert(Clock::is_steady,
                "WallTimer requires a monotonic clock: timings feed "
                "metrics histograms and trace spans");

  WallTimer() noexcept : start_{Clock::now()} {}

  /// Elapsed seconds since construction.
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  [[nodiscard]] double milliseconds() const noexcept { return seconds() * 1e3; }

 private:
  Clock::time_point start_;
};

/// Seconds since the Unix epoch — deliberately system_clock, the one
/// place wall-clock time is wanted: absolute timestamps on trace spans
/// and log lines.  Never use this for durations; that is WallTimer's
/// job.
[[nodiscard]] inline double unix_seconds() noexcept {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace phes::util
