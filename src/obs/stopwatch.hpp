// The one wall clock of the perf surface.
//
// The `lad bench` harness (bench/: the runner and its experiment suites)
// and the fault campaigns all consume these helpers, so a timing or
// per-node normalization fix lands in exactly one place.
#pragma once

#include <chrono>
#include <functional>

namespace lad::obs {

/// Steady-clock stopwatch; ms() reads the elapsed time without stopping.
class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}

  double ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// Wall time of one invocation of `fn`, in milliseconds.
inline double time_ms(const std::function<void()>& fn) {
  const Stopwatch sw;
  fn();
  return sw.ms();
}

/// Per-node normalization with the honest empty-graph convention: 0, not a
/// division by zero and not a hardcoded constant.
inline double per_node(long long total, long long nodes) {
  return nodes > 0 ? static_cast<double>(total) / static_cast<double>(nodes) : 0.0;
}

}  // namespace lad::obs
