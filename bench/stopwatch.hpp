// Host wall-clock stopwatch for the benches' own timing reports.
#pragma once

#include <chrono>

namespace bench {

/// Starts on construction; restart() re-arms it. The benches print what it
/// measures and never feed it back into simulation state, which always runs
/// on sim::Engine time.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  double elapsed_s() const { return elapsed<std::ratio<1>>(); }
  double elapsed_ms() const { return elapsed<std::milli>(); }
  double elapsed_ns() const { return elapsed<std::nano>(); }

 private:
  // bc-analyze: allow(D2) -- the benches' one wall-clock source: timings are reported, never fed back into simulation state
  using Clock = std::chrono::steady_clock;

  template <typename Period>
  double elapsed() const {
    return std::chrono::duration<double, Period>(Clock::now() - start_)
        .count();
  }

  Clock::time_point start_;
};

}  // namespace bench
