// Obs-overhead bench: what does instrumentation cost on the hot path?
//
// Measures ns/op of each obs instrument against an uninstrumented baseline
// loop (xorshift64 accumulation — cheap enough that any instrument cost
// shows, real enough that the compiler cannot delete it):
//
//   - Counter::inc() (a plain add)
//   - LogHistogram::observe() (frexp bucketing + fixed-point sum)
//   - BC_OBS_SCOPE with the profiler *disabled* (the default for every run)
//   - the `if (tracer.enabled())` guard with the tracer *disabled*
//
// The acceptance bar is on the two disabled paths: they gate every default
// (un-instrumented-looking) run of the simulator, so their overhead must
// stay within noise of the baseline — the bar is kDisabledBudgetNs per op.
// Each measurement is the minimum over kRepeats passes, which removes
// scheduler noise without hiding systematic cost.
//
// Also reports LogHistogram memory: O(buckets) by construction, so the
// footprint is asserted identical before and after the observe pass.
//
// Results go to BENCH_obs.json (override with BC_BENCH_OUT). Exit code 1
// when a disabled path exceeds the budget, so CI can gate on it.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace_writer.hpp"
#include "stopwatch.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"

using namespace bc;

namespace {

constexpr std::size_t kIters = 4'000'000;
constexpr int kRepeats = 7;
constexpr double kDisabledBudgetNs = 5.0;

/// Keeps `x` alive across the loop without a memory round-trip.
inline void keep(std::uint64_t& x) { asm volatile("" : "+r"(x)); }

inline std::uint64_t xorshift(std::uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

template <typename Body>
double ns_per_op(Body&& body) {
  double best = 1e300;
  for (int r = 0; r < kRepeats; ++r) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const bench::Stopwatch watch;
    for (std::size_t i = 0; i < kIters; ++i) {
      x = xorshift(x);
      body(x);
      keep(x);
    }
    const double ns = watch.elapsed_ns() / static_cast<double>(kIters);
    best = std::min(best, ns);
  }
  return best;
}

std::string fmt3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

int main() {
  std::printf("Obs-overhead bench: instrument cost per op (min of %d x %zu "
              "iterations)\n\n",
              kRepeats, kIters);

  auto& registry = obs::Registry::instance();
  auto& profiler = obs::Profiler::instance();
  auto& tracer = obs::Tracer::instance();
  profiler.set_enabled(false);
  tracer.set_enabled(false);

  const double baseline = ns_per_op([](std::uint64_t) {});

  obs::Counter& counter = registry.counter("bench.counter");
  const double counter_inc = ns_per_op([&](std::uint64_t) { counter.inc(); });

  obs::LogHistogram& hist =
      registry.log_histogram("bench.values", obs::LogSpec::magnitude());
  const std::size_t buckets_before = hist.num_buckets();
  const double observe = ns_per_op(
      [&](std::uint64_t x) { hist.observe(static_cast<double>(x >> 32)); });
  // O(buckets) memory: recording kRepeats * kIters values must not grow it.
  BC_ASSERT(hist.num_buckets() == buckets_before);
  const std::size_t hist_bytes = hist.num_buckets() * sizeof(std::uint64_t);

  const double profile_disabled = ns_per_op([&](std::uint64_t) {
    BC_OBS_SCOPE("bench.disabled_scope");
  });

  const double tracer_disabled = ns_per_op([&](std::uint64_t x) {
    if (tracer.enabled()) {
      tracer.instant("bench.never", "bench", static_cast<double>(x));
    }
  });

  const double over_profile = profile_disabled - baseline;
  const double over_tracer = tracer_disabled - baseline;

  Table t({"path", "ns_per_op", "overhead_ns"});
  t.add_row({"baseline (xorshift64)", fmt3(baseline), "-"});
  t.add_row({"counter.inc", fmt3(counter_inc), fmt3(counter_inc - baseline)});
  t.add_row({"log_histogram.observe", fmt3(observe),
             fmt3(observe - baseline)});
  t.add_row({"BC_OBS_SCOPE, profiler off", fmt3(profile_disabled),
             fmt3(over_profile)});
  t.add_row({"tracer guard, tracer off", fmt3(tracer_disabled),
             fmt3(over_tracer)});
  std::printf("%s", t.to_string().c_str());
  std::printf("\nlog histogram: %zu buckets, ~%zu bytes (independent of the "
              "%zu values recorded)\n",
              hist.num_buckets(), hist_bytes,
              static_cast<std::size_t>(kRepeats) * kIters);

  std::string json = "{\n  \"bench\": \"obs_overhead\",\n";
  json += "  \"iters\": " + std::to_string(kIters) +
          ", \"repeats\": " + std::to_string(kRepeats) + ",\n";
  json += "  \"baseline_ns\": " + fmt3(baseline) + ",\n";
  json += "  \"counter_inc_ns\": " + fmt3(counter_inc) + ",\n";
  json += "  \"log_histogram_observe_ns\": " + fmt3(observe) + ",\n";
  json += "  \"profile_scope_disabled_ns\": " + fmt3(profile_disabled) + ",\n";
  json += "  \"tracer_guard_disabled_ns\": " + fmt3(tracer_disabled) + ",\n";
  json += "  \"disabled_overhead_ns\": {\"profile_scope\": " +
          fmt3(over_profile) + ", \"tracer_guard\": " + fmt3(over_tracer) +
          ", \"budget\": " + fmt3(kDisabledBudgetNs) + "},\n";
  json += "  \"log_histogram_buckets\": " + std::to_string(hist.num_buckets()) +
          ", \"log_histogram_bytes\": " + std::to_string(hist_bytes) + "\n";
  json += "}\n";

  const char* out_path = std::getenv("BC_BENCH_OUT");
  const std::string path = out_path != nullptr ? out_path : "BENCH_obs.json";
  if (obs::write_text_file(path, json)) {
    std::printf("\nobs bench JSON written to %s\n", path.c_str());
  }

  if (over_profile > kDisabledBudgetNs || over_tracer > kDisabledBudgetNs) {
    std::printf("WARNING: disabled-path overhead (profile %.3f ns, tracer "
                "%.3f ns) exceeds the %.1f ns budget\n",
                over_profile, over_tracer, kDisabledBudgetNs);
    return 1;
  }
  return 0;
}
