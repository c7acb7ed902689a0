// Figure 3 reproduction — disobeying the protocol (§5.4).
//
// Ban policy, delta = -0.5, 50% freeriders; a fraction of the *population*
// (drawn from the freerider half, as in the paper) either
//  (a) ignores the message protocol (sends nothing), or
//  (b) lies selfishly (claims huge uploads, zero downloads).
// The paper reports (a) barely affects effectiveness up to 50%, while (b)
// stays effective for < ~18% liars and erodes beyond (lying freeriders
// whitewash their reputations, so the freerider class speeds back up).
//
// Headline numbers are the pooled late-window class speeds (see Figure 2).
#include <cstdio>
#include <vector>

#include "analysis/experiment.hpp"
#include "figure_common.hpp"

using namespace bc;

namespace {

struct Point {
  double fraction;
  double sharers;     // KiB/s, pooled late-window
  double freeriders;  // KiB/s
};

Point run_fraction(double fraction, bool lying) {
  const std::uint64_t seed = 33;
  community::ScenarioConfig cfg = bench::paper_scenario(seed);
  cfg.policy = bartercast::ReputationPolicy::ban(-0.5);
  if (lying) {
    cfg.liar_fraction = fraction;
  } else {
    cfg.ignorer_fraction = fraction;
  }
  community::CommunitySimulator sim(
      trace::generate(bench::paper_trace(seed)), cfg, bench::metrics_stream());
  sim.run();
  const auto& m = sim.metrics();
  return {fraction, m.late_class_speed(false) / 1024.0,
          m.late_class_speed(true) / 1024.0};
}

}  // namespace

int main() {
  bench::print_header("Figure 3",
                      "robustness against ignoring / lying peers");
  const std::vector<double> fractions =
      bench::quick_mode() ? std::vector<double>{0.0, 0.25, 0.5}
                          : std::vector<double>{0.0, 0.1, 0.2, 0.3, 0.4, 0.5};

  std::printf("\n(a) peers ignoring the message protocol:\n");
  Table ta({"pct_ignoring", "sharers_KiBps", "freeriders_KiBps", "ratio"});
  std::vector<Point> ignore_pts;
  for (double f : fractions) {
    const Point p = run_fraction(f, /*lying=*/false);
    ignore_pts.push_back(p);
    ta.add_row({fmt(100.0 * f, 0), fmt(p.sharers, 0), fmt(p.freeriders, 0),
                fmt(p.sharers > 0 ? p.freeriders / p.sharers : 0.0, 2)});
  }
  std::printf("%s", ta.to_string().c_str());

  std::printf("\n(b) peers lying about their contribution:\n");
  Table tb({"pct_lying", "sharers_KiBps", "freeriders_KiBps", "ratio"});
  std::vector<Point> lie_pts;
  for (double f : fractions) {
    const Point p = run_fraction(f, /*lying=*/true);
    lie_pts.push_back(p);
    tb.add_row({fmt(100.0 * f, 0), fmt(p.sharers, 0), fmt(p.freeriders, 0),
                fmt(p.sharers > 0 ? p.freeriders / p.sharers : 0.0, 2)});
  }
  std::printf("%s", tb.to_string().c_str());

  // Shape checks. Ignoring: the freerider/sharer gap persists at the
  // largest fraction. Lying: the gap persists at the smallest nonzero
  // fraction (the paper's "still effective for < ~18%" claim) and erodes
  // at 50% (liars whitewash themselves back to full speed).
  const auto ratio = [](const Point& p) {
    return p.sharers > 0 ? p.freeriders / p.sharers : 1.0;
  };
  const bool ignore_ok = ratio(ignore_pts.back()) < 1.0;
  const bool lie_small_ok = ratio(lie_pts[1]) < 1.0;
  const bool lie_erodes = ratio(lie_pts.back()) > ratio(lie_pts[1]);
  std::printf("\nshape checks: ignore@max keeps gap: %s; lie@%.0f%% keeps "
              "gap: %s; lie@50%% erodes: %s\n",
              ignore_ok ? "PASS" : "FAIL", 100.0 * lie_pts[1].fraction,
              lie_small_ok ? "PASS" : "FAIL", lie_erodes ? "PASS" : "FAIL");
  return ignore_ok && lie_small_ok ? 0 : 1;
}
