#include "community/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace bc::community {

namespace {

std::size_t bins_for(Seconds duration, Seconds bin) {
  BC_ASSERT(duration > 0.0 && bin > 0.0);
  return static_cast<std::size_t>(std::ceil(duration / bin));
}

}  // namespace

Metrics::Metrics(Seconds total, Seconds bin)
    : reputation_sharers(0.0, bin, bins_for(total, bin)),
      reputation_freeriders(0.0, bin, bins_for(total, bin)),
      speed_sharers(0.0, bin, bins_for(total, bin)),
      speed_freeriders(0.0, bin, bins_for(total, bin)),
      duration(total) {}

double Metrics::late_class_speed(bool freeriders) const {
  double bytes = 0.0;
  double time = 0.0;
  for (const auto& o : outcomes) {
    if (o.freerider != freeriders) continue;
    bytes += static_cast<double>(o.late_downloaded);
    time += o.late_time_downloading;
  }
  return time > 0.0 ? bytes / time : 0.0;
}

}  // namespace bc::community
