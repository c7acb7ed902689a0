#include "obs/stream.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include "obs/trace_writer.hpp"  // json_escape, format_double
#include "util/assert.hpp"

namespace bc::obs {

namespace {

/// One log histogram's window: bucket-count deltas (ascending index) with
/// their value edges, plus exact integer total/sum deltas.
struct LogDelta {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
  std::vector<double> edges;
  std::uint64_t total = 0;
  std::int64_t sum_units = 0;
  int sum_frac_bits = 0;
};

LogDelta diff_log(const LogHistogramSnapshot& cur,
                  const LogHistogramSnapshot* prev) {
  LogDelta d;
  d.sum_frac_bits = cur.sum_frac_bits;
  d.total = cur.total - (prev ? prev->total : 0);
  d.sum_units = cur.sum_units - (prev ? prev->sum_units : 0);
  std::size_t j = 0;  // cursor into prev->buckets (both ascending by index)
  for (std::size_t i = 0; i < cur.buckets.size(); ++i) {
    const auto [index, count] = cur.buckets[i];
    std::uint64_t before = 0;
    if (prev) {
      while (j < prev->buckets.size() && prev->buckets[j].first < index) ++j;
      if (j < prev->buckets.size() && prev->buckets[j].first == index) {
        before = prev->buckets[j].second;
      }
    }
    BC_DASSERT(count >= before);  // bucket counts are monotone
    if (count > before) {
      d.buckets.emplace_back(index, count - before);
      d.edges.push_back(cur.bucket_edges[i]);
    }
  }
  return d;
}

/// Quantile over the window's deltas: upper edge of the bucket holding
/// the ceil(q * total)-th windowed observation.
double delta_quantile(const LogDelta& d, double q) {
  if (d.total == 0) return 0.0;
  auto rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(d.total)));
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < d.buckets.size(); ++i) {
    cum += d.buckets[i].second;
    if (cum >= rank) return d.edges[i];
  }
  return d.edges.empty() ? 0.0 : d.edges.back();
}

}  // namespace

bool MetricsStream::open(const std::string& path, const Registry& registry) {
  BC_ASSERT_MSG(!out_.is_open(), "stream already open");
  out_.open(path, std::ios::trunc);
  if (!out_) return false;
  prev_ = registry.snapshot();  // windows cover activity after this point
  windows_ = 0;
  return true;
}

void MetricsStream::emit_window(const Registry& registry, Seconds t) {
  if (!out_.is_open()) return;
  Snapshot cur = registry.snapshot();

  std::string line = "{\"schema\":\"bc.metrics.window.v2\",\"seq\":" +
                     std::to_string(windows_) +
                     ",\"t\":" + format_double(t) + ",\"counters\":{";
  bool first = true;
  std::size_t j = 0;  // cursor into prev_.counters (both sorted by name)
  for (const auto& [name, value] : cur.counters) {
    std::uint64_t before = 0;
    while (j < prev_.counters.size() && prev_.counters[j].first < name) ++j;
    if (j < prev_.counters.size() && prev_.counters[j].first == name) {
      before = prev_.counters[j].second;
    }
    // Signed delta: a Registry::reset_values() between windows lowers a
    // counter; the stream records what happened either way.
    const auto delta =
        static_cast<std::int64_t>(value) - static_cast<std::int64_t>(before);
    if (delta == 0) continue;
    line += first ? "" : ",";
    first = false;
    line.append("\"").append(json_escape(name)).append("\":")
        .append(std::to_string(delta));
  }

  line += "},\"log_histograms\":{";
  first = true;
  j = 0;  // cursor into prev_.log_histograms (both sorted by name)
  for (const auto& h : cur.log_histograms) {
    const LogHistogramSnapshot* before = nullptr;
    while (j < prev_.log_histograms.size() &&
           prev_.log_histograms[j].name < h.name) {
      ++j;
    }
    if (j < prev_.log_histograms.size() &&
        prev_.log_histograms[j].name == h.name) {
      before = &prev_.log_histograms[j];
    }
    const LogDelta d = diff_log(h, before);
    if (d.total == 0) continue;
    line += first ? "" : ",";
    first = false;
    line.append("\"").append(json_escape(h.name)).append("\":{\"buckets\":[");
    for (std::size_t i = 0; i < d.buckets.size(); ++i) {
      if (i > 0) line += ",";
      line.append("[").append(std::to_string(d.buckets[i].first)).append(",")
          .append(std::to_string(d.buckets[i].second)).append("]");
    }
    const double dsum =
        std::ldexp(static_cast<double>(d.sum_units), -d.sum_frac_bits);
    line += "],\"total\":" + std::to_string(d.total) +
            ",\"sum\":" + format_double(dsum) +
            ",\"p50\":" + format_double(delta_quantile(d, 0.5)) +
            ",\"p99\":" + format_double(delta_quantile(d, 0.99)) +
            ",\"max\":" +
            format_double(d.edges.empty() ? 0.0 : d.edges.back()) + "}";
  }
  line += "}}";

  out_ << line << '\n';
  out_.flush();  // keep the file tail-able mid-run
  prev_ = std::move(cur);
  ++windows_;
}

void MetricsStream::close() {
  if (out_.is_open()) out_.close();
}

}  // namespace bc::obs
