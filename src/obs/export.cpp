#include "obs/export.hpp"

#include <fstream>

#include "util/table.hpp"

namespace bc::obs {

std::string metrics_json(const Registry& registry, const Profiler& profiler) {
  const Snapshot snap = registry.snapshot();
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(name) + "\": " + std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"log_histograms\": {";
  first = true;
  for (const auto& h : snap.log_histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(h.name) + "\": {\"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      out.append("[").append(std::to_string(h.buckets[i].first)).append(", ")
          .append(std::to_string(h.buckets[i].second)).append("]");
    }
    out += "], \"total\": " + std::to_string(h.total) +
           ", \"sum\": " + format_double(h.sum) +
           ", \"p50\": " + format_double(h.p50) +
           ", \"p90\": " + format_double(h.p90) +
           ", \"p99\": " + format_double(h.p99) +
           ", \"max\": " + format_double(h.max) + "}";
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"profile\": {";
  first = true;
  for (const auto& site : profiler.snapshot()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(site.name) +
           "\": {\"calls\": " + std::to_string(site.calls) +
           ", \"total_ns\": " + std::to_string(site.nanos) + "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string metrics_csv(const Registry& registry) {
  const Snapshot snap = registry.snapshot();
  std::string out = "name,kind,value\n";
  for (const auto& [name, value] : snap.counters) {
    out += name + ",counter," + std::to_string(value) + "\n";
  }
  for (const auto& h : snap.log_histograms) {
    for (const auto& [index, count] : h.buckets) {
      out += h.name + "[bucket=" + std::to_string(index) +
             "],log_histogram," + std::to_string(count) + "\n";
    }
    out += h.name + "[p50],log_histogram," + format_double(h.p50) + "\n";
    out += h.name + "[p99],log_histogram," + format_double(h.p99) + "\n";
  }
  return out;
}

std::string profile_report(const Profiler& profiler) {
  Table t({"site", "calls", "total_ms", "mean_us"});
  for (const auto& site : profiler.snapshot()) {
    const double total_ms = static_cast<double>(site.nanos) / 1e6;
    const double mean_us =
        site.calls > 0
            ? static_cast<double>(site.nanos) /
                  (1e3 * static_cast<double>(site.calls))
            : 0.0;
    t.add_row({site.name, std::to_string(site.calls), fmt(total_ms, 3),
               fmt(mean_us, 3)});
  }
  return t.to_string();
}

void snapshot_counters_to_trace(const Registry& registry, Tracer& tracer,
                                Seconds t) {
  for (const auto& [name, value] : registry.snapshot().counters) {
    tracer.counter(name, t, static_cast<double>(value));
  }
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return false;
  out << content;
  return out.good();
}

}  // namespace bc::obs
