// bcperf: the repository benchmark program.
//
//   bcperf --workload fig1_paper|ban_n200|service_hub --seed N
//          --seconds S --trace 0|1 [--tiny]
//
// Prints one JSON object on stdout: run metadata, operation counts, the
// output digest and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). perfbench/run.py builds this binary, checks the digest and
// reshapes the object into the benchmark's result line. See README.md for
// the workloads and what each metric means.
#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"
#include "util/logging.hpp"

namespace bcperf {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

std::uint64_t counter_value(const bc::obs::Snapshot& snap,
                            std::string_view name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

void SiteTotals::add(const std::vector<bc::obs::ProfileSite>& sites) {
  ++runs_;
  for (const auto& s : sites) {
    auto it = std::find_if(sum_.begin(), sum_.end(),
                           [&](const auto& t) { return t.name == s.name; });
    if (it == sum_.end()) {
      sum_.push_back(s);
    } else {
      it->nanos += s.nanos;
    }
  }
}

double SiteTotals::seconds(std::string_view name) const {
  if (runs_ == 0) return 0.0;
  for (const auto& s : sum_) {
    if (s.name == name) {
      return static_cast<double>(s.nanos) * 1e-9 / static_cast<double>(runs_);
    }
  }
  return 0.0;
}

}  // namespace bcperf

namespace {

void json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string to_json(const bcperf::Options& opt, const bcperf::Result& r) {
  std::string out = "{\"workload\":";
  json_string(out, opt.workload);
  out += ",\"seed\":" + std::to_string(opt.seed);
  out += ",\"trace\":" + std::to_string(opt.trace ? 1 : 0);
  out += ",\"tiny\":" + std::string(opt.tiny ? "true" : "false");
  out += ",\"compiler\":";
#ifdef __clang__
  json_string(out, "clang " __clang_version__);
#else
  json_string(out, "gcc " __VERSION__);
#endif
  out += ",\"build_type\":";
  json_string(out, BCPERF_BUILD_TYPE);
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) out += ',';
    json_string(out, r.failures[i]);
  }
  out += "],\"digest\":";
  json_string(out, r.digest);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    if (i > 0) out += ',';
    json_string(out, m.name);
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += ":{\"value\":";
    out += num;
    out += ",\"unit\":";
    json_string(out, m.unit);
    out += '}';
  }
  out += "}}";
  return out;
}

int usage() {
  std::fputs(
      "usage: bcperf --workload fig1_paper|ban_n200|service_hub --seed N\n"
      "              --seconds S --trace 0|1 [--tiny]\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bcperf::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return usage();
    }
  }
  if (!(opt.seconds > 0.0)) return usage();
  bc::Logger::instance().set_level(bc::LogLevel::Error);

  bcperf::Result result;
  if (opt.workload == "fig1_paper" || opt.workload == "ban_n200") {
    bcperf::run_sim_workload(opt, result);
  } else if (opt.workload == "service_hub") {
    bcperf::run_hub_workload(opt, result);
  } else {
    return usage();
  }
  std::printf("%s\n", to_json(opt, result).c_str());
  return 0;
}
