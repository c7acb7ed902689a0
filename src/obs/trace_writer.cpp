#include "obs/trace_writer.hpp"

#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "util/assert.hpp"

namespace bc::obs {

namespace {

std::uint64_t to_micros(Seconds t) {
  BC_ASSERT_MSG(t >= 0.0, "trace timestamps are sim time, never negative");
  return static_cast<std::uint64_t>(std::llround(t * 1e6));
}

/// Shortest round-trippable representation; "%.17g" noise would bloat the
/// file and break golden-file stability for representable values.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// Set from the signal handler, consumed at poll points. sig_atomic_t is
/// the only object a standard signal handler may write; it is a signal
/// flag, not shared state between threads (the process has one thread).
volatile std::sig_atomic_t g_dump_requested = 0;

void request_dump(int /*signum*/) { g_dump_requested = 1; }

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::push(TraceEvent ev) {
  if (ring_capacity_ == 0 || events_.size() < ring_capacity_) {
    events_.push_back(std::move(ev));
    return;
  }
  events_[head_] = std::move(ev);
  head_ = (head_ + 1) % ring_capacity_;
  ++dropped_;
}

void Tracer::set_ring_capacity(std::size_t cap) {
  BC_ASSERT_MSG(events_.empty(),
                "ring capacity must be configured before recording");
  ring_capacity_ = cap;
  if (cap > 0) events_.reserve(cap);
}

std::vector<TraceEvent> Tracer::chronological() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(head_ + i) % events_.size()]);
  }
  return out;
}

bool Tracer::dump_now() const {
  if (dump_path_.empty()) return false;
  return write_file(dump_path_);
}

void Tracer::arm_signal_dump(int signum) {
  std::signal(signum, &request_dump);
}

bool Tracer::poll_signal_dump() {
  if (g_dump_requested == 0) return false;
  g_dump_requested = 0;
  return dump_now();
}

void Tracer::instant(std::string name, std::string category, Seconds t,
                     Args args) {
  if (!enabled_) return;
  TraceEvent ev;
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.phase = 'i';
  ev.ts_us = to_micros(t);
  ev.args = std::move(args);
  push(std::move(ev));
}

void Tracer::complete(std::string name, std::string category, Seconds start,
                      Seconds duration, Args args) {
  if (!enabled_) return;
  BC_ASSERT(duration >= 0.0);
  TraceEvent ev;
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.phase = 'X';
  ev.ts_us = to_micros(start);
  ev.dur_us = to_micros(duration);
  ev.args = std::move(args);
  push(std::move(ev));
}

void Tracer::counter(std::string name, Seconds t, double value) {
  if (!enabled_) return;
  TraceEvent ev;
  ev.name = std::move(name);
  ev.category = "metrics";
  ev.phase = 'C';
  ev.ts_us = to_micros(t);
  ev.value = value;
  push(std::move(ev));
}

void Tracer::write_json(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    // head_-relative walk resolves ring wrap-around; while unbounded,
    // head_ is 0 and this is plain insertion order.
    const TraceEvent& ev = events_[(head_ + i) % events_.size()];
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(ev.name) << "\",\"cat\":\""
       << json_escape(ev.category) << "\",\"ph\":\"" << ev.phase
       << "\",\"pid\":0,\"tid\":0,\"ts\":" << ev.ts_us;
    if (ev.phase == 'X') os << ",\"dur\":" << ev.dur_us;
    if (ev.phase == 'C') {
      os << ",\"args\":{\"value\":" << format_double(ev.value) << "}";
    } else if (!ev.args.empty()) {
      os << ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, val] : ev.args) {
        if (!first_arg) os << ',';
        first_arg = false;
        os << '"' << json_escape(key) << "\":\"" << json_escape(val) << '"';
      }
      os << '}';
    }
    os << '}';
  }
  os << "],\"displayTimeUnit\":\"ms\"}";
}

std::string Tracer::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

bool Tracer::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out);
  return out.good();
}

}  // namespace bc::obs
