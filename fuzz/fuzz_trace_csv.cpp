// Fuzz harness for the trace CSV reader (trace/csv.cpp).
//
// Any text from_csv() accepts has already passed Trace::validate(): every
// time in it must be finite (the reader parses "nan" and "inf"), the trace
// must lie within the bounds on what it makes the simulator allocate
// (kMaxDuration, and kMaxPieces per file, computed through num_pieces() so
// the sanitizer builds check that arithmetic), and it must round-trip:
// to_csv() of the parsed trace parses again and re-serializes
// byte-identically.
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "trace/csv.hpp"

namespace {
void require(bool ok) {
  if (!ok) std::abort();
}

bool all_times_finite(const bc::trace::Trace& trace) {
  if (!std::isfinite(trace.duration)) return false;
  for (const auto& peer : trace.peers) {
    for (const auto& s : peer.sessions) {
      if (!std::isfinite(s.start) || !std::isfinite(s.end)) return false;
    }
  }
  for (const auto& r : trace.requests) {
    if (!std::isfinite(r.at)) return false;
  }
  return true;
}

bool within_bounds(const bc::trace::Trace& trace) {
  if (trace.duration > bc::trace::kMaxDuration) return false;
  for (const auto& f : trace.files) {
    if (f.num_pieces() > bc::trace::kMaxPieces) return false;
  }
  return true;
}
}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace bc::trace;
  if (size > (1u << 16)) return 0;  // keep single replays fast
  const std::string text(reinterpret_cast<const char*>(data), size);

  std::string error;
  const auto trace = from_csv(text, &error);
  if (!trace.has_value()) return 0;
  require(all_times_finite(*trace));
  require(within_bounds(*trace));

  const std::string csv = to_csv(*trace);
  std::string error2;
  const auto again = from_csv(csv, &error2);
  require(again.has_value());
  require(to_csv(*again) == csv);
  return 0;
}
