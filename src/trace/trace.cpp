#include "trace/trace.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

namespace bc::trace {

bool PeerProfile::online_at(Seconds t) const {
  // Sessions are sorted; binary search for the first session ending after t.
  auto it = std::lower_bound(
      sessions.begin(), sessions.end(), t,
      [](const Session& s, Seconds v) { return s.end <= v; });
  return it != sessions.end() && it->start <= t;
}

Seconds PeerProfile::next_online(Seconds t) const {
  auto it = std::lower_bound(
      sessions.begin(), sessions.end(), t,
      [](const Session& s, Seconds v) { return s.end <= v; });
  if (it == sessions.end()) return -1.0;
  return std::max(t, it->start);
}

Seconds PeerProfile::total_uptime() const {
  Seconds total = 0.0;
  for (const auto& s : sessions) total += s.end - s.start;
  return total;
}

std::string Trace::validate() const {
  std::ostringstream err;
  // Every time must be finite: NaN passes all the comparisons below, and
  // an infinite duration would let infinite times through.
  if (!std::isfinite(duration) || duration <= 0.0) {
    return "duration must be positive and finite";
  }
  if (duration > kMaxDuration) return "duration longer than one year";
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto& f = files[i];
    if (f.id != static_cast<SwarmId>(i)) {
      err << "file " << i << ": id not dense";
      return err.str();
    }
    if (f.size <= 0 || f.piece_size <= 0 || f.piece_size > f.size) {
      err << "file " << i << ": invalid sizes";
      return err.str();
    }
    if (f.num_pieces() > kMaxPieces) {
      err << "file " << i << ": more than " << kMaxPieces << " pieces";
      return err.str();
    }
  }
  for (std::size_t i = 0; i < peers.size(); ++i) {
    const auto& p = peers[i];
    if (p.id != static_cast<PeerId>(i)) {
      err << "peer " << i << ": id not dense";
      return err.str();
    }
    Seconds prev_end = -1.0;
    for (const auto& s : p.sessions) {
      if (!std::isfinite(s.start) || !std::isfinite(s.end)) {
        err << "peer " << i << ": non-finite session bound";
        return err.str();
      }
      if (s.start >= s.end) {
        err << "peer " << i << ": empty/inverted session";
        return err.str();
      }
      if (s.start < prev_end) {
        err << "peer " << i << ": sessions overlap or unsorted";
        return err.str();
      }
      if (s.end > duration || s.start < 0.0) {
        err << "peer " << i << ": session outside trace duration";
        return err.str();
      }
      prev_end = s.end;
    }
  }
  std::set<std::pair<PeerId, SwarmId>> seen;
  Seconds prev_at = 0.0;
  for (const auto& r : requests) {
    if (r.peer >= peers.size()) return "request references unknown peer";
    if (r.swarm >= files.size()) return "request references unknown swarm";
    if (!std::isfinite(r.at)) return "non-finite request time";
    if (r.at < 0.0 || r.at >= duration) return "request outside duration";
    if (r.at < prev_at) return "requests not sorted by time";
    prev_at = r.at;
    if (!seen.insert({r.peer, r.swarm}).second) {
      return "duplicate (peer, swarm) request";
    }
  }
  return {};
}

}  // namespace bc::trace
