#include "trace/generator.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace bc::trace {

namespace {

std::vector<Session> generate_sessions(Rng& rng, const GeneratorConfig& cfg) {
  std::vector<Session> sessions;
  const double avail =
      rng.uniform(cfg.availability_min, cfg.availability_max);
  const Seconds mean_on = std::max(avail * cfg.churn_cycle, 10.0 * kMinute);
  const Seconds mean_off =
      std::max((1.0 - avail) * cfg.churn_cycle, 5.0 * kMinute);
  // Random phase: roughly half the peers start online.
  Seconds t = rng.chance(avail) ? 0.0 : rng.exponential(mean_off);
  while (t < cfg.duration) {
    Seconds on = rng.exponential(mean_on);
    on = std::max(on, 10.0 * kMinute);  // no sub-10-minute flaps
    Session s{t, std::min(t + on, cfg.duration)};
    if (s.end > s.start) sessions.push_back(s);
    t = s.end + std::max(rng.exponential(mean_off), 5.0 * kMinute);
  }
  return sessions;
}

}  // namespace

Trace generate(const GeneratorConfig& cfg) {
  BC_ASSERT(cfg.num_peers > 0 && cfg.num_swarms > 0);
  BC_ASSERT(cfg.duration > 0.0);
  BC_ASSERT(cfg.file_size_min > 0 && cfg.file_size_max >= cfg.file_size_min);
  BC_ASSERT(cfg.request_window > 0.0 && cfg.request_window <= 1.0);

  Rng rng(cfg.seed);
  Trace tr;
  tr.duration = cfg.duration;

  // Files: log-uniform sizes.
  const double log_lo = std::log(static_cast<double>(cfg.file_size_min));
  const double log_hi = std::log(static_cast<double>(cfg.file_size_max));
  for (std::size_t i = 0; i < cfg.num_swarms; ++i) {
    FileMeta f;
    f.id = static_cast<SwarmId>(i);
    f.size = static_cast<Bytes>(std::exp(rng.uniform(log_lo, log_hi)));
    f.piece_size = std::min(cfg.piece_size, f.size);
    // Round size up to a whole number of pieces; keeps piece accounting
    // trivial everywhere downstream.
    f.size = f.num_pieces() * f.piece_size;
    tr.files.push_back(f);
  }

  // Peers: connectability and session schedules.
  for (std::size_t i = 0; i < cfg.num_peers; ++i) {
    PeerProfile p;
    p.id = static_cast<PeerId>(i);
    p.connectable = rng.chance(cfg.connectable_fraction);
    p.sessions = generate_sessions(rng, cfg);
    tr.peers.push_back(std::move(p));
  }
  // Guarantee at least one connectable peer, otherwise nobody can talk.
  if (std::none_of(tr.peers.begin(), tr.peers.end(),
                   [](const PeerProfile& p) { return p.connectable; })) {
    tr.peers.front().connectable = true;
  }

  // Releases: each file goes live at a random time in the early window;
  // its requests flash-crowd in with exponentially decaying delay.
  const Seconds window = cfg.duration * cfg.request_window;
  std::vector<Seconds> release(cfg.num_swarms);
  for (auto& t : release) t = rng.uniform(0.0, window);

  for (const auto& peer : tr.peers) {
    const std::size_t want = std::min(
        cfg.num_swarms,
        static_cast<std::size_t>(rng.uniform_int(
            static_cast<std::int64_t>(cfg.requests_per_peer_min),
            static_cast<std::int64_t>(cfg.requests_per_peer_max))));
    std::set<SwarmId> chosen;
    std::size_t attempts = 0;
    while (chosen.size() < want && attempts < 20 * cfg.num_swarms) {
      ++attempts;
      chosen.insert(
          static_cast<SwarmId>(rng.zipf(cfg.num_swarms, cfg.popularity_skew)));
    }
    for (SwarmId swarm : chosen) {
      SwarmRequest r;
      r.peer = peer.id;
      r.swarm = swarm;
      r.at = std::min(release[swarm] + rng.exponential(cfg.request_decay),
                      cfg.duration * 0.98);
      tr.requests.push_back(r);
    }
  }
  std::sort(tr.requests.begin(), tr.requests.end(),
            [](const SwarmRequest& a, const SwarmRequest& b) {
              // </> instead of != keeps the exact-tie branch explicit:
              // equal times fall through to the (peer, swarm) total order.
              if (a.at < b.at) return true;
              if (a.at > b.at) return false;
              if (a.peer != b.peer) return a.peer < b.peer;
              return a.swarm < b.swarm;
            });

  BC_ASSERT_MSG(tr.validate().empty(), "generator produced an invalid trace");
  return tr;
}

}  // namespace bc::trace
