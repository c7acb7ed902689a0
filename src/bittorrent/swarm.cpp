#include "bittorrent/swarm.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/checked.hpp"

namespace bc::bt {

Swarm::Swarm(const Torrent& torrent, Rng rng)
    : torrent_(torrent), rng_(rng), availability_(torrent.num_pieces) {}

void Swarm::add_leecher(PeerId peer) {
  const auto [it, inserted] = members_.try_emplace(
      peer, Member{Bitfield(torrent_.num_pieces, false),
                   Bitfield(torrent_.num_pieces)});
  BC_ASSERT_MSG(inserted, "peer already in swarm");
  availability_.add_bitfield(it->second.have);
}

void Swarm::add_seeder(PeerId peer) {
  const auto [it, inserted] = members_.try_emplace(
      peer, Member{Bitfield(torrent_.num_pieces, true),
                   Bitfield(torrent_.num_pieces)});
  BC_ASSERT_MSG(inserted, "peer already in swarm");
  availability_.add_bitfield(it->second.have);
}

void Swarm::remove_peer(PeerId peer) {
  auto it = members_.find(peer);
  if (it == members_.end()) return;
  availability_.remove_bitfield(it->second.have);
  // Drop all links involving the peer. Where the peer was the uploader, the
  // downloader's in-flight piece is released back to the pool.
  // bc-analyze: allow(D1) -- erase-walk touches disjoint per-link state; the surviving set is order-independent
  for (auto link_it = links_.begin(); link_it != links_.end();) {
    const PeerId from = static_cast<PeerId>(link_it->first >> 32);
    const PeerId to = static_cast<PeerId>(link_it->first & 0xffffffffu);
    if (from == peer || to == peer) {
      if (link_it->second.piece >= 0 && to != peer) {
        member(to).in_flight.reset(link_it->second.piece);
      }
      link_it = links_.erase(link_it);
    } else {
      ++link_it;
    }
  }
  members_.erase(it);
}

std::vector<PeerId> Swarm::members() const {
  std::vector<PeerId> out;
  out.reserve(members_.size());
  // bc-analyze: allow(D1) -- ids are fully re-sorted on the next line
  for (const auto& [peer, _] : members_) out.push_back(peer);
  std::sort(out.begin(), out.end());  // deterministic iteration for callers
  return out;
}

Swarm::Member& Swarm::member(PeerId peer) {
  auto it = members_.find(peer);
  BC_ASSERT_MSG(it != members_.end(), "peer not in swarm");
  return it->second;
}

const Swarm::Member& Swarm::member(PeerId peer) const {
  auto it = members_.find(peer);
  BC_ASSERT_MSG(it != members_.end(), "peer not in swarm");
  return it->second;
}

const Bitfield& Swarm::pieces(PeerId peer) const { return member(peer).have; }

bool Swarm::is_complete(PeerId peer) const {
  return member(peer).have.complete();
}

double Swarm::progress(PeerId peer) const {
  const auto& m = member(peer);
  BC_ASSERT(m.have.size() > 0);
  return static_cast<double>(m.have.count()) /
         static_cast<double>(m.have.size());
}

bool Swarm::interested(PeerId downloader, PeerId uploader) const {
  return member(downloader).have.is_interesting(member(uploader).have);
}

Bytes Swarm::transfer(PeerId uploader, PeerId downloader, Bytes budget) {
  BC_ASSERT(budget >= 0);
  BC_ASSERT(uploader != downloader);
  auto& down = member(downloader);
  const auto& up = member(uploader);
  if (down.have.complete()) return 0;

  auto& link = links_[link_key(uploader, downloader)];
  Bytes consumed = 0;
  while (budget > 0 && !down.have.complete()) {
    if (link.piece < 0) {
      PickRequest req;
      req.mine = &down.have;
      req.theirs = &up.have;
      req.availability = &availability_;
      req.in_flight = &down.in_flight;
      const std::optional<int> piece = pick_piece(req, rng_);
      if (!piece.has_value()) break;  // nothing useful on this link
      link.piece = *piece;
      link.piece_progress = 0;
      down.in_flight.set(*piece);
    }
    const Bytes need = torrent_.piece_bytes(link.piece) - link.piece_progress;
    const Bytes chunk = std::min(need, budget);
    // Owner-local transfer counters: a wrap would corrupt the ledger
    // ground truth, so debug-assert on overflow instead of wrapping.
    link.piece_progress = util::checked_add(link.piece_progress, chunk);
    link.round_bytes = util::checked_add(link.round_bytes, chunk);
    consumed = util::checked_add(consumed, chunk);
    budget -= chunk;
    if (link.piece_progress >= torrent_.piece_bytes(link.piece)) {
      down.in_flight.reset(link.piece);
      const bool fresh = down.have.set(link.piece);
      BC_ASSERT(fresh);
      availability_.add_piece(link.piece);
      link.piece = -1;
      link.piece_progress = 0;
      if (down.have.complete()) {
        // Other links fetching for this peer are now moot; release them.
        // bc-analyze: allow(D1) -- per-link resets touch disjoint state; final state is order-independent
        for (auto& [key, other] : links_) {
          const PeerId to = static_cast<PeerId>(key & 0xffffffffu);
          if (to == downloader && other.piece >= 0) {
            down.in_flight.reset(other.piece);
            other.piece = -1;
            other.piece_progress = 0;
          }
        }
      }
    }
  }
  total_transferred_ = util::checked_add(total_transferred_, consumed);
  return consumed;
}

void Swarm::release_link(PeerId uploader, PeerId downloader) {
  auto it = links_.find(link_key(uploader, downloader));
  if (it == links_.end()) return;
  if (it->second.piece >= 0) {
    member(downloader).in_flight.reset(it->second.piece);
    it->second.piece = -1;
    it->second.piece_progress = 0;
  }
}

void Swarm::end_round() {
  // bc-analyze: allow(D1) -- per-link counter rollover; disjoint state, order-independent
  for (auto& [_, link] : links_) {
    link.last_round_bytes = link.round_bytes;
    link.round_bytes = 0;
  }
}

Bytes Swarm::last_round_bytes(PeerId from, PeerId to) const {
  auto it = links_.find(link_key(from, to));
  return it == links_.end() ? 0 : it->second.last_round_bytes;
}

bool Swarm::check_invariants() const {
  // Availability must equal the sum of member bitfields.
  std::vector<int> counts(static_cast<std::size_t>(torrent_.num_pieces), 0);
  // bc-analyze: allow(D1) -- commutative per-piece sum; order cannot change the counts
  for (const auto& [_, m] : members_) {
    for (int p = 0; p < m.have.size(); ++p) {
      if (m.have.get(p)) ++counts[static_cast<std::size_t>(p)];
    }
  }
  for (int p = 0; p < torrent_.num_pieces; ++p) {
    if (counts[static_cast<std::size_t>(p)] != availability_.count(p)) {
      return false;
    }
  }
  // bc-analyze: allow(D1) -- boolean all-of over links; a pure predicate, order cannot change the result
  for (const auto& [key, link] : links_) {
    const PeerId from = static_cast<PeerId>(key >> 32);
    const PeerId to = static_cast<PeerId>(key & 0xffffffffu);
    if (!members_.contains(from) || !members_.contains(to)) return false;
    if (link.piece >= 0) {
      const auto& down = members_.at(to);
      // An in-flight piece must be tracked and not yet owned.
      if (down.have.get(link.piece)) return false;
      if (!down.in_flight.get(link.piece)) return false;
      if (link.piece_progress < 0 ||
          link.piece_progress >= torrent_.piece_bytes(link.piece)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace bc::bt
