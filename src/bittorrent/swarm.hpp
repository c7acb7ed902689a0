// Piece-level swarm state.
//
// One Swarm instance tracks, for one torrent: which peers participate and
// what pieces they hold, the swarm-wide piece availability (for
// rarest-first), and the per-directed-link transfer state (the piece
// currently in flight and the byte counters the tit-for-tat choker ranks
// on). Choking and bandwidth allocation are decided elsewhere (choker.hpp /
// bandwidth.hpp, orchestrated by the community simulator); the swarm applies
// the resulting byte movements. A complete peer takes nothing from
// transfer(), so the one transfer that moves bytes and leaves its
// downloader complete is the one that completed the file.
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "bittorrent/bitfield.hpp"
#include "bittorrent/piece_picker.hpp"
#include "bittorrent/torrent.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bc::bt {

class Swarm {
 public:
  Swarm(const Torrent& torrent, Rng rng);

  const Torrent& torrent() const { return torrent_; }

  /// Membership. A seeder joins holding all pieces; a leecher holds none.
  void add_leecher(PeerId peer);
  void add_seeder(PeerId peer);
  /// Removes the peer and releases all link state involving it.
  void remove_peer(PeerId peer);

  bool has_peer(PeerId peer) const { return members_.contains(peer); }
  std::vector<PeerId> members() const;

  const Bitfield& pieces(PeerId peer) const;
  bool is_complete(PeerId peer) const;
  double progress(PeerId peer) const;
  const Availability& availability() const { return availability_; }

  /// Whether `downloader` currently wants data from `uploader` (the
  /// uploader holds a piece the downloader lacks). Both must be members.
  bool interested(PeerId downloader, PeerId uploader) const;

  /// Moves up to `budget` bytes from uploader to downloader, assigning
  /// pieces rarest-first as needed. Returns the bytes actually consumed
  /// (less than budget when the downloader completes or nothing useful is
  /// left; 0 when the downloader is already complete).
  Bytes transfer(PeerId uploader, PeerId downloader, Bytes budget);

  /// Releases the in-flight piece of the (uploader, downloader) link, e.g.
  /// when the link gets choked. Progress on the piece is forgotten (the
  /// piece returns to the pool). No-op for unknown links.
  void release_link(PeerId uploader, PeerId downloader);

  /// Round bookkeeping for tit-for-tat: bytes moved per link this round.
  void end_round();
  Bytes last_round_bytes(PeerId from, PeerId to) const;

  /// Cumulative bytes moved by transfer() over the swarm's lifetime (across
  /// all links, surviving peer removal). The bc::check ledger-conservation
  /// audit compares this against the BarterCast private histories.
  Bytes total_transferred() const { return total_transferred_; }

  /// Internal consistency: availability matches bitfields; in-flight pieces
  /// are not owned; link endpoints are members.
  bool check_invariants() const;

 private:
  struct Member {
    Bitfield have;
    Bitfield in_flight;  // pieces being fetched (any link)
  };

  struct Link {
    int piece = -1;         // piece in flight on this link, -1 if none
    Bytes piece_progress = 0;
    Bytes round_bytes = 0;
    Bytes last_round_bytes = 0;
  };

  static std::uint64_t link_key(PeerId from, PeerId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  Member& member(PeerId peer);
  const Member& member(PeerId peer) const;

  Torrent torrent_;
  Rng rng_;
  Availability availability_;
  std::unordered_map<PeerId, Member> members_;
  std::unordered_map<std::uint64_t, Link> links_;
  Bytes total_transferred_ = 0;
};

}  // namespace bc::bt
