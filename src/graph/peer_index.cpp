#include "graph/peer_index.hpp"

#include <algorithm>

namespace bc::graph {

std::vector<PeerId> PeerIndex::ids_sorted() const {
  std::vector<PeerId> ids = peer_of_;
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool PeerIndex::check_invariants() const {
  // Every slot's id maps back to that slot and the sizes agree, so the
  // table holds exactly the interned ids.
  if (slot_of_.size() != peer_of_.size()) return false;
  for (NodeIndex slot = 0; slot < peer_of_.size(); ++slot) {
    if (find(peer_of_[slot]) != slot) return false;
  }
  return true;
}

}  // namespace bc::graph
