#include "graph/peer_index.hpp"

#include "util/sorted_view.hpp"

namespace bc::graph {

NodeIndex PeerIndex::intern(PeerId id) {
  auto [it, inserted] =
      index_of_.try_emplace(id, static_cast<NodeIndex>(peer_of_.size()));
  if (inserted) peer_of_.push_back(id);
  return it->second;
}

std::vector<PeerId> PeerIndex::ids_sorted() const {
  return util::sorted_keys(index_of_);
}

bool PeerIndex::check_invariants() const {
  if (index_of_.size() != peer_of_.size()) return false;
  // bc-analyze: allow(D1) -- boolean all-of over the map; a pure predicate, order cannot change the result
  for (const auto& [id, slot] : index_of_) {
    if (id == kInvalidPeer) return false;
    if (slot >= peer_of_.size() || peer_of_[slot] != id) return false;
  }
  return true;
}

}  // namespace bc::graph
