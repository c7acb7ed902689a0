// G1 fixture: dense graph internals leaking outside src/graph/. A slot is
// one graph's first-touch order, so storing or arithmetic-ing it here
// silently names a different peer in any other graph.
#include "graph/peer_index.hpp"

namespace bc {

graph::NodeIndex slot_of(const graph::PeerIndex& index, PeerId id) {
  const graph::NodeIndex slot = index.find(id);
  if (slot == graph::kNoNode) return 0;
  return slot + 1;
}

}  // namespace bc
