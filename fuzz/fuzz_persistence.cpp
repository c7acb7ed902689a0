// Fuzz harness for the node state loader (bartercast/persistence.cpp).
//
// Any text load_node_from_string() accepts must round-trip: the loaded
// node saves to a canonical form that loads again and re-saves
// byte-identically. Loading replays through the Node public API, so this
// also drives the integrity rules (self-edge/negative-amount rejection)
// with adversarial input. The loaded node must also be consistent: its
// graph keeps its invariants, and each history peer's byte counts equal
// the owner-incident edges the same lines built.
#include <cstdint>
#include <cstdlib>
#include <string>

#include "bartercast/persistence.hpp"

namespace {
void require(bool ok) {
  if (!ok) std::abort();
}
}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace bc::bartercast;
  if (size > (1u << 16)) return 0;  // keep single replays fast
  const std::string text(reinterpret_cast<const char*>(data), size);

  std::string error;
  const auto node = load_node_from_string(text, NodeConfig{}, &error);
  if (node == nullptr) return 0;

  const auto& graph = node->view().graph();
  require(graph.check_invariants());
  for (const HistoryEntry& e : node->history().entries()) {
    require(node->history().downloaded_from(e.peer) ==
            graph.capacity(e.peer, node->id()));
    require(node->history().uploaded_to(e.peer) ==
            graph.capacity(node->id(), e.peer));
  }

  const std::string saved = save_node_to_string(*node);
  std::string error2;
  const auto node2 = load_node_from_string(saved, NodeConfig{}, &error2);
  require(node2 != nullptr);
  require(save_node_to_string(*node2) == saved);
  return 0;
}
