// Fuzz harness for the BarterCast wire codec (bartercast/codec.cpp).
//
// Properties enforced on every input decode() accepts:
//   1. Canonical form: encode(decode(bytes)) == bytes. The format has no
//      redundant representations, so any accepted byte string must be
//      exactly what the encoder emits.
//   2. Round-trip: decoding the re-encoded bytes succeeds and yields a
//      message equal field-for-field to the first decode.
//   3. Safe merge: applying the message to a Node keeps its subjective
//      graph's invariants (e.g. no node for kInvalidPeer).
//   4. Idempotent merge: applying the same message again is a no-op. The
//      view's version() bumps on every capacity raise, so it must not
//      move, even when the message repeats a pair with different totals
//      (the max-merge already kept the larger of each).
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "bartercast/codec.hpp"
#include "bartercast/message.hpp"
#include "bartercast/node.hpp"

namespace {
void require(bool ok) {
  if (!ok) std::abort();
}
}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace bc::bartercast;
  const std::span<const std::uint8_t> in(data, size);
  const auto msg = decode(in);
  if (!msg.has_value()) return 0;

  const std::vector<std::uint8_t> bytes = encode(*msg);
  require(bytes.size() == size);
  require(std::equal(bytes.begin(), bytes.end(), data));

  const auto again = decode(bytes);
  require(again.has_value());
  require(again->sender == msg->sender);
  // Exact bit equality is the contract here: the timestamp travels through
  // memcpy, never arithmetic.
  require(std::bit_cast<std::uint64_t>(again->sent_at) ==
          std::bit_cast<std::uint64_t>(msg->sent_at));
  require(again->records == msg->records);

  Node node(1);
  node.receive_message(*msg);
  require(node.view().graph().check_invariants());

  const std::uint64_t version = node.view().version();
  node.receive_message(*msg);
  require(node.view().version() == version);
  require(node.view().graph().check_invariants());
  return 0;
}
