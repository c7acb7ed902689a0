#include "bartercast/persistence.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <sstream>
#include <vector>

namespace bc::bartercast {

namespace {

std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    const std::size_t comma = line.find(',', pos);
    if (comma == std::string::npos) {
      out.push_back(line.substr(pos));
      break;
    }
    out.push_back(line.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

bool parse_i64(const std::string& s, std::int64_t& out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool parse_double(const std::string& s, double& out) {
  try {
    std::size_t used = 0;
    out = std::stod(s, &used);
    return used == s.size();
  } catch (...) {
    return false;
  }
}

}  // namespace

void save_node(const Node& node, std::ostream& os) {
  os.precision(17);
  os << "#bartercast-node," << kPersistenceVersion << ',' << node.id()
     << '\n';

  for (const auto& e : node.history().entries()) {  // sorted by peer
    os << "#history," << e.peer << ',' << e.uploaded << ',' << e.downloaded
       << ',' << e.last_seen << '\n';
  }

  // Remote edges only: owner-incident edges are implied by the history.
  // nodes() is ascending and each out-edge span is sorted by head peer, so
  // this emits directly in (from, to) order — the same total order the old
  // collect-and-sort pass produced.
  const auto& graph = node.view().graph();
  for (PeerId from : graph.nodes()) {
    if (from == node.id()) continue;
    for (const auto& e : graph.out_edges(from)) {
      if (e.peer == node.id()) continue;
      os << "#edge," << from << ',' << e.peer << ',' << e.cap << '\n';
    }
  }
}

std::string save_node_to_string(const Node& node) {
  std::ostringstream os;
  save_node(node, os);
  return os.str();
}

std::unique_ptr<Node> load_node(std::istream& is, const NodeConfig& config,
                                std::string* error) {
  auto fail = [&](const std::string& msg) -> std::unique_ptr<Node> {
    if (error != nullptr) *error = msg;
    return nullptr;
  };

  // Ids come from an untrusted file as int64; anything outside PeerId's
  // range would truncate in the cast below, and kInvalidPeer names no one
  // and must never become a graph node (the graph core uses it as a
  // sentinel, e.g. the free-cell key of its flat tables),
  // so such records are rejected.
  constexpr std::int64_t kMaxId = static_cast<std::int64_t>(kInvalidPeer) - 1;

  std::string line;
  std::size_t line_no = 0;
  std::unique_ptr<Node> node;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = split(line);
    const std::string& tag = fields[0];
    auto bad = [&] {
      return fail("line " + std::to_string(line_no) + ": malformed " + tag);
    };
    if (tag == "#bartercast-node") {
      std::int64_t version = 0, id = 0;
      if (fields.size() != 3 || !parse_i64(fields[1], version) ||
          !parse_i64(fields[2], id)) {
        return bad();
      }
      if (version != kPersistenceVersion) {
        return fail("unsupported format version " + fields[1]);
      }
      if (id < 0 || id > kMaxId) return bad();
      if (node != nullptr) return fail("duplicate header");
      node = std::make_unique<Node>(static_cast<PeerId>(id), config);
    } else if (tag == "#history") {
      if (node == nullptr) return fail("record before header");
      std::int64_t peer = 0, up = 0, down = 0;
      double seen = 0.0;
      if (fields.size() != 5 || !parse_i64(fields[1], peer) ||
          !parse_i64(fields[2], up) || !parse_i64(fields[3], down) ||
          !parse_double(fields[4], seen)) {
        return bad();
      }
      // Both selection orders of §3.4 need a total order on last_seen.
      if (up < 0 || down < 0 || !std::isfinite(seen)) return bad();
      if (peer < 0 || peer > kMaxId) return bad();
      const auto remote = static_cast<PeerId>(peer);
      // save_node writes each peer once; a repeat would add to the first
      // line's counts and could wrap them.
      if (remote == node->id() || node->history().contains(remote)) {
        return bad();
      }
      if (up > 0) node->on_bytes_sent(remote, up, seen);
      if (down > 0) node->on_bytes_received(remote, down, seen);
      if (up == 0 && down == 0) node->on_peer_seen(remote, seen);
    } else if (tag == "#edge") {
      if (node == nullptr) return fail("record before header");
      std::int64_t from = 0, to = 0, amount = 0;
      if (fields.size() != 4 || !parse_i64(fields[1], from) ||
          !parse_i64(fields[2], to) || !parse_i64(fields[3], amount)) {
        return bad();
      }
      if (amount <= 0 || from == to) return bad();
      if (from < 0 || from > kMaxId || to < 0 || to > kMaxId) return bad();
      if (static_cast<PeerId>(from) == node->id() ||
          static_cast<PeerId>(to) == node->id()) {
        return bad();  // owner edges come from the history section only
      }
      // Restore through the standard gossip path so the integrity rules
      // apply; a synthetic message from `from` carries the edge.
      BarterCastMessage msg;
      msg.sender = static_cast<PeerId>(from);
      BarterRecord r;
      r.subject = static_cast<PeerId>(from);
      r.other = static_cast<PeerId>(to);
      r.subject_to_other = amount;
      r.other_to_subject = 0;
      msg.records.push_back(r);
      node->receive_message(msg);
    } else {
      return fail("line " + std::to_string(line_no) + ": unknown record");
    }
  }
  if (node == nullptr) return fail("missing header");
  return node;
}

std::unique_ptr<Node> load_node_from_string(const std::string& text,
                                            const NodeConfig& config,
                                            std::string* error) {
  std::istringstream is(text);
  return load_node(is, config, error);
}

}  // namespace bc::bartercast
