#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>
#include <utility>

#include "graph/maxflow.hpp"
#include "util/checked.hpp"

namespace bc::check {

namespace {

std::string peer_str(PeerId id) {
  return id == kInvalidPeer ? std::string("<invalid>") : std::to_string(id);
}

std::string edge_str(PeerId from, PeerId to) {
  return std::string("(").append(peer_str(from)).append(" -> ")
      .append(peer_str(to)).append(")");
}

}  // namespace

void Report::fail(std::string invariant, std::string detail) {
  violations_.push_back({std::move(invariant), std::move(detail)});
}

bool Report::has(std::string_view invariant) const {
  return std::any_of(violations_.begin(), violations_.end(),
                     [&](const Violation& v) { return v.invariant == invariant; });
}

std::string Report::to_string() const {
  if (ok()) return "all invariants hold";
  std::string out = std::to_string(violations_.size()) + " violation(s):";
  for (const auto& v : violations_) {
    out += "\n  [" + v.invariant + "] " + v.detail;
  }
  return out;
}

// --- ledger ----------------------------------------------------------------

void check_history(const bartercast::PrivateHistory& history, Report& report) {
  Bytes sum_up = 0;
  Bytes sum_down = 0;
  for (const auto& e : history.entries()) {
    if (e.peer == kInvalidPeer) {
      report.fail("ledger.entry_peer", "history of peer " +
                                           peer_str(history.owner()) +
                                           " has an invalid-peer entry");
      continue;
    }
    if (e.peer == history.owner()) {
      report.fail("ledger.self_entry", "history of peer " +
                                           peer_str(history.owner()) +
                                           " has an entry about itself");
    }
    if (e.uploaded < 0 || e.downloaded < 0) {
      report.fail("ledger.negative",
                  "history of peer " + peer_str(history.owner()) + " entry " +
                      peer_str(e.peer) +
                      " has negative bytes: up=" + std::to_string(e.uploaded) +
                      " down=" + std::to_string(e.downloaded));
    }
    // The audit must degrade (report a mismatch) rather than trap on a
    // hostile ledger, so the tally saturates instead of wrapping.
    sum_up = util::saturating_add(sum_up, e.uploaded);
    sum_down = util::saturating_add(sum_down, e.downloaded);
  }
  if (sum_up != history.total_uploaded()) {
    report.fail("ledger.total_up",
                "history of peer " + peer_str(history.owner()) +
                    ": cached total_uploaded=" +
                    std::to_string(history.total_uploaded()) +
                    " but entries sum to " + std::to_string(sum_up));
  }
  if (sum_down != history.total_downloaded()) {
    report.fail("ledger.total_down",
                "history of peer " + peer_str(history.owner()) +
                    ": cached total_downloaded=" +
                    std::to_string(history.total_downloaded()) +
                    " but entries sum to " + std::to_string(sum_down));
  }
}

void check_ledger_conservation(
    const std::vector<const bartercast::PrivateHistory*>& ledgers,
    Bytes expected_transferred, Report& report) {
  // Ordered, so a run with several violations reports them in a stable
  // order.
  std::map<PeerId, const bartercast::PrivateHistory*> by_owner;
  for (const auto* h : ledgers) {
    if (h == nullptr) continue;
    check_history(*h, report);
    if (!by_owner.emplace(h->owner(), h).second) {
      report.fail("ledger.duplicate_owner",
                  "two ledgers claim owner " + peer_str(h->owner()));
    }
  }

  Bytes sum_up = 0;
  Bytes sum_down = 0;
  for (const auto& [owner, h] : by_owner) {
    sum_up = util::saturating_add(sum_up, h->total_uploaded());
    sum_down = util::saturating_add(sum_down, h->total_downloaded());
    for (const auto& e : h->entries()) {
      auto it = by_owner.find(e.peer);
      if (it == by_owner.end()) continue;  // partner's ledger not supplied
      const bartercast::PrivateHistory& partner = *it->second;
      if (partner.downloaded_from(owner) != e.uploaded) {
        report.fail(
            "ledger.conservation",
            "edge " + edge_str(owner, e.peer) + ": uploader recorded " +
                std::to_string(e.uploaded) + " bytes sent, downloader has " +
                std::to_string(partner.downloaded_from(owner)) + " received");
      }
      if (partner.uploaded_to(owner) != e.downloaded) {
        report.fail(
            "ledger.conservation",
            "edge " + edge_str(e.peer, owner) + ": downloader recorded " +
                std::to_string(e.downloaded) + " bytes received, uploader has " +
                std::to_string(partner.uploaded_to(owner)) + " sent");
      }
    }
  }
  if (sum_up != sum_down) {
    report.fail("ledger.global_balance",
                "summed uploads (" + std::to_string(sum_up) +
                    ") != summed downloads (" + std::to_string(sum_down) + ")");
  }
  if (expected_transferred >= 0 && sum_up != expected_transferred) {
    report.fail("ledger.ground_truth",
                "ledgers account for " + std::to_string(sum_up) +
                    " uploaded bytes but the transport moved " +
                    std::to_string(expected_transferred));
  }
}

// --- flow graph / reputation ------------------------------------------------

void check_flow_graph(const graph::FlowGraph& graph, Report& report) {
  std::size_t edges = 0;
  for (PeerId node : graph.nodes()) {
    const auto out = graph.out_edges(node);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto& e = out[i];
      ++edges;
      if (e.cap <= 0) {
        report.fail("graph.capacity",
                    "edge " + edge_str(node, e.peer) + " has capacity " +
                        std::to_string(e.cap) + " (must be > 0)");
      }
      if (i > 0 && out[i - 1].peer >= e.peer) {
        report.fail("graph.sorted", "out-edges of " + std::to_string(node) +
                                        " not strictly ascending at " +
                                        edge_str(node, e.peer));
      }
      // Both views read one stored capacity, so the mirror is the id.
      const auto preds = graph.in_edges(e.peer).peers();
      const bool mirrored =
          std::find(preds.begin(), preds.end(), node) != preds.end();
      if (!mirrored) {
        report.fail("graph.mirror", "edge " + edge_str(node, e.peer) +
                                        " missing from the in-edge index");
      }
    }
    const auto preds = graph.in_edges(node).peers();
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (i > 0 && preds[i - 1] >= preds[i]) {
        report.fail("graph.sorted", "in-edges of " + std::to_string(node) +
                                        " not strictly ascending at " +
                                        edge_str(preds[i], node));
      }
      if (graph.capacity(preds[i], node) <= 0) {
        report.fail("graph.mirror", "in-edge index lists " +
                                        edge_str(preds[i], node) +
                                        " but the graph holds no such edge");
      }
    }
  }
  if (edges != graph.num_edges()) {
    report.fail("graph.edge_count",
                "num_edges()=" + std::to_string(graph.num_edges()) +
                    " but adjacency holds " + std::to_string(edges));
  }
}

void check_reputation_bounds(const bartercast::ReputationEngine& engine,
                             const graph::FlowGraph& graph, PeerId evaluator,
                             const std::vector<PeerId>& subjects,
                             Report& report) {
  for (PeerId subject : subjects) {
    if (subject == evaluator) continue;
    // Trivial-cut bound, both directions. For two-hop paths the min cut
    // upper-bounds the max flow exactly; for the ablation modes the bound
    // still holds (any s-t flow is limited by the cut around s and t).
    const std::pair<PeerId, PeerId> dirs[] = {{evaluator, subject},
                                              {subject, evaluator}};
    for (const auto& [s, t] : dirs) {
      const Bytes flow = engine.flow(graph, s, t);
      if (flow < 0) {
        report.fail("flow.negative", "maxflow" + edge_str(s, t) + " = " +
                                         std::to_string(flow));
        continue;
      }
      const Bytes cut =
          std::min(graph.out_capacity(s), graph.in_capacity(t));
      if (flow > cut) {
        report.fail("flow.min_cut",
                    "maxflow" + edge_str(s, t) + " = " + std::to_string(flow) +
                        " exceeds the trivial min cut " + std::to_string(cut));
      }
    }
    const double r = engine.reputation(graph, evaluator, subject);
    if (!std::isfinite(r) || r <= -1.0 || r >= 1.0) {
      report.fail("reputation.bounds",
                  "R_" + peer_str(evaluator) + "(" + peer_str(subject) +
                      ") = " + std::to_string(r) +
                      " outside the open interval (-1, 1)");
    }
  }
}

// --- simulator ---------------------------------------------------------------

void check_engine(const sim::Engine& engine, Report& report) {
  const auto next = engine.next_event_time();
  if (next.has_value() && *next < engine.now()) {
    report.fail("engine.monotonic",
                "event queue holds an event at t=" + std::to_string(*next) +
                    " which is before now()=" + std::to_string(engine.now()));
  }
}

// --- gossip messages ----------------------------------------------------------

void check_message(const bartercast::BarterCastMessage& message,
                   const bartercast::MessageSelection& selection,
                   Report& report) {
  if (message.sender == kInvalidPeer) {
    report.fail("message.sender", "message has an invalid sender id");
  }
  if (!std::isfinite(message.sent_at) || message.sent_at < 0.0) {
    report.fail("message.timestamp", "message from peer " +
                                         peer_str(message.sender) +
                                         " has timestamp " +
                                         std::to_string(message.sent_at));
  }
  const std::size_t limit = selection.nh + selection.nr;
  if (message.records.size() > limit) {
    report.fail("message.record_limit",
                "message from peer " + peer_str(message.sender) + " carries " +
                    std::to_string(message.records.size()) +
                    " records, above the Nh+Nr limit of " +
                    std::to_string(limit));
  }
  std::unordered_set<PeerId> others;
  for (const auto& rec : message.records) {
    if (rec.subject != message.sender) {
      report.fail("message.third_party",
                  "record " + edge_str(rec.subject, rec.other) +
                      " is not a claim by sender " + peer_str(message.sender));
    }
    if (rec.other == message.sender || rec.other == rec.subject) {
      report.fail("message.self_record",
                  "record " + edge_str(rec.subject, rec.other) +
                      " reports on the sender itself");
    }
    if (rec.other == kInvalidPeer) {
      report.fail("message.record_peer",
                  "record from peer " + peer_str(message.sender) +
                      " names an invalid counterparty");
    } else if (!others.insert(rec.other).second) {
      report.fail("message.duplicate",
                  "message from peer " + peer_str(message.sender) +
                      " carries two records about peer " + peer_str(rec.other));
    }
    if (rec.subject_to_other < 0 || rec.other_to_subject < 0) {
      report.fail("message.negative",
                  "record " + edge_str(rec.subject, rec.other) +
                      " claims negative bytes: up=" +
                      std::to_string(rec.subject_to_other) +
                      " down=" + std::to_string(rec.other_to_subject));
    }
  }
}

}  // namespace bc::check
