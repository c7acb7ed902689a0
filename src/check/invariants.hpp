// Runtime invariant validators (the bc::check subsystem).
//
// BarterCast's policies are only as trustworthy as the ledger arithmetic
// underneath them: a silently broken byte count corrupts the subjective
// graph, the Eq. 1 reputations, and every rank/ban decision downstream.
// The validators here re-derive the system's core conservation and bound
// properties from first principles and report any divergence:
//
//   * ledger conservation  -- every byte recorded as uploaded by i to j is
//     recorded by j as downloaded from i, and the global total matches the
//     ground-truth bytes moved by the transport (bt::Swarm).
//   * flow-graph consistency -- edge capacities strictly positive, in/out
//     indices mirrored, two-hop maxflow never above the trivial cuts, and
//     the arctan reputation strictly inside (-1, 1).
//   * simulator monotonicity -- the event queue never holds an event
//     scheduled before the engine's current time.
//   * gossip well-formedness -- messages respect the paper's Nh/Nr record
//     limits and only carry the sender's own, non-negative claims.
//
// Validators append to a Report instead of aborting so tests can assert on
// *which* invariant broke; abort_on_violations turns a report into a
// fail-stop. The subsystem holds no state: whether a run audits is the
// run's own setting (community::RunContext::audit).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "bartercast/history.hpp"
#include "bartercast/message.hpp"
#include "bartercast/reputation.hpp"
#include "graph/flow_graph.hpp"
#include "sim/engine.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace bc::check {

/// True when the build was configured with -DBARTERCAST_VALIDATE=ON; the
/// default of whether a run audits.
#ifdef BARTERCAST_VALIDATE
inline constexpr bool kValidateBuild = true;
#else
inline constexpr bool kValidateBuild = false;
#endif

/// One failed invariant: a stable dotted id plus human-readable specifics.
struct Violation {
  std::string invariant;  // e.g. "ledger.conservation"
  std::string detail;
};

/// Accumulates violations across validator calls.
class Report {
 public:
  void fail(std::string invariant, std::string detail);

  bool ok() const { return violations_.empty(); }
  std::size_t size() const { return violations_.size(); }
  const std::vector<Violation>& violations() const { return violations_; }

  /// Whether a violation with exactly this invariant id was recorded.
  bool has(std::string_view invariant) const;

  /// Multi-line rendering for logs and assertion messages.
  std::string to_string() const;

 private:
  std::vector<Violation> violations_;
};

/// Fail-stop, like BC_ASSERT: returns when `report` is clean; otherwise
/// prints "bc::check audit '<site>' failed: <report>" to stderr and aborts.
void abort_on_violations(std::string_view site, const Report& report);

// --- ledger (bartercast/history) -----------------------------------------

/// Internal consistency of one private history: cached totals equal the sum
/// over entries, no entry about the owner itself or an invalid peer, and no
/// negative byte counter.
void check_history(const bartercast::PrivateHistory& history, Report& report);

/// Cross-peer conservation over a complete set of ledgers: i's record of
/// bytes uploaded to j must equal j's record of bytes downloaded from i (in
/// both directions), and the summed upload total must equal the summed
/// download total. When `expected_transferred` >= 0 the summed upload total
/// must additionally equal it -- pass the transport's ground truth (e.g. the
/// sum of bt::Swarm::total_transferred over all swarms).
void check_ledger_conservation(
    const std::vector<const bartercast::PrivateHistory*>& ledgers,
    Bytes expected_transferred, Report& report);

// --- flow graph / reputation (graph, bartercast/reputation) ---------------

/// Structural consistency of a subjective graph: strictly positive edge
/// capacities with mirrored in/out adjacency indices.
void check_flow_graph(const graph::FlowGraph& graph, Report& report);

/// Maxflow and Eq. 1 sanity for `evaluator` against each subject: the
/// engine's directed flow never exceeds the trivial cuts
/// min(out_capacity(source), in_capacity(sink)) -- for two-hop paths the
/// min cut upper-bounds the max flow -- and the arctan reputation lies
/// strictly inside (-1, 1).
void check_reputation_bounds(const bartercast::ReputationEngine& engine,
                             const graph::FlowGraph& graph, PeerId evaluator,
                             const std::vector<PeerId>& subjects,
                             Report& report);

// --- simulator (sim/engine) ------------------------------------------------

/// Event-queue monotonicity: no queued event may be earlier than now().
void check_engine(const sim::Engine& engine, Report& report);

// --- gossip messages (bartercast/message) ----------------------------------

/// Well-formedness under the paper's record limits: at most Nh + Nr records,
/// a valid sender and timestamp, every record being the sender's own claim
/// about a distinct other peer, and non-negative byte amounts.
void check_message(const bartercast::BarterCastMessage& message,
                   const bartercast::MessageSelection& selection,
                   Report& report);

}  // namespace bc::check
