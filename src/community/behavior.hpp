// Composable peer behaviors (the adversary zoo).
//
// The paper evaluates BarterCast against exactly three manipulations
// (§5.4: lazy, ignoring, and lying freeriders), and the original scenario
// layer hard-coded those as a closed enum. This header replaces the enum
// with a small trait object so new adversaries compose out of four policy
// hooks instead of simulator-core edits:
//
//   * seeding policy   — how long the peer seeds a completed file
//                        (sharers: 10 h in the paper; freeriders: leave
//                        "immediately ... after finishing a download")
//   * messaging policy — whether the peer participates in the BarterCast
//                        exchange at all (§5.4 manipulation (1))
//   * report mutation  — the message the peer actually sends (§5.4
//                        manipulation (2) and the wider attack catalog:
//                        sybil regions, slander, ... see
//                        behaviors_builtin.cpp and DESIGN.md §12)
//   * churn profile    — a rewrite of the peer's trace sessions
//                        (mobile-profile duty cycling)
//
// Behaviors are stateless, immutable objects in a fixed catalog of eight
// built-ins, looked up by name or alias (find_behavior); populations are
// described as composable specs ("sharer:0.5,lazy:0.3,sybil-region:0.2")
// parsed by PopulationSpec. The legacy §5.1/§5.4 fraction triple keeps
// working through assign_behaviors(), which reproduces the original RNG
// draws bit for bit (pinned by the golden-assignment regression test).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bartercast/message.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace bc::bartercast {
class Node;
}  // namespace bc::bartercast

namespace bc::community {

struct ScenarioConfig;

/// Context handed to the report-mutation hook: everything an adversary may
/// consult when fabricating its outgoing BarterCast message. All references
/// outlive the call only; hooks must not retain them.
struct MessageContext {
  /// Sender's node: private history, view and Nh/Nr selection.
  const bartercast::Node& node;
  Seconds now = 0.0;              ///< simulation time of the send
  PeerId self = kInvalidPeer;     ///< the sending peer
  /// Peers assigned the same behavior, ascending PeerId — the adversary's
  /// cohort (a sybil region's members know each other out of band). Never
  /// null; contains `self`.
  const std::vector<PeerId>* cohort = nullptr;
};

/// One peer archetype. Implementations are immutable and shared: a single
/// instance serves every peer assigned the behavior. Its fixed parameters
/// are constants beside it; the scenario's seeding period and the sender's
/// node flow in through the hook arguments.
class PeerBehavior {
 public:
  virtual ~PeerBehavior() = default;

  /// Canonical catalog name; also the class name reported in PeerOutcome.
  virtual std::string_view name() const = 0;

  /// Metrics class: freeriders feed the freerider speed/reputation series
  /// and histograms (the paper's two-class split, §5.1). Orthogonal to the
  /// seeding policy — a strategic uploader can seed briefly and still count
  /// as a freerider.
  virtual bool freerider() const = 0;

  /// Messaging policy: whether the peer sends BarterCast messages and
  /// answers exchanges (§5.4 manipulation (1) turns this off).
  virtual bool sends_messages() const { return true; }

  /// Seeding policy: how long the peer keeps seeding a file after
  /// completing the download. A value <= 0 means the peer leaves the swarm
  /// immediately (the lazy-freeriding move of §5.1).
  virtual Seconds seed_duration(const ScenarioConfig& config) const;

  /// Report-mutation hook: the BarterCast message this peer sends in a
  /// gossip exchange. The default is the honest §3.4 selection from the
  /// node's private history.
  virtual bartercast::BarterCastMessage make_message(
      const MessageContext& ctx) const;

  /// Churn profile: rewrites the peer's trace sessions in place before they
  /// are scheduled (mobile profiles duty-cycle each session into short
  /// online bursts). Must keep the sessions sorted and non-overlapping.
  /// The default is the identity and draws nothing from `churn_rng`, so
  /// scenarios without churny behaviors are bit-identical to the
  /// original enum code.
  virtual void shape_sessions(std::vector<trace::Session>& sessions,
                              Rng& churn_rng) const;
};

/// Looks a built-in behavior (behaviors_builtin.cpp) up by canonical name
/// or alias, treating '_' and '-' as the same separator, so CLI specs may
/// spell "sybil_region" for "sybil-region". nullptr if unknown.
const PeerBehavior* find_behavior(std::string_view name);

/// Asserting lookup for names that must exist (the built-ins).
const PeerBehavior& behavior_named(std::string_view name);

/// All canonical behavior names, sorted ascending (deterministic).
std::vector<std::string> behavior_names();

/// One contiguous slice of a population assignment: `count` peers get
/// `behavior`.
struct PopulationSlice {
  const PeerBehavior* behavior = nullptr;
  std::size_t count = 0;
};

/// A composable population description: an ordered list of
/// (behavior, fraction) pairs. Fractions are of the whole population; any
/// remainder is filled with sharers. Parsed from specs like
/// "sharer:0.5,lazy:0.3,sybil-region:0.1".
struct PopulationSpec {
  struct Entry {
    std::string name;
    double fraction = 0.0;
  };
  std::vector<Entry> entries;

  /// Parses a comma-separated "name:fraction" list. Returns std::nullopt
  /// and fills *error (if non-null) on malformed input. Behavior names are
  /// validated against the catalog by validate(), not here.
  static std::optional<PopulationSpec> parse(std::string_view spec,
                                             std::string* error = nullptr);

  /// Returns an empty string when the spec is usable: every name resolves
  /// in the catalog, every fraction is within [0, 1], and the fractions
  /// sum to at most 1 (within rounding tolerance).
  std::string validate() const;

  /// Resolves the spec against a concrete population size: each entry gets
  /// round(fraction * num_peers) peers, in spec order.
  std::vector<PopulationSlice> slices(std::size_t num_peers) const;
};

/// Assigns `slices` over a population of `num_peers` via one shuffled index
/// vector: slice k occupies the next slices[k].count shuffled slots, and
/// every unclaimed peer gets `fill`. Exactly one rng.shuffle(n) draw —
/// the same RNG consumption as the original enum assignment.
std::vector<const PeerBehavior*> assign_population(
    std::size_t num_peers, const std::vector<PopulationSlice>& slices,
    const PeerBehavior& fill, Rng& rng);

/// Splits a population like the paper does: `freerider_fraction` of the
/// peers are freeriders, of which the requested fractions (relative to the
/// *whole* population, as in §5.4: "disobeying peers are a random selection
/// from a total of 50% freeriders") ignore or lie. The remaining peers are
/// sharers. ignorer_fraction + liar_fraction must not exceed
/// freerider_fraction. Assignment is random but deterministic in rng, and
/// bit-identical to the original enum implementation (golden test).
std::vector<const PeerBehavior*> assign_behaviors(std::size_t num_peers,
                                                  double freerider_fraction,
                                                  double ignorer_fraction,
                                                  double liar_fraction,
                                                  Rng& rng);

}  // namespace bc::community
