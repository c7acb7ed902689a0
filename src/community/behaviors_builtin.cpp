// The built-in adversary zoo (see DESIGN.md §12 for the catalog rationale).
//
// The first four archetypes are the paper's §5.1/§5.4 population; the rest
// extend the evaluation with the classic attack families BarterCast claims
// (or needs to demonstrate) robustness against:
//
//   * sybil-region  — a clique of identities mutually inflating each
//                     other's standing (Douceur's sybil attack applied to
//                     the gossip layer);
//   * slanderer     — false-report injection against real benefactors;
//   * strategic-uploader — a BitTyrant-style exploiter that invests the
//                     minimum seeding needed to game reciprocation
//                     (Nielson et al.'s incentive-attack taxonomy,
//                     PAPERS.md);
//   * mobile-churner — an *honest* duty-cycled profile, for measuring how
//                     much a reputation mechanism punishes churn
//                     (false-ban pressure), not an attack.
//
// Every fabricated message keeps the protocol shape a receiver can verify
// (each record is a claim by the sender about one distinct counterparty,
// at most Nh+Nr of them): adversaries lie about *amounts*, which is the
// part no honest verifier can check.
//
// The catalog is a fixed table of these eight behaviors and their aliases;
// each archetype's parameters are named constants beside it.
#include <algorithm>
#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "bartercast/node.hpp"
#include "community/behavior.hpp"
#include "community/scenario.hpp"
#include "util/assert.hpp"

namespace bc::community {

namespace {

// --- the paper's §5.1/§5.4 population ---------------------------------

class Sharer final : public PeerBehavior {
 public:
  std::string_view name() const override { return "sharer"; }
  bool freerider() const override { return false; }
};

class LazyFreerider final : public PeerBehavior {
 public:
  std::string_view name() const override { return "lazy-freerider"; }
  bool freerider() const override { return true; }
};

class IgnoringFreerider final : public PeerBehavior {
 public:
  std::string_view name() const override { return "ignoring-freerider"; }
  bool freerider() const override { return true; }
  bool sends_messages() const override { return false; }
};

/// Upload volume a lying freerider claims from each peer it reports.
constexpr Bytes kLiarClaimedUpload = gib(10.0);

class LyingFreerider final : public PeerBehavior {
 public:
  std::string_view name() const override { return "lying-freerider"; }
  bool freerider() const override { return true; }
  bartercast::BarterCastMessage make_message(
      const MessageContext& ctx) const override {
    return bartercast::build_lying_message(ctx.node.history(),
                                           ctx.node.config().selection,
                                           kLiarClaimedUpload, ctx.now);
  }
};

// --- extended adversaries ----------------------------------------------

/// Upload volume each sybil-region member credits its fellow members.
constexpr Bytes kSybilClaimedUpload = gib(10.0);

/// Sybil region: every member claims each fellow member uploaded
/// `kSybilClaimedUpload` bytes to it, creating a clique of fabricated
/// cohort->member edges in receivers' subjective graphs. Under two-hop
/// maxflow a fabricated edge c->m only carries flow capped by m's *real*
/// out-capacity toward the evaluator, so the bench can measure how tightly
/// the metric bounds mutual promotion.
class SybilRegion final : public PeerBehavior {
 public:
  std::string_view name() const override { return "sybil-region"; }
  bool freerider() const override { return true; }
  bartercast::BarterCastMessage make_message(
      const MessageContext& ctx) const override {
    BC_ASSERT(ctx.cohort != nullptr);
    const auto& selection = ctx.node.config().selection;
    const std::size_t limit = selection.nh + selection.nr;
    bartercast::BarterCastMessage msg;
    msg.sender = ctx.self;
    msg.sent_at = ctx.now;
    // Cohort claims first (ascending PeerId: deterministic), then the
    // honest records about peers outside the region, within the Nh+Nr
    // limit and without duplicate counterparties.
    for (PeerId member : *ctx.cohort) {
      if (member == ctx.self || msg.records.size() >= limit) continue;
      bartercast::BarterRecord rec;
      rec.subject = ctx.self;
      rec.other = member;
      rec.subject_to_other = 0;
      rec.other_to_subject = kSybilClaimedUpload;
      msg.records.push_back(rec);
    }
    const bartercast::BarterCastMessage honest = ctx.node.make_message(ctx.now);
    for (const bartercast::BarterRecord& rec : honest.records) {
      if (msg.records.size() >= limit) break;
      const bool covered =
          std::any_of(msg.records.begin(), msg.records.end(),
                      [&](const bartercast::BarterRecord& existing) {
                        return existing.other == rec.other;
                      });
      if (!covered) msg.records.push_back(rec);
    }
    return msg;
  }
};

/// Upload volume a slanderer claims toward each victim.
constexpr Bytes kSlanderClaimedUpload = gib(10.0);
/// How many of its real benefactors a slanderer defames per message.
constexpr std::size_t kSlanderVictims = 5;
static_assert(kLiarClaimedUpload >= 0 && kSybilClaimedUpload >= 0 &&
              kSlanderClaimedUpload >= 0);

/// Slander / false-report injection: takes the honest message and rewrites
/// the records about its `kSlanderVictims` largest real benefactors into
/// "I uploaded `kSlanderClaimedUpload` to them, they gave me nothing".
/// The fabricated victim-inbound edge raises flow(evaluator -> victim) at
/// every evaluator that really uploaded to the slanderer, dragging the
/// victim's Equation-1 reputation down.
class Slanderer final : public PeerBehavior {
 public:
  std::string_view name() const override { return "slanderer"; }
  bool freerider() const override { return true; }
  bartercast::BarterCastMessage make_message(
      const MessageContext& ctx) const override {
    bartercast::BarterCastMessage msg = ctx.node.make_message(ctx.now);
    if (msg.records.empty()) return msg;
    // Victims: the counterparties that really uploaded the most to us,
    // ties broken by PeerId so the choice is deterministic.
    std::vector<std::size_t> order(msg.records.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const auto& ra = msg.records[a];
      const auto& rb = msg.records[b];
      if (ra.other_to_subject != rb.other_to_subject) {
        return ra.other_to_subject > rb.other_to_subject;
      }
      return ra.other < rb.other;
    });
    const std::size_t victims = std::min(kSlanderVictims, order.size());
    for (std::size_t i = 0; i < victims; ++i) {
      bartercast::BarterRecord& rec = msg.records[order[i]];
      rec.subject_to_other = kSlanderClaimedUpload;
      rec.other_to_subject = 0;
    }
    return msg;
  }
};

/// Fraction of the sharer seeding period a strategic uploader invests.
constexpr double kStrategicSeedFraction = 0.1;
static_assert(kStrategicSeedFraction >= 0.0 && kStrategicSeedFraction <= 1.0);

/// BitTyrant-style strategic uploader: invests a small fraction of
/// the sharer seeding budget — just enough reciprocation and reputation to
/// keep download slots — and otherwise behaves like a freerider. Honest
/// messages: the exploit is in the transfer policy, not the gossip.
class StrategicUploader final : public PeerBehavior {
 public:
  std::string_view name() const override { return "strategic-uploader"; }
  bool freerider() const override { return true; }
  Seconds seed_duration(const ScenarioConfig& config) const override {
    return kStrategicSeedFraction * config.seed_duration;
  }
};

/// Duty cycling of mobile-churner sessions: online for
/// `kMobileDutyCycle` of every `kMobileChurnPeriod`, offline the rest.
constexpr Seconds kMobileChurnPeriod = 30.0 * kMinute;
constexpr double kMobileDutyCycle = 0.5;
static_assert(kMobileChurnPeriod > 0.0);
static_assert(kMobileDutyCycle > 0.0 && kMobileDutyCycle < 1.0);

/// Honest peer on a flaky mobile link: every trace session is duty-cycled
/// into `kMobileDutyCycle * kMobileChurnPeriod` online bursts. Used to
/// measure false-ban pressure: a mechanism that confuses churn with
/// freeriding will push these honest peers under the ban threshold.
class MobileChurner final : public PeerBehavior {
 public:
  std::string_view name() const override { return "mobile-churner"; }
  bool freerider() const override { return false; }
  void shape_sessions(std::vector<trace::Session>& sessions,
                      Rng& churn_rng) const override {
    constexpr Seconds kOn = kMobileChurnPeriod * kMobileDutyCycle;
    std::vector<trace::Session> shaped;
    for (const trace::Session& s : sessions) {
      // One phase draw per session decorrelates peers and sessions while
      // staying deterministic in the dedicated churn stream.
      const Seconds phase = churn_rng.uniform(0.0, kMobileChurnPeriod);
      for (Seconds t = s.start - kMobileChurnPeriod + phase; t < s.end;
           t += kMobileChurnPeriod) {
        trace::Session burst;
        burst.start = std::max(t, s.start);
        burst.end = std::min(t + kOn, s.end);
        if (burst.end > burst.start) shaped.push_back(burst);
      }
    }
    sessions = std::move(shaped);
  }
};

const Sharer kSharer;
const LazyFreerider kLazyFreerider;
const IgnoringFreerider kIgnoringFreerider;
const LyingFreerider kLyingFreerider;
const SybilRegion kSybilRegion;
const Slanderer kSlanderer;
const StrategicUploader kStrategicUploader;
const MobileChurner kMobileChurner;

struct CatalogEntry {
  const PeerBehavior* behavior;
  std::array<std::string_view, 2> aliases;  // "" pads a single alias
};

constexpr CatalogEntry kCatalog[] = {
    {&kSharer, {"honest"}},
    {&kLazyFreerider, {"lazy", "freerider"}},
    {&kIgnoringFreerider, {"ignoring", "ignorer"}},
    {&kLyingFreerider, {"lying", "liar"}},
    {&kSybilRegion, {"sybil"}},
    {&kSlanderer, {"slander"}},
    {&kStrategicUploader, {"strategic", "bittyrant"}},
    {&kMobileChurner, {"mobile", "churner"}},
};

}  // namespace

const PeerBehavior* find_behavior(std::string_view name) {
  // Names and aliases are spelled with '-'; a lookup may use '_'.
  std::string key(name);
  std::replace(key.begin(), key.end(), '_', '-');
  for (const CatalogEntry& entry : kCatalog) {
    if (key == entry.behavior->name() || key == entry.aliases[0] ||
        (!entry.aliases[1].empty() && key == entry.aliases[1])) {
      return entry.behavior;
    }
  }
  return nullptr;
}

const PeerBehavior& behavior_named(std::string_view name) {
  const PeerBehavior* b = find_behavior(name);
  BC_ASSERT_MSG(b != nullptr, "unknown behavior name");
  return *b;
}

std::vector<std::string> behavior_names() {
  std::vector<std::string> out;
  for (const CatalogEntry& entry : kCatalog) {
    out.emplace_back(entry.behavior->name());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace bc::community
