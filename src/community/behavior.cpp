#include "community/behavior.hpp"

#include <algorithm>
#include <cmath>

#include "bartercast/node.hpp"
#include "community/scenario.hpp"
#include "util/assert.hpp"

namespace bc::community {

Seconds PeerBehavior::seed_duration(const ScenarioConfig& config) const {
  // Sharers seed for the configured period (10 h in the paper §5.1);
  // freeriders "immediately leave the swarm after finishing a download".
  return freerider() ? 0.0 : config.seed_duration;
}

bartercast::BarterCastMessage PeerBehavior::make_message(
    const MessageContext& ctx) const {
  return ctx.node.make_message(ctx.now);
}

void PeerBehavior::shape_sessions(std::vector<trace::Session>& sessions,
                                  Rng& churn_rng) const {
  // Identity by default, and deliberately no churn_rng draws: scenarios
  // without churny behaviors must consume the exact RNG stream of the
  // original enum code.
  static_cast<void>(sessions);
  static_cast<void>(churn_rng);
}

std::optional<PopulationSpec> PopulationSpec::parse(std::string_view spec,
                                                    std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  PopulationSpec out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    std::string_view item = spec.substr(pos, comma - pos);
    // Trim surrounding spaces.
    while (!item.empty() && item.front() == ' ') item.remove_prefix(1);
    while (!item.empty() && item.back() == ' ') item.remove_suffix(1);
    if (item.empty()) {
      if (spec.empty() && out.entries.empty()) break;  // "" => empty spec
      return fail("empty population entry (stray comma?)");
    }
    const std::size_t colon = item.find(':');
    if (colon == std::string_view::npos || colon == 0 ||
        colon + 1 == item.size()) {
      return fail("population entry '" + std::string(item) +
                  "' is not name:fraction");
    }
    Entry entry;
    entry.name = std::string(item.substr(0, colon));
    const std::string frac(item.substr(colon + 1));
    char* end = nullptr;
    entry.fraction = std::strtod(frac.c_str(), &end);
    if (end == frac.c_str() || *end != '\0') {
      return fail("population fraction '" + frac + "' is not a number");
    }
    out.entries.push_back(std::move(entry));
    if (comma == spec.size()) break;
    pos = comma + 1;
  }
  return out;
}

std::string PopulationSpec::validate() const {
  double sum = 0.0;
  for (const Entry& e : entries) {
    if (find_behavior(e.name) == nullptr) {
      std::string known;
      for (std::string_view n : behavior_names()) {
        if (!known.empty()) known += ", ";
        known += n;
      }
      return "unknown behavior '" + e.name + "' (known: " + known + ")";
    }
    if (!(e.fraction >= 0.0) || !(e.fraction <= 1.0)) {
      return "population fraction for '" + e.name +
             "' must be within [0, 1], got " + std::to_string(e.fraction);
    }
    sum += e.fraction;
  }
  if (sum > 1.0 + 1e-9) {
    return "population fractions sum to " + std::to_string(sum) +
           " > 1; the remainder rule only fills missing sharers";
  }
  return "";
}

std::vector<PopulationSlice> PopulationSpec::slices(
    std::size_t num_peers) const {
  BC_ASSERT_MSG(validate().empty(), "invalid population spec");
  std::vector<PopulationSlice> out;
  out.reserve(entries.size());
  for (const Entry& e : entries) {
    PopulationSlice slice;
    slice.behavior = find_behavior(e.name);
    slice.count = static_cast<std::size_t>(
        std::lround(e.fraction * static_cast<double>(num_peers)));
    out.push_back(slice);
  }
  // Per-entry rounding can overshoot the population by a slot or two; trim
  // the later entries so the totals always fit (the fill behavior absorbs
  // the mirror case of undershoot).
  std::size_t total = 0;
  for (PopulationSlice& slice : out) {
    slice.count = std::min(slice.count, num_peers - total);
    total += slice.count;
  }
  return out;
}

std::vector<const PeerBehavior*> assign_population(
    std::size_t num_peers, const std::vector<PopulationSlice>& slices,
    const PeerBehavior& fill, Rng& rng) {
  // Counting down from the population size (instead of summing the slice
  // counts up) keeps every intermediate value inside [0, num_peers].
  std::size_t remaining = num_peers;
  for (const PopulationSlice& slice : slices) {
    BC_ASSERT(slice.behavior != nullptr);
    BC_ASSERT_MSG(slice.count <= remaining,
                  "population slices exceed the population size");
    remaining -= slice.count;
  }

  std::vector<const PeerBehavior*> out(num_peers, &fill);
  // One shuffled index vector; slice k takes the next count slots. This is
  // the exact RNG consumption of the original enum assignment (one
  // shuffle(n)), so legacy scenarios replay bit-identically.
  std::vector<std::size_t> idx(num_peers);
  for (std::size_t i = 0; i < num_peers; ++i) idx[i] = i;
  rng.shuffle(idx);
  std::size_t next = 0;
  for (const PopulationSlice& slice : slices) {
    for (std::size_t i = 0; i < slice.count; ++i) {
      out[idx[next]] = slice.behavior;
      ++next;
    }
  }
  return out;
}

std::vector<const PeerBehavior*> assign_behaviors(std::size_t num_peers,
                                                  double freerider_fraction,
                                                  double ignorer_fraction,
                                                  double liar_fraction,
                                                  Rng& rng) {
  BC_ASSERT(freerider_fraction >= 0.0 && freerider_fraction <= 1.0);
  BC_ASSERT(ignorer_fraction >= 0.0 && liar_fraction >= 0.0);
  BC_ASSERT_MSG(ignorer_fraction + liar_fraction <= freerider_fraction + 1e-9,
                "disobeying peers are drawn from the freerider population");

  const auto count = [&](double fraction) {
    return static_cast<std::size_t>(
        std::lround(fraction * static_cast<double>(num_peers)));
  };
  const std::size_t num_freeriders = count(freerider_fraction);
  const std::size_t num_ignorers = count(ignorer_fraction);
  const std::size_t num_liars = count(liar_fraction);
  BC_ASSERT(num_ignorers + num_liars <= num_freeriders);

  // The legacy §5.1/§5.4 split as slices. The original code painted
  // idx[0..freeriders) lazy and then overwrote the ignorer/liar prefixes;
  // expressing the final picture directly keeps the single shuffle and the
  // legacy counts (lazy = freeriders - ignorers - liars, NOT
  // lround(lazy_fraction * n), which can differ by a rounding slot).
  const std::vector<PopulationSlice> slices = {
      {&behavior_named("ignoring-freerider"), num_ignorers},
      {&behavior_named("lying-freerider"), num_liars},
      {&behavior_named("lazy-freerider"),
       num_freeriders - num_ignorers - num_liars},
  };
  return assign_population(num_peers, slices, behavior_named("sharer"), rng);
}

}  // namespace bc::community
