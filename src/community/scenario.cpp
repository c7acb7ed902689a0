#include "community/scenario.hpp"

#include <string>

#include "community/behavior.hpp"

namespace bc::community {

std::string ScenarioConfig::validate() const {
  const auto in_unit = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (!in_unit(freerider_fraction) || !in_unit(ignorer_fraction) ||
      !in_unit(liar_fraction)) {
    return "population fractions must be within [0, 1] (freerider=" +
           std::to_string(freerider_fraction) +
           ", ignorer=" + std::to_string(ignorer_fraction) +
           ", liar=" + std::to_string(liar_fraction) + ")";
  }
  if (ignorer_fraction + liar_fraction > freerider_fraction + 1e-9) {
    return "ignorer_fraction + liar_fraction (" +
           std::to_string(ignorer_fraction + liar_fraction) +
           ") exceeds freerider_fraction (" +
           std::to_string(freerider_fraction) +
           "); disobeying peers are drawn from the freerider population";
  }
  if (!population.empty()) {
    std::string error;
    const auto spec = PopulationSpec::parse(population, &error);
    if (!spec.has_value()) return "population spec: " + error;
    if (std::string invalid = spec->validate(); !invalid.empty()) {
      return "population spec: " + invalid;
    }
  }
  if (!in_unit(strategic_seed_fraction)) {
    return "strategic_seed_fraction must be within [0, 1], got " +
           std::to_string(strategic_seed_fraction);
  }
  if (!(mobile_churn_period > 0.0)) {
    return "mobile_churn_period must be positive, got " +
           std::to_string(mobile_churn_period);
  }
  if (!(mobile_duty_cycle > 0.0) || mobile_duty_cycle > 1.0) {
    return "mobile_duty_cycle must be within (0, 1], got " +
           std::to_string(mobile_duty_cycle);
  }
  if (liar_claimed_upload < 0 || sybil_claimed_upload < 0 ||
      slander_claimed_upload < 0) {
    return "claimed upload volumes must be non-negative";
  }
  if (seed_duration < 0.0) {
    return "seed_duration must be non-negative, got " +
           std::to_string(seed_duration);
  }
  if (threads != 1) {
    return "threads must be 1, got " + std::to_string(threads) +
           "; a simulation runs on one thread (DESIGN.md §10)";
  }
  return "";
}

}  // namespace bc::community
