#include "obs/profile.hpp"

#include <chrono>
#include <vector>

namespace bc::obs {

namespace {

std::uint64_t now_nanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

ProfileSite& Profiler::site(std::string_view name) {
  if (auto it = sites_.find(name); it != sites_.end()) {
    return it->second;
  }
  auto [it, _] = sites_.emplace(std::string(name), ProfileSite{});
  it->second.name = it->first;
  return it->second;
}

std::vector<ProfileSite> Profiler::snapshot() const {
  std::vector<ProfileSite> out;
  out.reserve(sites_.size());
  for (const auto& [_, site] : sites_) out.push_back(site);
  return out;
}

std::size_t Profiler::num_sites() const { return sites_.size(); }

void Profiler::reset_values() {
  for (auto& [_, site] : sites_) {
    site.calls = 0;
    site.nanos = 0;
  }
}

ScopedTimer::ScopedTimer(ProfileSite& site, Profiler& profiler) {
  if (!profiler.enabled()) return;
  site_ = &site;
  ++site.depth;
  start_ = now_nanos();
}

ScopedTimer::~ScopedTimer() {
  if (site_ == nullptr) return;
  const std::uint64_t elapsed = now_nanos() - start_;
  ++site_->calls;
  if (--site_->depth == 0) site_->nanos += elapsed;
}

}  // namespace bc::obs
