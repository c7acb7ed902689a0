#include "obs/profile.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace bc::obs {
namespace {

TEST(ObsProfiler, SiteFindOrCreate) {
  Profiler p;
  ProfileSite& s = p.site("maxflow.two_hop");
  EXPECT_EQ(s.name, "maxflow.two_hop");
  EXPECT_EQ(s.calls, 0u);
  EXPECT_EQ(s.nanos, 0u);
  EXPECT_EQ(&p.site("maxflow.two_hop"), &s);
  EXPECT_EQ(p.num_sites(), 1u);
}

TEST(ObsProfiler, DisabledTimerRecordsNothing) {
  Profiler p;
  ProfileSite& s = p.site("cold");
  ASSERT_FALSE(p.enabled());
  {
    const ScopedTimer t(s, p);
  }
  EXPECT_EQ(s.calls, 0u);
  EXPECT_EQ(s.nanos, 0u);
}

TEST(ObsProfiler, EnabledTimerCountsCallsAndTime) {
  Profiler p;
  p.set_enabled(true);
  ProfileSite& s = p.site("hot");
  for (int i = 0; i < 3; ++i) {
    const ScopedTimer t(s, p);
  }
  EXPECT_EQ(s.calls, 3u);
  // steady_clock may report 0ns for an empty scope; only non-negativity and
  // the call count are guaranteed.
}

TEST(ObsProfiler, NestedDistinctSitesBothRecord) {
  Profiler p;
  p.set_enabled(true);
  ProfileSite& outer = p.site("outer");
  ProfileSite& inner = p.site("inner");
  {
    const ScopedTimer to(outer, p);
    for (int i = 0; i < 100; ++i) {
      const ScopedTimer ti(inner, p);
    }
  }
  EXPECT_EQ(outer.calls, 1u);
  EXPECT_EQ(inner.calls, 100u);
  // Inclusive attribution: the outer scope contains all inner scopes.
  EXPECT_GE(outer.nanos, inner.nanos);
}

TEST(ObsProfiler, RecursiveReentryCountsCallsOnceTime) {
  Profiler p;
  p.set_enabled(true);
  ProfileSite& s = p.site("recursive");
  {
    const ScopedTimer a(s, p);
    {
      const ScopedTimer b(s, p);
      {
        const ScopedTimer c(s, p);
      }
    }
    // Inner frames counted their calls but did not add time yet: the
    // site's open-frame depth was still > 0 when they exited.
    EXPECT_EQ(s.calls, 2u);
    const std::uint64_t nanos_before_outermost_exit = s.nanos;
    EXPECT_EQ(nanos_before_outermost_exit, 0u);
  }
  EXPECT_EQ(s.calls, 3u);
}

TEST(ObsProfiler, EnableStateIsSampledAtScopeEntry) {
  Profiler p;
  ProfileSite& s = p.site("toggled");
  {
    const ScopedTimer t(s, p);  // constructed while disabled
    p.set_enabled(true);
  }
  EXPECT_EQ(s.calls, 0u);  // attributed per the state at entry
  {
    const ScopedTimer t(s, p);  // constructed while enabled
    p.set_enabled(false);
  }
  EXPECT_EQ(s.calls, 1u);
}

TEST(ObsProfiler, SnapshotIsNameSorted) {
  Profiler p;
  p.set_enabled(true);
  { const ScopedTimer t(p.site("zz"), p); }
  { const ScopedTimer t(p.site("aa"), p); }
  { const ScopedTimer t(p.site("mm"), p); }
  const std::vector<ProfileSite> snap = p.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "aa");
  EXPECT_EQ(snap[1].name, "mm");
  EXPECT_EQ(snap[2].name, "zz");
}

TEST(ObsProfiler, ResetValuesKeepsSiteReferences) {
  Profiler p;
  p.set_enabled(true);
  ProfileSite& s = p.site("kept");
  { const ScopedTimer t(s, p); }
  ASSERT_EQ(s.calls, 1u);
  p.reset_values();
  EXPECT_EQ(p.num_sites(), 1u);
  EXPECT_EQ(s.calls, 0u);
  EXPECT_EQ(s.nanos, 0u);
  { const ScopedTimer t(s, p); }
  EXPECT_EQ(p.site("kept").calls, 1u);
}

TEST(ObsProfiler, ScopeMacroCompilesAndUsesGlobalInstance) {
  // The macro binds to Profiler::instance(); leave the global profiler in
  // whatever state it was (other tests may share the process) and only
  // check that the macro registers the site.
  const bool was_enabled = Profiler::instance().enabled();
  Profiler::instance().set_enabled(true);
  {
    BC_OBS_SCOPE("obs_test.macro_site");
  }
  Profiler::instance().set_enabled(was_enabled);
  EXPECT_GE(Profiler::instance().site("obs_test.macro_site").calls, 1u);
}

}  // namespace
}  // namespace bc::obs
