// abort_on_violations: the fail-stop every audit site goes through.
#include <gtest/gtest.h>

#include "check/invariants.hpp"

namespace bc::check {
namespace {

TEST(AbortOnViolations, CleanReportReturns) {
  const Report clean;
  abort_on_violations("test.clean", clean);
  SUCCEED();
}

TEST(AbortOnViolationsDeathTest, ViolationPrintsSiteAndInvariantThenAborts) {
  Report broken;
  broken.fail("test.invariant", "synthetic violation");
  EXPECT_DEATH(abort_on_violations("test.site", broken),
               "bc::check audit 'test\\.site' failed:.*\\[test\\.invariant\\] "
               "synthetic violation");
}

}  // namespace
}  // namespace bc::check
