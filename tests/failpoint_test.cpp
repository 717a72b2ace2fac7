// Tests for the process-wide failpoint registry (util/failpoint.h): spec
// parsing, mode semantics, hit accounting, and the cheap disarmed path.
//
// The registry is process-global state; every test clears it on entry and
// exit (RAII guard), and a test that counts hits counts from a baseline taken
// at its start, because clear() disarms but keeps hit counts. So order and
// repetition never matter. ctest runs each test in its own process anyway —
// this matters for running the whole binary at once.
#include <gtest/gtest.h>

#include <chrono>

#include "util/failpoint.h"

namespace syccl::util {
namespace {

struct RegistryGuard {
  RegistryGuard() { Failpoints::instance().clear(); }
  ~RegistryGuard() { Failpoints::instance().clear(); }
};

TEST(FailpointRegistry, DisarmedSiteReturnsNulloptAndCountsNothing) {
  RegistryGuard guard;
  EXPECT_FALSE(Failpoints::instance().any_enabled());
  EXPECT_EQ(failpoint("test.never_armed"), std::nullopt);
  EXPECT_EQ(Failpoints::instance().hits("test.never_armed"), 0u);
}

TEST(FailpointRegistry, ErrorModeThrowsFailpointErrorAtTheSite) {
  RegistryGuard guard;
  // clear() keeps hit counts, so count from what earlier tests left.
  const auto before = Failpoints::instance().hits("test.err");
  Failpoints::instance().enable("test.err", "error");
  EXPECT_TRUE(Failpoints::instance().any_enabled());
  EXPECT_THROW(failpoint("test.err"), FailpointError);
  EXPECT_EQ(Failpoints::instance().hits("test.err"), before + 1);
  // Persistent: fires on every evaluation until disarmed.
  EXPECT_THROW(failpoint("test.err"), FailpointError);
  Failpoints::instance().disable("test.err");
  EXPECT_EQ(failpoint("test.err"), std::nullopt);
  EXPECT_EQ(Failpoints::instance().hits("test.err"), before + 2);
}

TEST(FailpointRegistry, TornWriteReturnsByteBudgetToTheSite) {
  RegistryGuard guard;
  Failpoints::instance().enable("test.torn", "torn:16");
  const auto action = failpoint("test.torn");
  ASSERT_TRUE(action.has_value());
  EXPECT_EQ(action->mode, FailpointMode::TornWrite);
  EXPECT_EQ(action->bytes, 16u);
}

TEST(FailpointRegistry, EintrBudgetDecaysToDisarmed) {
  RegistryGuard guard;
  const auto before = Failpoints::instance().hits("test.eintr");
  Failpoints::instance().enable("test.eintr", "eintr:3");
  for (int i = 0; i < 3; ++i) {
    const auto action = failpoint("test.eintr");
    ASSERT_TRUE(action.has_value()) << "storm attempt " << i;
    EXPECT_EQ(action->mode, FailpointMode::Eintr);
  }
  // Budget exhausted: the site proceeds normally.
  EXPECT_EQ(failpoint("test.eintr"), std::nullopt);
  EXPECT_EQ(Failpoints::instance().hits("test.eintr"), before + 3);
}

TEST(FailpointRegistry, DelayModeSleepsInline) {
  RegistryGuard guard;
  Failpoints::instance().enable("test.delay", "delay:30");
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(failpoint("test.delay"), std::nullopt);  // applied centrally
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(30));
}

TEST(FailpointRegistry, BudgetedCrashReturnsActionForTheSite) {
  RegistryGuard guard;
  // crash:<N> must NOT exit here — only the write site, after persisting N
  // bytes, is allowed to pull the trigger.
  Failpoints::instance().enable("test.crash", "crash:8");
  const auto action = failpoint("test.crash");
  ASSERT_TRUE(action.has_value());
  EXPECT_EQ(action->mode, FailpointMode::Crash);
  EXPECT_EQ(action->bytes, 8u);
}

TEST(FailpointRegistry, EnableListParsesSemicolonSeparatedSpecs) {
  RegistryGuard guard;
  Failpoints::instance().enable_list("test.a=error;test.b=torn:4;test.c=off");
  const auto enabled = Failpoints::instance().enabled();
  EXPECT_EQ(enabled.size(), 2u);
  EXPECT_THROW(failpoint("test.a"), FailpointError);
  const auto b = failpoint("test.b");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->bytes, 4u);
  EXPECT_EQ(failpoint("test.c"), std::nullopt);
}

TEST(FailpointRegistry, OffDisarmsAndClearResetsEverything) {
  RegistryGuard guard;
  Failpoints::instance().enable("test.x", "error");
  Failpoints::instance().enable("test.x", "off");
  EXPECT_EQ(failpoint("test.x"), std::nullopt);

  Failpoints::instance().enable("test.y", "error");
  Failpoints::instance().clear();
  EXPECT_FALSE(Failpoints::instance().any_enabled());
  EXPECT_EQ(failpoint("test.y"), std::nullopt);
}

TEST(FailpointRegistry, MalformedSpecsThrowInvalidArgument) {
  RegistryGuard guard;
  for (const char* bad : {"", "bogus", "torn", "torn:", "torn:x", "torn:-1", "eintr:",
                          "delay:notanumber", "delay:999999999", "crash:abc", "error:5"}) {
    EXPECT_THROW(Failpoints::instance().enable("test.bad", bad), std::invalid_argument) << bad;
  }
  // A failed enable must not leave the point half-armed.
  EXPECT_EQ(failpoint("test.bad"), std::nullopt);
  for (const char* bad_list : {"noequals", "=error"}) {
    Failpoints::instance().clear();
    EXPECT_THROW(Failpoints::instance().enable_list(bad_list), std::invalid_argument)
        << bad_list;
  }
  // Empty segments (trailing/double semicolons) are tolerated, not errors.
  Failpoints::instance().clear();
  EXPECT_NO_THROW(Failpoints::instance().enable_list("test.a=error;;test.b=error;"));
  EXPECT_EQ(Failpoints::instance().enabled().size(), 2u);
}

}  // namespace
}  // namespace syccl::util
