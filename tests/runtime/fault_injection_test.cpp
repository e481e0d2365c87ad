// FaultInjector spec parsing and firing semantics.
#include "runtime/fault_injection.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace prop {
namespace {

TEST(FaultInjector, DefaultIsUnarmed) {
  FaultInjector inj;
  EXPECT_FALSE(inj.armed(FaultSite::kLanczosStall));
  EXPECT_FALSE(inj.should_fail(FaultSite::kLanczosStall));
  EXPECT_EQ(inj.query_count(FaultSite::kLanczosStall), 0u);
}

TEST(FaultInjector, EmptySpecArmsNothing) {
  FaultInjector inj("");
  for (int s = 0; s < kNumFaultSites; ++s) {
    EXPECT_FALSE(inj.armed(static_cast<FaultSite>(s)));
  }
}

TEST(FaultInjector, BareSiteFiresEveryQuery) {
  FaultInjector inj("lanczos-stall");
  EXPECT_TRUE(inj.armed(FaultSite::kLanczosStall));
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(inj.should_fail(FaultSite::kLanczosStall));
  EXPECT_EQ(inj.query_count(FaultSite::kLanczosStall), 5u);
  EXPECT_EQ(inj.fire_count(FaultSite::kLanczosStall), 5u);
  // Other sites stay unarmed.
  EXPECT_FALSE(inj.should_fail(FaultSite::kCgStall));
}

TEST(FaultInjector, OccurrenceFiresExactlyOnce) {
  FaultInjector inj("cancel-mid-pass@3");
  EXPECT_FALSE(inj.should_fail(FaultSite::kCancelMidPass));
  EXPECT_FALSE(inj.should_fail(FaultSite::kCancelMidPass));
  EXPECT_TRUE(inj.should_fail(FaultSite::kCancelMidPass));
  EXPECT_FALSE(inj.should_fail(FaultSite::kCancelMidPass));
  EXPECT_EQ(inj.fire_count(FaultSite::kCancelMidPass), 1u);
}

TEST(FaultInjector, CommaSeparatedEntriesArmIndependently) {
  FaultInjector inj("lanczos-stall,validate-fail@2,cg-stall");
  EXPECT_TRUE(inj.armed(FaultSite::kLanczosStall));
  EXPECT_TRUE(inj.armed(FaultSite::kValidateFail));
  EXPECT_TRUE(inj.armed(FaultSite::kCgStall));
  EXPECT_FALSE(inj.armed(FaultSite::kCancelMidPass));
  EXPECT_FALSE(inj.should_fail(FaultSite::kValidateFail));
  EXPECT_TRUE(inj.should_fail(FaultSite::kValidateFail));
}

TEST(FaultInjector, ProbabilityIsDeterministicPerSeed) {
  const auto fires = [](std::uint64_t seed) {
    FaultInjector inj("cancel-mid-pass~0.5", seed);
    std::uint64_t count = 0;
    for (int i = 0; i < 1000; ++i) {
      if (inj.should_fail(FaultSite::kCancelMidPass)) ++count;
    }
    return count;
  };
  EXPECT_EQ(fires(7), fires(7));  // same seed -> same firing pattern
  // ~0.5 should fire roughly half the time for any reasonable seed.
  const std::uint64_t n = fires(7);
  EXPECT_GT(n, 350u);
  EXPECT_LT(n, 650u);
}

TEST(FaultInjector, ZeroProbabilityNeverFires) {
  FaultInjector inj("cancel-mid-pass~0");
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.should_fail(FaultSite::kCancelMidPass));
  }
  EXPECT_EQ(inj.query_count(FaultSite::kCancelMidPass), 100u);
}

TEST(FaultInjector, RejectsUnknownSite) {
  EXPECT_THROW(FaultInjector("bogus-site"), std::invalid_argument);
  EXPECT_THROW(FaultInjector("lanczos-stall,nope@3"), std::invalid_argument);
  // Retired with PROP's drift fallback.
  EXPECT_THROW(FaultInjector("prop-drift"), std::invalid_argument);
}

TEST(FaultInjector, RejectsMalformedOccurrence) {
  EXPECT_THROW(FaultInjector("lanczos-stall@0"), std::invalid_argument);
  EXPECT_THROW(FaultInjector("lanczos-stall@-1"), std::invalid_argument);
  EXPECT_THROW(FaultInjector("lanczos-stall@abc"), std::invalid_argument);
  EXPECT_THROW(FaultInjector("lanczos-stall@"), std::invalid_argument);
}

TEST(FaultInjector, RejectsMalformedProbability) {
  EXPECT_THROW(FaultInjector("cg-stall~1.5"), std::invalid_argument);
  EXPECT_THROW(FaultInjector("cg-stall~-0.1"), std::invalid_argument);
  EXPECT_THROW(FaultInjector("cg-stall~x"), std::invalid_argument);
}

TEST(FaultInjector, SiteNamesRoundTrip) {
  EXPECT_STREQ(to_string(FaultSite::kLanczosStall), "lanczos-stall");
  EXPECT_STREQ(to_string(FaultSite::kCancelMidPass), "cancel-mid-pass");
  EXPECT_STREQ(to_string(FaultSite::kValidateFail), "validate-fail");
  EXPECT_STREQ(to_string(FaultSite::kCgStall), "cg-stall");
  EXPECT_STREQ(to_string(FaultSite::kServeExec), "serve-exec");
}

}  // namespace
}  // namespace prop
