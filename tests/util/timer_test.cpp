#include "util/timer.h"

#include <gtest/gtest.h>

namespace prop {
namespace {

TEST(WallTimer, Monotonic) {
  WallTimer t;
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(CpuTimer, AdvancesUnderWork) {
  CpuTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 2000000; ++i) sink = sink + i * 0.5;
  EXPECT_GT(t.seconds(), 0.0);
}

TEST(TimingStats, Accumulates) {
  TimingStats s;
  s.add(1.0);
  s.add(3.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.total(), 6.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(TimingStats, EmptyIsZero) {
  TimingStats s;
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.count(), 0u);
}

}  // namespace
}  // namespace prop
