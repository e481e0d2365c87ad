// Differential test of the refiners' pass-start sort: stable_sort_by_gain
// over items staged in node order must give exactly the (gain, node) order
// std::sort gives, item for item and bit for bit, on the gains that make a
// bit-pattern sort go wrong: ±0.0, subnormals, ±inf, ±max and heavy ties.
#include "datastruct/gain_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace prop {
namespace {

using Item = std::pair<double, std::uint32_t>;

/// Gains drawn from the special values, a few tied values and random
/// doubles of every magnitude.
double awkward_gain(Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min() / 4,
                             -std::numeric_limits<double>::min() / 3,
                             std::numeric_limits<double>::min(),
                             kInf,
                             -kInf,
                             std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::max(),
                             1.0,
                             -1.0,
                             0.5};
  switch (rng.bounded(3)) {
    case 0:
      return specials[rng.bounded(sizeof(specials) / sizeof(specials[0]))];
    case 1:
      return static_cast<double>(rng.range(-3, 3)) * 0.25;  // ties
    default: {
      // Any finite double: random sign, exponent and mantissa bits.
      double d = 0.0;
      do {
        constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
        d = std::bit_cast<double>(rng.bounded(kSign) |
                                  (rng.chance(0.5) ? kSign : 0));
      } while (!std::isfinite(d));
      return d;
    }
  }
}

void expect_same_items(const std::vector<Item>& got, const std::vector<Item>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].second, want[i].second) << "position " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].first),
              std::bit_cast<std::uint64_t>(want[i].first))
        << "position " << i;
  }
}

void sort_items(std::vector<Item>& items, std::vector<Item>& scratch) {
  stable_sort_by_gain(std::span(items), std::span(scratch),
                      [](const Item& it) { return it.first; });
}

TEST(GainSort, KeyOrderIsDoubleOrder) {
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const double a = awkward_gain(rng);
    const double b = awkward_gain(rng);
    ASSERT_EQ(gain_sort_key(a) < gain_sort_key(b), a < b) << a << " vs " << b;
    ASSERT_EQ(gain_sort_key(a) == gain_sort_key(b), a == b) << a << " vs " << b;
  }
  EXPECT_EQ(gain_sort_key(-0.0), gain_sort_key(0.0));
}

TEST(GainSort, MatchesStdSortOnNodeOrderedStaging) {
  Rng rng(77);
  std::vector<Item> scratch(5000);
  for (const std::uint32_t n : {0u, 1u, 2u, 3u, 17u, 256u, 257u, 5000u}) {
    for (int round = 0; round < 4; ++round) {
      std::vector<Item> items;
      for (std::uint32_t u = 0; u < n; ++u) items.emplace_back(awkward_gain(rng), u);
      std::vector<Item> want = items;
      std::sort(want.begin(), want.end());
      sort_items(items, scratch);
      ASSERT_NO_FATAL_FAILURE(expect_same_items(items, want)) << "n " << n;
    }
  }
}

TEST(GainSort, StableOnShuffledInput) {
  // Input in arbitrary order: equal gains (±0.0 included) keep input order,
  // as std::stable_sort by gain keeps it.
  Rng rng(91);
  std::vector<Item> items;
  for (std::uint32_t i = 0; i < 3000; ++i) items.emplace_back(awkward_gain(rng), i);
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.bounded(i)]);
  }
  std::vector<Item> want = items;
  std::stable_sort(want.begin(), want.end(),
                   [](const Item& a, const Item& b) { return a.first < b.first; });
  std::vector<Item> scratch(items.size());
  sort_items(items, scratch);
  expect_same_items(items, want);
}

TEST(GainSort, AllEqualAndAllZeroKeepOrder) {
  std::vector<Item> scratch(600);
  for (const double g : {0.0, -0.0, 2.5}) {
    std::vector<Item> items;
    for (std::uint32_t u = 0; u < 600; ++u) {
      // Alternate the sign of zero: both are one key.
      items.emplace_back(g == 0.0 && u % 2 ? -g : g, u);
    }
    const std::vector<Item> want = items;
    sort_items(items, scratch);
    expect_same_items(items, want);
  }
}

TEST(GainSort, SortsASubrangeWithALongerScratch) {
  // The 2-way refiner sorts each side's part of one staging buffer: the
  // items outside the subrange stay as they are.
  Rng rng(3);
  std::vector<Item> items;
  for (std::uint32_t u = 0; u < 1000; ++u) items.emplace_back(awkward_gain(rng), u);
  const std::vector<Item> before = items;
  std::vector<Item> scratch(items.size());
  const std::span<Item> all(items);
  const auto middle = all.subspan(200, 500);
  stable_sort_by_gain(middle, std::span(scratch),
                      [](const Item& it) { return it.first; });
  std::vector<Item> want(before.begin() + 200, before.begin() + 700);
  std::sort(want.begin(), want.end());
  expect_same_items(std::vector<Item>(middle.begin(), middle.end()), want);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i >= 200 && i < 700) continue;
    ASSERT_EQ(items[i].second, before[i].second);
  }
}

}  // namespace
}  // namespace prop
