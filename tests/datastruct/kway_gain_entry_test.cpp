// KWayGainEntry inside the gain containers: the target part is a payload,
// never part of the ordering, so the ordered container's O(1) max, LIFO tie
// order and assign_sorted bulk load behave exactly as they do for plain
// double gains (datastruct/kway_gain_entry.h).
#include "datastruct/kway_gain_entry.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "datastruct/ordered_gains.h"
#include "util/rng.h"

namespace prop {
namespace {

using GainTree = OrderedGains<KWayGainEntry, KWayGainEntryLess>;

TEST(KWayGainEntryTree, MaxPicksGainNotTarget) {
  GainTree t(8);
  t.insert(0, {1.0, 3});
  t.insert(1, {5.0, 0});
  t.insert(2, {-2.0, 7});
  EXPECT_EQ(t.max(), 1u);
  EXPECT_EQ(t.key(1).target, 0u);
  t.erase(1);
  EXPECT_EQ(t.max(), 0u);
  EXPECT_EQ(t.key(0).target, 3u);
}

TEST(KWayGainEntryTree, EqualGainsKeepLifoAcrossTargets) {
  // Ties compare equal regardless of target: the newest insert wins max(),
  // just like the 2-way double-keyed trees.
  GainTree t(8);
  t.insert(0, {2.0, 1});
  t.insert(1, {2.0, 5});
  t.insert(2, {2.0, 3});
  EXPECT_EQ(t.max(), 2u);
  t.erase(2);
  EXPECT_EQ(t.max(), 1u);
  t.erase(1);
  EXPECT_EQ(t.max(), 0u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(KWayGainEntryTree, SameGainNewTargetIsPayloadOnlyRewrite) {
  // update() whose gain still falls strictly between the in-order neighbors
  // takes the in-place fast path: position untouched, only the payload
  // changes.  This is the refiner's "best move redirected to a different
  // part at (locally unique) unchanged gain" case.
  GainTree t(8);
  t.insert(0, {1.0, 0});
  t.insert(1, {2.0, 0});
  EXPECT_EQ(t.max(), 1u);
  t.update(0, {1.0, 6});
  EXPECT_EQ(t.key(0).target, 6u);
  EXPECT_EQ(t.max(), 1u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(KWayGainEntryTree, EqualGainUpdateReinsertsAsNewest) {
  // When the updated gain ties an existing key the fast path is forbidden
  // (another handle holds the same key), so update() erases and re-inserts —
  // the updated handle becomes the newest tie and wins max().  The k-way
  // refiner relies on ordering ignoring the target either way.
  GainTree t(8);
  t.insert(0, {1.0, 0});
  t.insert(1, {1.0, 0});
  EXPECT_EQ(t.max(), 1u);
  t.update(0, {1.0, 6});
  EXPECT_EQ(t.key(0).target, 6u);
  EXPECT_EQ(t.max(), 0u);  // re-inserted, so 0 is now the newest tie
  EXPECT_TRUE(t.check_invariants());
}

TEST(KWayGainEntryTree, UpdateReordersOnGainChange) {
  GainTree t(8);
  t.insert(0, {1.0, 2});
  t.insert(1, {3.0, 1});
  t.update(0, {4.0, 5});
  EXPECT_EQ(t.max(), 0u);
  EXPECT_EQ(t.key(0).target, 5u);
  t.update(0, {-1.0, 5});
  EXPECT_EQ(t.max(), 1u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(KWayGainEntryTree, AssignSortedPreservesPayloadsAndMax) {
  // The pass-start bulk load: ascending by gain, newest-equal-gain last.
  GainTree t(16);
  std::vector<std::pair<KWayGainEntry, GainTree::Handle>> items = {
      {{-1.0, 2}, 4}, {{0.5, 1}, 2}, {{0.5, 3}, 7}, {{2.0, 0}, 1}};
  t.assign_sorted(items.data(), static_cast<std::uint32_t>(items.size()));
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.max(), 1u);
  EXPECT_EQ(t.key(1).target, 0u);
  EXPECT_EQ(t.key(7).target, 3u);
  EXPECT_TRUE(t.check_invariants());
  // Descending walk sees gains non-increasing with payloads intact.
  double last = 1e300;
  t.for_each_descending([&](GainTree::Handle h, const KWayGainEntry& e) {
    EXPECT_LE(e.gain, last);
    EXPECT_EQ(e.target, t.key(h).target);
    last = e.gain;
    return true;
  });
}

TEST(KWayGainEntryTree, RandomOpsMatchDoubleKeyedReference) {
  // Property: a KWayGainEntry tree ordered by gain behaves exactly like a
  // plain double-keyed tree on the same operation sequence — targets are
  // invisible to the structure.
  constexpr GainTree::Handle kCap = 120;
  GainTree entry_tree(kCap);
  OrderedGains<double> double_tree(kCap);
  Rng rng(4242);
  for (int op = 0; op < 8000; ++op) {
    const auto h = static_cast<GainTree::Handle>(rng.bounded(kCap));
    const double gain = rng.uniform() * 20.0 - 10.0;
    const auto target = static_cast<NodeId>(rng.bounded(16));
    if (!entry_tree.contains(h)) {
      entry_tree.insert(h, {gain, target});
      double_tree.insert(h, gain);
    } else if (rng.chance(0.4)) {
      entry_tree.erase(h);
      double_tree.erase(h);
    } else {
      entry_tree.update(h, {gain, target});
      double_tree.update(h, gain);
      ASSERT_EQ(entry_tree.key(h).target, target);
    }
    ASSERT_EQ(entry_tree.size(), double_tree.size());
    if (!entry_tree.empty()) {
      ASSERT_EQ(entry_tree.max(), double_tree.max());
    }
  }
  ASSERT_TRUE(entry_tree.check_invariants());
}

}  // namespace
}  // namespace prop
