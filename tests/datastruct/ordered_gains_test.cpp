// Unit and property tests of the ordered gain container.  The suite keeps
// the name of the paper's container (Sec. 3.5, a balanced AVL tree), whose
// observable order OrderedGains reproduces exactly; the full order
// contract is pinned by gain_order_oracle_test.cpp.
#include "datastruct/ordered_gains.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace prop {
namespace {

using Tree = OrderedGains<int>;

TEST(AvlTree, EmptyInvariants) {
  Tree t(16);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.check_invariants());
}

TEST(AvlTree, InsertAndMax) {
  Tree t(16);
  t.insert(3, 10);
  t.insert(5, 30);
  t.insert(7, 20);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.max(), 5u);
  EXPECT_EQ(t.key(5), 30);
  EXPECT_TRUE(t.check_invariants());
}

TEST(AvlTree, MinTracksSmallest) {
  Tree t(16);
  t.insert(0, 5);
  t.insert(1, -7);
  t.insert(2, 3);
  EXPECT_EQ(t.min(), 1u);
}

TEST(AvlTree, EraseLeafRootAndInner) {
  Tree t(16);
  for (Tree::Handle h = 0; h < 7; ++h) t.insert(h, static_cast<int>(h));
  t.erase(6);  // the max
  EXPECT_FALSE(t.contains(6));
  t.erase(3);  // an inner entry
  t.erase(0);  // the min
  EXPECT_EQ(t.size(), 4u);
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.max(), 5u);
}

TEST(AvlTree, UpdateMovesHandle) {
  Tree t(8);
  t.insert(1, 10);
  t.insert(2, 20);
  t.update(1, 30);
  EXPECT_EQ(t.max(), 1u);
  EXPECT_EQ(t.key(1), 30);
  EXPECT_TRUE(t.check_invariants());
}

TEST(AvlTree, DuplicateKeysLifoAtMax) {
  Tree t(8);
  t.insert(1, 7);
  t.insert(2, 7);
  t.insert(3, 7);
  EXPECT_EQ(t.max(), 3u);  // newest equal key wins
  t.erase(3);
  EXPECT_EQ(t.max(), 2u);
}

TEST(AvlTree, DescendingIterationSorted) {
  Tree t(32);
  Rng rng(5);
  for (Tree::Handle h = 0; h < 32; ++h) {
    t.insert(h, static_cast<int>(rng.bounded(10)));
  }
  int last = 1 << 30;
  int count = 0;
  t.for_each_descending([&](Tree::Handle, int k) {
    EXPECT_LE(k, last);
    last = k;
    ++count;
    return true;
  });
  EXPECT_EQ(count, 32);
}

TEST(AvlTree, DescendingIterationEarlyExit) {
  Tree t(8);
  for (Tree::Handle h = 0; h < 8; ++h) t.insert(h, static_cast<int>(h));
  int seen = 0;
  t.for_each_descending([&](Tree::Handle, int) { return ++seen < 3; });
  EXPECT_EQ(seen, 3);
}

TEST(AvlTree, ClearResets) {
  Tree t(8);
  t.insert(1, 5);
  t.insert(2, 6);
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.contains(1));
  t.insert(1, 9);
  EXPECT_EQ(t.max(), 1u);
}

/// Property test: random interleaving of insert/erase/update matches a
/// reference std::multiset, and the container invariants hold throughout.
TEST(AvlTree, RandomOpsMatchMultiset) {
  constexpr Tree::Handle kCap = 300;
  Tree t(kCap);
  std::map<Tree::Handle, int> reference;  // handle -> key
  Rng rng(12345);

  for (int op = 0; op < 20000; ++op) {
    const auto h = static_cast<Tree::Handle>(rng.bounded(kCap));
    const int key = static_cast<int>(rng.range(-50, 50));
    if (!t.contains(h)) {
      t.insert(h, key);
      reference[h] = key;
    } else if (rng.chance(0.5)) {
      t.erase(h);
      reference.erase(h);
    } else {
      t.update(h, key);
      reference[h] = key;
    }

    ASSERT_EQ(t.size(), reference.size());
    if (op % 500 == 0) {
      ASSERT_TRUE(t.check_invariants());
    }
    if (!reference.empty()) {
      int max_key = reference.begin()->second;
      for (const auto& [rh, rk] : reference) max_key = std::max(max_key, rk);
      ASSERT_EQ(t.key(t.max()), max_key);
    }
  }
  ASSERT_TRUE(t.check_invariants());

  // Full descending drain must be the sorted multiset of keys.
  std::multiset<int, std::greater<>> expect_keys;
  for (const auto& [rh, rk] : reference) expect_keys.insert(rk);
  auto it = expect_keys.begin();
  t.for_each_descending([&](Tree::Handle, int k) {
    EXPECT_EQ(k, *it);
    ++it;
    return true;
  });
  EXPECT_EQ(it, expect_keys.end());
}

TEST(AvlTree, SequentialInsertStaysBalancedShallow) {
  // Adversarial ascending inserts always land in the last block, so every
  // split leaves a half-full block behind.  check_invariants() verifies the
  // block-fill bounds (at most kBlock entries per block, at least kMinFill
  // when there is more than one block); then erasing every other handle
  // drives blocks below kMinFill and through merges and borrows.
  constexpr Tree::Handle kCap = 4096;
  Tree t(kCap);
  for (Tree::Handle h = 0; h < kCap; ++h) {
    t.insert(h, static_cast<int>(h));
  }
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.max(), kCap - 1);
  EXPECT_EQ(t.min(), 0u);
  for (Tree::Handle h = 0; h < kCap; h += 2) t.erase(h);
  EXPECT_TRUE(t.check_invariants());
  EXPECT_EQ(t.size(), kCap / 2);
  EXPECT_EQ(t.min(), 1u);
}

/// Regression guard for the predecessor-walk direction (a right child with
/// no left subtree must step to its parent; a left child must climb):
/// descending iteration must visit every node exactly once for adversarial
/// insertion orders.
TEST(AvlTree, PrevVisitsEveryNodeOnceAllShapes) {
  const auto check_full_walk = [](const std::vector<int>& keys) {
    Tree t(static_cast<Tree::Handle>(keys.size()));
    for (Tree::Handle h = 0; h < keys.size(); ++h) {
      t.insert(h, keys[h]);
    }
    std::vector<char> seen(keys.size(), 0);
    int count = 0;
    int last = 1 << 30;
    t.for_each_descending([&](Tree::Handle h, int k) {
      EXPECT_FALSE(seen[h]) << "handle visited twice";
      seen[h] = 1;
      EXPECT_LE(k, last);
      last = k;
      ++count;
      return true;
    });
    EXPECT_EQ(count, static_cast<int>(keys.size()));
  };
  check_full_walk({1, 2, 3, 4, 5, 6, 7});        // ascending
  check_full_walk({7, 6, 5, 4, 3, 2, 1});        // descending
  check_full_walk({4, 2, 6, 1, 3, 5, 7});        // balanced
  check_full_walk({1, 7, 2, 6, 3, 5, 4});        // zigzag
  check_full_walk({5, 5, 5, 5, 5});              // all duplicates
  check_full_walk({2, 1, 2, 1, 3, 3, 2});        // mixed duplicates
}

TEST(AvlTree, PrevFromMaxReachesMin) {
  Tree t(64);
  Rng rng(99);
  for (Tree::Handle h = 0; h < 64; ++h) {
    t.insert(h, static_cast<int>(rng.range(-20, 20)));
  }
  Tree::Handle cur = t.max();
  Tree::Handle last = cur;
  int steps = 0;
  while (cur != Tree::kNull) {
    last = cur;
    cur = t.prev(cur);
    ASSERT_LE(++steps, 64);
  }
  EXPECT_EQ(steps, 64);
  EXPECT_EQ(last, t.min());
}

TEST(OrderedGains, RejectsCapacityBeyondSlotRange) {
  // Pool slots are 32-bit: the constructor refuses, before it allocates
  // anything, a capacity whose pool would not fit.
  EXPECT_THROW(Tree(Tree::Handle{1} << 31), std::length_error);
}

TEST(AvlTree, DoubleKeysWork) {
  OrderedGains<double> t(8);
  t.insert(0, 1.5);
  t.insert(1, -0.25);
  t.insert(2, 1.5000001);
  EXPECT_EQ(t.max(), 2u);
}

}  // namespace
}  // namespace prop
