// Order oracle for the gain container: every operation is replayed on a
// naive ascending std::vector<(key, handle)> that encodes the container's
// observable contract, and the two must agree on the full handle sequence
// after every step.  The contract, which PROP's move trajectories (and so
// every golden digest) depend on:
//
//   * insert lands after every equal key (newest-last: max() is the most
//     recently inserted of equal keys, the paper's LIFO tie order);
//   * update() rewrites the key in place only when the new key is strictly
//     between its in-order neighbours, and otherwise erases and re-inserts
//     (so a tie moves the handle to the newest position);
//   * assign_sorted keeps the given item order;
//   * max/min/prev/next/for_each_descending walk that one sequence.
//
// Unlike a multiset comparison, this sees the tie order itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "datastruct/ordered_gains.h"
#include "datastruct/kway_gain_entry.h"
#include "util/rng.h"

namespace prop {
namespace {

using IntTree = OrderedGains<int>;
using EntryTree = OrderedGains<KWayGainEntry, KWayGainEntryLess>;

bool same_key(int a, int b) { return a == b; }
bool same_key(const KWayGainEntry& a, const KWayGainEntry& b) {
  return std::memcmp(&a.gain, &b.gain, sizeof(double)) == 0 &&
         a.target == b.target;
}

/// The naive sequence model plus a container driven in lockstep.
template <typename Tree, typename Key, typename Less>
class Lockstep {
 public:
  using Handle = typename Tree::Handle;
  using Item = std::pair<Key, Handle>;

  explicit Lockstep(Handle capacity) : tree_(capacity) {}

  Tree& tree() { return tree_; }
  const std::vector<Item>& model() const { return seq_; }

  bool contains(Handle h) const { return find(h) != seq_.size(); }

  void insert(Handle h, const Key& key) {
    tree_.insert(h, key);
    model_insert(h, key);
  }

  void erase(Handle h) {
    tree_.erase(h);
    seq_.erase(seq_.begin() + static_cast<std::ptrdiff_t>(find(h)));
  }

  void update(Handle h, const Key& key) {
    tree_.update(h, key);
    const std::size_t i = find(h);
    const bool after_prev = i == 0 || less_(seq_[i - 1].first, key);
    const bool before_next = i + 1 == seq_.size() || less_(key, seq_[i + 1].first);
    if (after_prev && before_next) {
      seq_[i].first = key;
      return;
    }
    seq_.erase(seq_.begin() + static_cast<std::ptrdiff_t>(i));
    model_insert(h, key);
  }

  void assign_sorted(const std::vector<Item>& items) {
    tree_.assign_sorted(items.data(), static_cast<std::uint32_t>(items.size()));
    seq_ = items;
  }

  void clear() {
    tree_.clear();
    seq_.clear();
  }

  /// Every observable of the container against the model.
  void check() {
    ASSERT_EQ(tree_.size(), seq_.size());
    ASSERT_EQ(tree_.empty(), seq_.empty());
    std::vector<Handle> walked;
    tree_.for_each_descending([&](Handle h, const Key& k) {
      walked.push_back(h);
      EXPECT_TRUE(same_key(k, tree_.key(h)));
      return true;
    });
    ASSERT_EQ(walked.size(), seq_.size());
    for (std::size_t i = 0; i < seq_.size(); ++i) {
      const Item& item = seq_[seq_.size() - 1 - i];
      ASSERT_EQ(walked[i], item.second) << "descending position " << i;
      ASSERT_TRUE(same_key(tree_.key(item.second), item.first));
    }
    if (seq_.empty()) return;
    ASSERT_EQ(tree_.max(), seq_.back().second);
    ASSERT_EQ(tree_.min(), seq_.front().second);
    for (std::size_t i = 0; i < seq_.size(); ++i) {
      const Handle h = seq_[i].second;
      ASSERT_TRUE(tree_.contains(h));
      ASSERT_EQ(tree_.prev(h), i == 0 ? Tree::kNull : seq_[i - 1].second);
      ASSERT_EQ(tree_.next(h),
                i + 1 == seq_.size() ? Tree::kNull : seq_[i + 1].second);
    }
  }

 private:
  std::size_t find(Handle h) const {
    for (std::size_t i = 0; i < seq_.size(); ++i) {
      if (seq_[i].second == h) return i;
    }
    return seq_.size();
  }

  void model_insert(Handle h, const Key& key) {
    const auto at = std::upper_bound(
        seq_.begin(), seq_.end(), key,
        [&](const Key& k, const Item& item) { return less_(k, item.first); });
    seq_.insert(at, {key, h});
  }

  Tree tree_;
  std::vector<Item> seq_;
  Less less_;
};

using IntLockstep = Lockstep<IntTree, int, std::less<int>>;
using EntryLockstep = Lockstep<EntryTree, KWayGainEntry, KWayGainEntryLess>;

/// Random insert/erase/update with keys from [-range, range]; a tiny range
/// makes ties the common case.
template <typename L, typename MakeKey>
void random_ops(L& l, typename L::Handle capacity, int ops, Rng& rng,
                MakeKey make_key) {
  for (int op = 0; op < ops; ++op) {
    const auto h = static_cast<typename L::Handle>(rng.bounded(capacity));
    if (!l.contains(h)) {
      l.insert(h, make_key(h));
    } else if (rng.chance(0.35)) {
      l.erase(h);
    } else {
      l.update(h, make_key(h));
    }
    ASSERT_NO_FATAL_FAILURE(l.check()) << "after op " << op;
    if (op % 64 == 0) {
      ASSERT_TRUE(l.tree().check_invariants());
    }
  }
  ASSERT_TRUE(l.tree().check_invariants());
}

TEST(GainOrderOracle, TinyIntRangeTiesEverywhere) {
  for (const int range : {0, 1, 3}) {
    constexpr IntTree::Handle kCap = 200;
    IntLockstep l(kCap);
    Rng rng(17 + static_cast<std::uint64_t>(range));
    random_ops(l, kCap, 6000, rng, [&](IntTree::Handle) {
      return static_cast<int>(rng.range(-range, range));
    });
  }
}

TEST(GainOrderOracle, WideIntRange) {
  constexpr IntTree::Handle kCap = 300;
  IntLockstep l(kCap);
  Rng rng(99);
  random_ops(l, kCap, 6000, rng, [&](IntTree::Handle) {
    return static_cast<int>(rng.range(-1000, 1000));
  });
}

TEST(GainOrderOracle, SmallDeltaChurnAroundHeldKeys) {
  // PROP-shaped churn: most updates nudge the handle's current key by a
  // small step, so the in-place rule and its tie fallback both fire often.
  constexpr IntTree::Handle kCap = 256;
  IntLockstep l(kCap);
  Rng rng(2024);
  for (IntTree::Handle h = 0; h < kCap; ++h) {
    l.insert(h, static_cast<int>(rng.range(-8, 8)));
  }
  for (int op = 0; op < 6000; ++op) {
    const auto h = static_cast<IntTree::Handle>(rng.bounded(kCap));
    if (!l.contains(h)) {
      l.insert(h, static_cast<int>(rng.range(-8, 8)));
    } else if (rng.chance(0.05)) {
      l.erase(h);
    } else {
      l.update(h, l.tree().key(h) + static_cast<int>(rng.range(-1, 1)));
    }
    ASSERT_NO_FATAL_FAILURE(l.check()) << "after op " << op;
  }
  ASSERT_TRUE(l.tree().check_invariants());
}

TEST(GainOrderOracle, KWayEntriesTargetOnlyUpdates) {
  // Gains from a tiny set; most updates keep the gain and change only the
  // target, which is a payload: in place when the gain is unique among the
  // neighbours, a re-insert as the newest tie otherwise.
  constexpr EntryTree::Handle kCap = 160;
  EntryLockstep l(kCap);
  Rng rng(4242);
  const double gains[] = {-1.5, 0.0, 0.25, 2.0};
  random_ops(l, kCap, 6000, rng, [&](EntryTree::Handle h) {
    const auto target = static_cast<NodeId>(rng.bounded(8));
    if (l.contains(h) && rng.chance(0.6)) {
      return KWayGainEntry{l.tree().key(h).gain, target};
    }
    return KWayGainEntry{gains[rng.bounded(4)], target};
  });
}

TEST(GainOrderOracle, AssignSortedKeepsEqualKeyOrderThenChurns) {
  constexpr IntTree::Handle kCap = 400;
  IntLockstep l(kCap);
  Rng rng(7);
  for (const std::uint32_t count : {0u, 1u, 7u, 33u, 257u, 400u}) {
    std::vector<IntLockstep::Item> items;
    for (std::uint32_t i = 0; i < count; ++i) {
      items.emplace_back(static_cast<int>(rng.range(-2, 2)),
                         static_cast<IntTree::Handle>((i * 37) % kCap));
    }
    std::stable_sort(items.begin(), items.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    l.assign_sorted(items);
    ASSERT_TRUE(l.tree().check_invariants());
    ASSERT_NO_FATAL_FAILURE(l.check());
    random_ops(l, kCap, 600, rng, [&](IntTree::Handle) {
      return static_cast<int>(rng.range(-2, 2));
    });
  }
}

TEST(GainOrderOracle, AssignSortedEntriesKeepPayloads) {
  constexpr EntryTree::Handle kCap = 100;
  EntryLockstep l(kCap);
  std::vector<EntryLockstep::Item> items;
  for (EntryTree::Handle h = 0; h < kCap; ++h) {
    items.push_back({{static_cast<double>(h / 30), h % 5}, kCap - 1 - h});
  }
  l.assign_sorted(items);
  ASSERT_NO_FATAL_FAILURE(l.check());
  ASSERT_TRUE(l.tree().check_invariants());
}

TEST(GainOrderOracle, ClearThenReuse) {
  constexpr IntTree::Handle kCap = 120;
  IntLockstep l(kCap);
  Rng rng(3);
  for (int round = 0; round < 4; ++round) {
    random_ops(l, kCap, 500, rng, [&](IntTree::Handle) {
      return static_cast<int>(rng.range(-4, 4));
    });
    l.clear();
    ASSERT_NO_FATAL_FAILURE(l.check());
    ASSERT_TRUE(l.tree().check_invariants());
  }
}

/// Inserts every handle with keys[h], then erases the max until empty,
/// checking the model after every step.
void insert_then_drain_max(const std::vector<int>& keys) {
  const auto n = static_cast<IntTree::Handle>(keys.size());
  IntLockstep l(n);
  for (IntTree::Handle h = 0; h < n; ++h) {
    l.insert(h, keys[h]);
    ASSERT_NO_FATAL_FAILURE(l.check()) << "insert " << h;
  }
  ASSERT_TRUE(l.tree().check_invariants());
  while (!l.model().empty()) {
    l.erase(l.tree().max());
    ASSERT_NO_FATAL_FAILURE(l.check()) << "drain at " << l.model().size();
  }
  ASSERT_TRUE(l.tree().check_invariants());
}

TEST(GainOrderOracle, AdversarialInsertOrders) {
  constexpr int kN = 600;
  std::vector<int> ascending(kN);
  std::vector<int> descending(kN);
  std::vector<int> equal(kN, 5);
  std::vector<int> sawtooth(kN);
  for (int i = 0; i < kN; ++i) {
    ascending[i] = i;
    descending[i] = kN - i;
    sawtooth[i] = i % 40;
  }
  insert_then_drain_max(ascending);
  insert_then_drain_max(descending);
  insert_then_drain_max(equal);
  insert_then_drain_max(sawtooth);
}

TEST(GainOrderOracle, EraseFromTheFrontAndMiddle) {
  constexpr IntTree::Handle kN = 500;
  IntLockstep l(kN);
  for (IntTree::Handle h = 0; h < kN; ++h) l.insert(h, static_cast<int>(h % 7));
  // Front (the min) first, then every third survivor by handle.
  for (int i = 0; i < 150; ++i) {
    l.erase(l.tree().min());
    ASSERT_NO_FATAL_FAILURE(l.check());
  }
  for (IntTree::Handle h = 0; h < kN; h += 3) {
    if (!l.contains(h)) continue;
    l.erase(h);
    ASSERT_NO_FATAL_FAILURE(l.check());
  }
  ASSERT_TRUE(l.tree().check_invariants());
}

}  // namespace
}  // namespace prop
