// Classic FM bucket structure (Fiduccia–Mattheyses 1982).
//
// Integer gains in [-max_gain, +max_gain] index an array of doubly-linked
// lists of node handles; a max-gain cursor makes "extract best" amortized
// O(1) across a pass.  Links live in flat per-handle arrays, so insert,
// erase and gain updates are true O(1) with no allocation.  Valid only for
// unit net costs (integer gains); the ordered container (ordered_gains.h)
// covers the weighted case, exactly as the paper discusses in Sec. 4.
#pragma once

#include <cstdint>
#include <vector>

namespace prop {

class BucketList {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNull = static_cast<Handle>(-1);

  /// `capacity` handles, gains clamped to [-max_gain, +max_gain].
  BucketList(Handle capacity, int max_gain);

  std::uint32_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool contains(Handle h) const noexcept { return in_list_[h] != 0; }
  int gain(Handle h) const noexcept { return gain_[h]; }
  int max_gain_bound() const noexcept { return max_gain_; }

  /// Target part riding along with h's gain (k-way refiners store the best
  /// move's destination here; 2-way users can ignore it — it defaults to 0).
  std::uint32_t target(Handle h) const noexcept { return target_[h]; }

  void clear();

  /// Inserts h with the given gain (LIFO within its bucket).  h must not be
  /// present; gain must be within the bound.  `target` is the payload
  /// returned by target(h) — the best move's destination part for k-way
  /// refiners.
  void insert(Handle h, int gain, std::uint32_t target = 0);

  /// Removes h; it must be present.
  void erase(Handle h);

  /// Changes h's gain and target payload (no-op when both are unchanged).
  void update(Handle h, int new_gain, std::uint32_t target = 0);

  /// Handle with the maximum gain (most recently inserted first).
  /// Structure must be non-empty.  Non-const on purpose: selection tightens
  /// the lazy max-gain cursor (`top_`), a real mutation — hiding it behind
  /// `const` + const_cast was a logical-const violation that turns into a
  /// data race the moment a "read-only" list is shared across threads.
  Handle best() noexcept;

  /// Highest-gain handle satisfying `pred`, or kNull if none does.  Scans
  /// buckets downward; used for balance-constrained selection with
  /// non-uniform node sizes.  Like best(), tightens the lazy max-gain
  /// cursor past empty buckets so repeated selections stay amortized O(1)
  /// (and is therefore non-const, see best()).
  template <typename Pred>
  Handle best_where(Pred&& pred) {
    bool tightened = false;
    for (int g = top_; g >= -max_gain_; --g) {
      const Handle head = buckets_[index(g)];
      if (head == kNull) continue;
      if (!tightened) {
        top_ = g;
        tightened = true;
      }
      for (Handle h = head; h != kNull; h = next_[h]) {
        if (pred(h)) return h;
      }
    }
    if (!tightened) top_ = -max_gain_;
    return kNull;
  }

 private:
  std::size_t index(int gain) const noexcept {
    return static_cast<std::size_t>(gain + max_gain_);
  }

  int max_gain_;
  std::vector<Handle> buckets_;      // head per gain value
  std::vector<Handle> next_;         // per handle
  std::vector<Handle> prev_;         // per handle
  std::vector<int> gain_;            // per handle
  std::vector<std::uint32_t> target_;  // per handle: best-move destination
  std::vector<std::uint8_t> in_list_;
  int top_;  // highest possibly non-empty bucket
  std::uint32_t size_ = 0;
};

}  // namespace prop
