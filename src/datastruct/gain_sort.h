// Stable LSD radix sort of gain-keyed items: the pass-start order in which
// the refiners bulk-load their gain containers (OrderedGains::assign_sorted).
//
// The refiners stage one (gain, node) item per node in ascending node order
// and need them ascending by (gain, node), so equal gains keep node order
// and the container's LIFO tie order is fixed deterministically.  A stable
// sort on the gain alone gives exactly that order, in eight counting passes
// over the items instead of a comparison sort's n log n.  The sort key is
// the gain's bit pattern mapped so that unsigned order is floating-point
// order, with -0.0 folded into +0.0 (the two compare equal, so a
// comparison sort orders them by node too).  Gains must not be NaN.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

namespace prop {

/// Unsigned key with the order of the double `gain`: gain_sort_key(a) <
/// gain_sort_key(b) iff a < b, for any non-NaN a and b (±inf and
/// subnormals included); -0.0 and +0.0 share one key.
inline std::uint64_t gain_sort_key(double gain) noexcept {
  const std::uint64_t bits =
      std::bit_cast<std::uint64_t>(gain == 0.0 ? 0.0 : gain);
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

/// Sorts `items` ascending by gain_of(item), stably, using `scratch`
/// (at least items.size() long) as the second buffer of the passes.
/// Allocates nothing.
template <typename Item, typename GainOf>
void stable_sort_by_gain(std::span<Item> items, std::span<Item> scratch,
                         GainOf gain_of) {
  constexpr int kDigitBits = 8;
  constexpr int kPasses = 64 / kDigitBits;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  const std::size_t n = items.size();
  if (n < 2) return;
  assert(scratch.size() >= n);
  const auto digit = [&](const Item& item, int pass) {
    return static_cast<std::size_t>(
        (gain_sort_key(gain_of(item)) >> (kDigitBits * pass)) & (kBuckets - 1));
  };
  std::array<std::array<std::size_t, kBuckets>, kPasses> count{};
  for (const Item& item : items) {
    for (int pass = 0; pass < kPasses; ++pass) ++count[pass][digit(item, pass)];
  }
  Item* src = items.data();
  Item* dst = scratch.data();
  for (int pass = 0; pass < kPasses; ++pass) {
    std::array<std::size_t, kBuckets>& offset = count[pass];
    // A digit every key shares leaves the order as it is.
    if (offset[digit(src[0], pass)] == n) continue;
    std::size_t sum = 0;
    for (std::size_t& c : offset) sum += std::exchange(c, sum);
    for (std::size_t i = 0; i < n; ++i) {
      dst[offset[digit(src[i], pass)]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != items.data()) std::copy(src, src + n, items.data());
}

}  // namespace prop
