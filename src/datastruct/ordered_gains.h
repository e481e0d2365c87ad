// Handle-based ordered gain container — the ordered container the paper
// prescribes for PROP and for FM under non-unit net costs ("we ... store
// nodes, according to their gains, in a balanced binary AVL tree",
// Sec. 3.5).  What the algorithms depend on is the order the container
// exposes, not the shape of a tree, so this is a two-level blocked sorted
// sequence with exactly the AVL tree's observable order:
//
//   * entries are kept ascending by key; among equal keys the most
//     recently inserted handle comes last, so max() breaks ties LIFO, the
//     tie order FM-family implementations traditionally use;
//   * update() rewrites a key in place only when the new key is strictly
//     between its in-order neighbours, and otherwise erases and re-inserts
//     (so a tie makes the handle the newest of its key);
//   * assign_sorted keeps the given item order;
//   * max/min/prev/next/for_each_descending walk that one sequence.
//
// Layout: contiguous blocks of at most kBlock (key, handle) entries, each
// block sorted and the blocks in sequence order; a small array of each
// block's first key, searched branch-free to find the block a key belongs
// in; a handle -> slot map (its block and position there) and a per-handle
// key array, so key(h), contains(h) and finding h's entry are O(1).  A full block splits in half; a block that drops
// below kMinFill (half a block) borrows from a neighbour, or merges with it
// when the two cannot both keep kMinFill entries.  With
// n = size(), insert/erase/update are O(kBlock + log(n / kBlock)) plus an
// O(n / kBlock) shift of the first-key array on a split or merge;
// max/min/prev/next are O(1) and a descending walk is O(1) per entry.  Every block but a lone one holds at least kMinFill entries, so
// at most capacity / kMinFill + 1 blocks (about 2 * capacity entries) are
// ever in use: the pool is allocated once, in the constructor, and no
// operation allocates.  The order is pinned against a naive sequence model
// by tests/datastruct/gain_order_oracle_test.cpp.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace prop {

template <typename Key, typename Compare = std::less<Key>>
class OrderedGains {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNull = static_cast<Handle>(-1);

  /// Entries per block at most; a full block splits into two halves.
  static constexpr std::uint32_t kBlock = 32;
  /// Entries per block at least, whenever there is more than one block:
  /// half a block, so the pool holds at most 2 * capacity entries.
  static constexpr std::uint32_t kMinFill = kBlock / 2;
  /// Entries per block after assign_sorted: room for kBlock - kLoadFill
  /// inserts and kLoadFill - kMinFill erases before a block changes.
  static constexpr std::uint32_t kLoadFill = kBlock * 3 / 4;

  explicit OrderedGains(Handle capacity, Compare cmp = Compare())
      : cmp_(cmp),
        max_blocks_(pool_blocks(capacity)),
        keys_(capacity),
        slot_of_(capacity, kNoSlot),
        entry_keys_(std::make_unique_for_overwrite<Key[]>(
            static_cast<std::size_t>(max_blocks_) * kBlock)),
        entry_handles_(std::make_unique_for_overwrite<Handle[]>(
            static_cast<std::size_t>(max_blocks_) * kBlock)),
        block_size_(max_blocks_, 0),
        rank_(max_blocks_, 0),
        first_(max_blocks_),
        order_(max_blocks_, 0),
        free_(max_blocks_, 0) {
    reset_blocks(1);
  }

  Handle capacity() const noexcept { return static_cast<Handle>(keys_.size()); }
  std::uint32_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool contains(Handle h) const noexcept { return slot_of_[h] != kNoSlot; }
  const Key& key(Handle h) const noexcept { return keys_[h]; }

  void clear() {
    if (size_ == 0) return;
    unmark_all();
    reset_blocks(1);
    size_ = 0;
  }

  /// Inserts handle h with the given key, after every equal key.  h must
  /// not be present.
  void insert(Handle h, Key key) {
    assert(!contains(h));
    std::uint32_t r = rank_for(key);
    if (block_size_[order_[r]] == kBlock) {
      split(r);
      if (!cmp_(key, first_[r + 1])) ++r;
    }
    const std::uint32_t b = order_[r];
    const std::uint32_t pos = upper_bound_in(b, key);
    insert_at(b, pos, key, h);
    if (pos == 0) first_[r] = key;
    keys_[h] = std::move(key);
    ++size_;
  }

  /// Removes handle h.  h must be present.
  void erase(Handle h) {
    assert(contains(h));
    erase_at(block(h), index(h));
  }

  /// Changes the key of handle h.  Fast path: when the new key still falls
  /// *strictly* between h's in-order neighbours, h's position in the
  /// sequence is unchanged and the key is rewritten in place.  The strict
  /// bounds mean no other handle holds the new key, so LIFO tie order is
  /// unaffected; ties (and genuine reorderings) fall back to erase +
  /// insert.  This is the hot operation of the refiners' delta updates,
  /// where most gain changes are small.
  void update(Handle h, Key key) {
    assert(contains(h));
    const std::uint32_t b = block(h);
    const std::uint32_t i = index(h);
    const std::uint32_t r = rank_[b];
    const Key* keys = block_keys(b);
    const bool after_prev =
        i > 0 ? cmp_(keys[i - 1], key)
              : r == 0 || cmp_(last_key(order_[r - 1]), key);
    if (after_prev) {
      const bool before_next =
          i + 1 < block_size_[b]
              ? cmp_(key, keys[i + 1])
              : r + 1 == blocks_ || cmp_(key, first_[r + 1]);
      if (before_next) {
        if (i == 0) first_[r] = key;
        entry_keys_[slot(b, i)] = key;
        keys_[h] = std::move(key);
        return;
      }
    }
    // The new position is in the same block when the key sorts before the
    // next block's first key and not before this block's first key once h
    // is gone (or this is the first block): one shift within the block
    // then does what erase + insert would do to the sequence.
    const bool same_block =
        (r + 1 == blocks_ || cmp_(key, first_[r + 1])) &&
        (r == 0 || !cmp_(key, keys[i == 0 ? 1 : 0]));
    if (!same_block) {
      erase_at(b, i);
      insert(h, std::move(key));
      return;
    }
    // upper_bound_in counts h's old entry when it sorts <= key.
    std::uint32_t p = upper_bound_in(b, key);
    if (p > i) --p;
    Key* ks = entry_keys_.get() + slot(b, 0);
    Handle* hs = entry_handles_.get() + slot(b, 0);
    if (p > i) {
      std::move(ks + i + 1, ks + p + 1, ks + i);
      std::move(hs + i + 1, hs + p + 1, hs + i);
    } else if (p < i) {
      std::move_backward(ks + p, ks + i, ks + i + 1);
      std::move_backward(hs + p, hs + i, hs + i + 1);
    }
    ks[p] = key;
    hs[p] = h;
    renumber(b, std::min(i, p), std::max(i, p) + 1);
    if (i == 0 || p == 0) first_[r] = ks[0];
    keys_[h] = std::move(key);
  }

  /// Loads the container with `items`, which must be sorted ascending by
  /// key, stably: among equal keys the "newest" handle comes last.  The
  /// sequence (and hence max()/prev()/next()/LIFO tie order — everything
  /// observable) is exactly what inserting the items oldest-first would
  /// produce, in O(count) copies into blocks filled to kLoadFill.  This is
  /// the pass-start bulk load of the refiners.
  void assign_sorted(const std::pair<Key, Handle>* items,
                     std::uint32_t count) {
    assert(count <= capacity());
    unmark_all();
    // ceil(count / kLoadFill) blocks, but never one below kMinFill.
    const std::uint32_t blocks = std::max<std::uint32_t>(
        1, std::min((count + kLoadFill - 1) / kLoadFill, count / kMinFill));
    reset_blocks(blocks);
    const std::uint32_t base = count / blocks;
    const std::uint32_t extra = count % blocks;
    std::uint32_t next = 0;
    for (std::uint32_t b = 0; b < blocks; ++b) {
      const std::uint32_t n = base + (b < extra ? 1 : 0);
      for (std::uint32_t i = 0; i < n; ++i, ++next) {
        const Handle h = items[next].second;
        entry_keys_[slot(b, i)] = items[next].first;
        entry_handles_[slot(b, i)] = h;
        keys_[h] = items[next].first;
        slot_of_[h] = static_cast<std::uint32_t>(slot(b, i));
      }
      block_size_[b] = n;
      if (n > 0) first_[b] = entry_keys_[slot(b, 0)];
    }
    size_ = count;
  }

  /// Handle with the maximum key (ties: most recently inserted).
  /// Container must be non-empty.  O(1).
  Handle max() const noexcept {
    assert(!empty());
    const std::uint32_t b = order_[blocks_ - 1];
    return entry_handles_[slot(b, block_size_[b] - 1)];
  }

  /// Handle with the minimum key (ties: least recently inserted).
  /// Container must be non-empty.  O(1).
  Handle min() const noexcept {
    assert(!empty());
    return entry_handles_[slot(order_[0], 0)];
  }

  /// In-order predecessor of h (next handle in descending key order), or
  /// kNull at the minimum.
  Handle prev(Handle h) const noexcept {
    const std::uint32_t b = block(h);
    const std::uint32_t i = index(h);
    if (i > 0) return entry_handles_[slot(b, i - 1)];
    const std::uint32_t r = rank_[b];
    if (r == 0) return kNull;
    const std::uint32_t pb = order_[r - 1];
    return entry_handles_[slot(pb, block_size_[pb] - 1)];
  }

  /// In-order successor of h (next handle in ascending key order), or
  /// kNull at the maximum.
  Handle next(Handle h) const noexcept {
    const std::uint32_t b = block(h);
    const std::uint32_t i = index(h);
    if (i + 1 < block_size_[b]) return entry_handles_[slot(b, i + 1)];
    const std::uint32_t r = rank_[b];
    if (r + 1 == blocks_) return kNull;
    return entry_handles_[slot(order_[r + 1], 0)];
  }

  /// Visits handles in descending key order while `visit` returns true.
  /// `visit` must not modify the container.
  template <typename Visitor>
  void for_each_descending(Visitor&& visit) const {
    for (std::uint32_t r = blocks_; r-- > 0;) {
      const std::uint32_t b = order_[r];
      for (std::uint32_t i = block_size_[b]; i-- > 0;) {
        if (!visit(entry_handles_[slot(b, i)], entry_keys_[slot(b, i)])) {
          return;
        }
      }
    }
  }

  /// Validation helper for tests and audits: checks the sequence order
  /// within and across blocks, the first-key array, the block-fill bounds
  /// (at most kBlock entries per block, at least kMinFill whenever there
  /// is more than one block), the rank/order and handle -> slot maps, the
  /// per-handle keys and the size.  O(capacity).
  bool check_invariants() const {
    if (blocks_ == 0 || blocks_ > max_blocks_) return false;
    std::uint32_t counted = 0;
    for (std::uint32_t r = 0; r < blocks_; ++r) {
      const std::uint32_t b = order_[r];
      const std::uint32_t n = block_size_[b];
      if (rank_[b] != r || n > kBlock) return false;
      if (blocks_ > 1 && n < kMinFill) return false;
      if (n > 0 && !equivalent(first_[r], entry_keys_[slot(b, 0)])) {
        return false;
      }
      if (r > 0 && cmp_(first_[r], last_key(order_[r - 1]))) return false;
      for (std::uint32_t i = 0; i < n; ++i) {
        const Handle h = entry_handles_[slot(b, i)];
        if (h >= capacity() || slot_of_[h] != slot(b, i)) return false;
        if (!equivalent(keys_[h], entry_keys_[slot(b, i)])) return false;
        if (i > 0 &&
            cmp_(entry_keys_[slot(b, i)], entry_keys_[slot(b, i - 1)])) {
          return false;
        }
      }
      counted += n;
    }
    if (counted != size_) return false;
    std::uint32_t marked = 0;
    for (const std::uint32_t s : slot_of_) marked += s != kNoSlot ? 1 : 0;
    return marked == size_;
  }

 private:
  /// Blocks the pool holds for `capacity` handles; throws when a pool slot
  /// index would not fit in 32 bits.
  static std::uint32_t pool_blocks(Handle capacity) {
    const std::uint64_t blocks = capacity / kMinFill + 1;
    if (blocks * kBlock >= kNoSlot) {
      throw std::length_error("OrderedGains: capacity too large");
    }
    return static_cast<std::uint32_t>(blocks);
  }

  static std::size_t slot(std::uint32_t b, std::uint32_t i) noexcept {
    return static_cast<std::size_t>(b) * kBlock + i;
  }

  const Key* block_keys(std::uint32_t b) const noexcept {
    return entry_keys_.get() + slot(b, 0);
  }

  const Key& last_key(std::uint32_t b) const noexcept {
    return entry_keys_[slot(b, block_size_[b] - 1)];
  }

  bool equivalent(const Key& a, const Key& b) const {
    return !cmp_(a, b) && !cmp_(b, a);
  }

  /// Rank of the block a new key belongs in: the last block whose first
  /// key is <= key (so the key lands after every equal key), or 0.
  /// Branch-free binary search over the first-key array.
  std::uint32_t rank_for(const Key& key) const noexcept {
    const Key* base = first_.data();
    std::uint32_t len = blocks_;
    while (len > 1) {
      const std::uint32_t half = len / 2;
      base = cmp_(key, base[half]) ? base : base + half;
      len -= half;
    }
    return static_cast<std::uint32_t>(base - first_.data());
  }

  /// Position in block b after every entry with a key <= key.
  std::uint32_t upper_bound_in(std::uint32_t b, const Key& key) const noexcept {
    const std::uint32_t n = block_size_[b];
    if (n == 0) return 0;
    const Key* keys = block_keys(b);
    const Key* base = keys;
    std::uint32_t len = n;
    while (len > 1) {
      const std::uint32_t half = len / 2;
      base = cmp_(key, base[half]) ? base : base + half;
      len -= half;
    }
    return static_cast<std::uint32_t>(base - keys) + (cmp_(key, *base) ? 0 : 1);
  }

  /// Block and position of present handle h.
  std::uint32_t block(Handle h) const noexcept { return slot_of_[h] / kBlock; }
  std::uint32_t index(Handle h) const noexcept { return slot_of_[h] % kBlock; }

  /// Points the handles of entries [from, to) of block b at their slots.
  void renumber(std::uint32_t b, std::uint32_t from, std::uint32_t to) {
    for (std::uint32_t j = from; j < to; ++j) {
      slot_of_[entry_handles_[slot(b, j)]] =
          static_cast<std::uint32_t>(slot(b, j));
    }
  }

  void insert_at(std::uint32_t b, std::uint32_t pos, const Key& key, Handle h) {
    const std::size_t at = slot(b, pos);
    const std::size_t end = slot(b, block_size_[b]);
    std::move_backward(entry_keys_.get() + at, entry_keys_.get() + end,
                       entry_keys_.get() + end + 1);
    std::move_backward(entry_handles_.get() + at,
                       entry_handles_.get() + end,
                       entry_handles_.get() + end + 1);
    entry_keys_[at] = key;
    entry_handles_[at] = h;
    ++block_size_[b];
    renumber(b, pos, block_size_[b]);
  }

  /// Removes entry i of block b, then restores the block-fill invariant.
  void erase_at(std::uint32_t b, std::uint32_t i) {
    slot_of_[entry_handles_[slot(b, i)]] = kNoSlot;
    --size_;
    const std::size_t at = slot(b, i);
    const std::size_t end = slot(b, block_size_[b]);
    std::move(entry_keys_.get() + at + 1, entry_keys_.get() + end,
              entry_keys_.get() + at);
    std::move(entry_handles_.get() + at + 1, entry_handles_.get() + end,
              entry_handles_.get() + at);
    const std::uint32_t n = --block_size_[b];
    renumber(b, i, n);
    const std::uint32_t r = rank_[b];
    if (i == 0 && n > 0) first_[r] = entry_keys_[slot(b, 0)];
    if (n < kMinFill && blocks_ > 1) refill(r);
  }

  /// Block at rank r fell below kMinFill: even it out with a neighbour when
  /// the pair can give both kMinFill entries, otherwise merge the pair
  /// (fewer than 2 * kMinFill entries fit in one block).
  void refill(std::uint32_t r) {
    const std::uint32_t lr = r + 1 < blocks_ ? r : r - 1;
    const std::uint32_t left = order_[lr];
    const std::uint32_t right = order_[lr + 1];
    const std::uint32_t nl = block_size_[left];
    const std::uint32_t nr = block_size_[right];
    if (nl + nr < 2 * kMinFill) {
      move_entries(right, 0, left, nl, nr);
      block_size_[left] = nl + nr;
      block_size_[right] = 0;
      first_[lr] = entry_keys_[slot(left, 0)];
      remove_block(lr + 1);
      return;
    }
    const std::uint32_t want_left = (nl + nr) / 2;
    if (nl < want_left) {
      // Right's first entries move to the end of left.
      const std::uint32_t moved = want_left - nl;
      move_entries(right, 0, left, nl, moved);
      shift_down(right, moved);
    } else {
      // Left's last entries move to the front of right.
      const std::uint32_t moved = nl - want_left;
      shift_up(right, moved);
      move_entries(left, want_left, right, 0, moved);
    }
    block_size_[left] = want_left;
    block_size_[right] = nl + nr - want_left;
    renumber(right, 0, block_size_[right]);
    first_[lr] = entry_keys_[slot(left, 0)];
    first_[lr + 1] = entry_keys_[slot(right, 0)];
  }

  /// Splits the full block at rank r; its upper half becomes a new block at
  /// rank r + 1.
  void split(std::uint32_t r) {
    const std::uint32_t b = order_[r];
    const std::uint32_t nb = add_block(r + 1);
    const std::uint32_t keep = kBlock / 2;
    move_entries(b, keep, nb, 0, kBlock - keep);
    block_size_[b] = keep;
    block_size_[nb] = kBlock - keep;
    first_[r + 1] = entry_keys_[slot(nb, 0)];
  }

  /// Copies entries [from_i, from_i + n) of block `from` to [to_i, ...) of
  /// block `to` and points their handles at `to`.
  void move_entries(std::uint32_t from, std::uint32_t from_i, std::uint32_t to,
                    std::uint32_t to_i, std::uint32_t n) {
    for (std::uint32_t j = 0; j < n; ++j) {
      const Handle h = entry_handles_[slot(from, from_i + j)];
      entry_keys_[slot(to, to_i + j)] = entry_keys_[slot(from, from_i + j)];
      entry_handles_[slot(to, to_i + j)] = h;
      slot_of_[h] = static_cast<std::uint32_t>(slot(to, to_i + j));
    }
  }

  /// Drops the first n entries of block b (its size is set by the caller).
  void shift_down(std::uint32_t b, std::uint32_t n) {
    const std::size_t at = slot(b, 0);
    const std::size_t end = slot(b, block_size_[b]);
    std::move(entry_keys_.get() + at + n, entry_keys_.get() + end,
              entry_keys_.get() + at);
    std::move(entry_handles_.get() + at + n, entry_handles_.get() + end,
              entry_handles_.get() + at);
  }

  /// Opens n free slots at the front of block b.
  void shift_up(std::uint32_t b, std::uint32_t n) {
    const std::size_t at = slot(b, 0);
    const std::size_t end = slot(b, block_size_[b]);
    std::move_backward(entry_keys_.get() + at, entry_keys_.get() + end,
                       entry_keys_.get() + end + n);
    std::move_backward(entry_handles_.get() + at,
                       entry_handles_.get() + end,
                       entry_handles_.get() + end + n);
  }

  /// Takes a free block and opens rank r for it.
  std::uint32_t add_block(std::uint32_t r) {
    assert(free_count_ > 0);
    const std::uint32_t b = free_[--free_count_];
    for (std::uint32_t j = blocks_; j > r; --j) {
      order_[j] = order_[j - 1];
      first_[j] = first_[j - 1];
      rank_[order_[j]] = j;
    }
    order_[r] = b;
    rank_[b] = r;
    block_size_[b] = 0;
    ++blocks_;
    return b;
  }

  /// Closes rank r and returns its (empty) block to the free list.
  void remove_block(std::uint32_t r) {
    free_[free_count_++] = order_[r];
    --blocks_;
    for (std::uint32_t j = r; j < blocks_; ++j) {
      order_[j] = order_[j + 1];
      first_[j] = first_[j + 1];
      rank_[order_[j]] = j;
    }
  }

  /// Marks every stored handle absent.
  void unmark_all() {
    for (std::uint32_t r = 0; r < blocks_; ++r) {
      const std::uint32_t b = order_[r];
      for (std::uint32_t i = 0; i < block_size_[b]; ++i) {
        slot_of_[entry_handles_[slot(b, i)]] = kNoSlot;
      }
    }
  }

  /// Blocks 0..blocks-1 in rank order, the rest free (lowest id on top, so
  /// a pass touches as few blocks as it needs).
  void reset_blocks(std::uint32_t blocks) {
    blocks_ = blocks;
    for (std::uint32_t b = 0; b < blocks; ++b) {
      order_[b] = b;
      rank_[b] = b;
      block_size_[b] = 0;
    }
    free_count_ = max_blocks_ - blocks;
    for (std::uint32_t j = 0; j < free_count_; ++j) {
      free_[j] = max_blocks_ - 1 - j;
    }
  }

  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  Compare cmp_;
  std::uint32_t max_blocks_;
  std::vector<Key> keys_;               // per-handle key
  std::vector<std::uint32_t> slot_of_;  // per-handle pool slot or kNoSlot
  // Block pool: block b's entries are slots [b * kBlock, b * kBlock + size).
  // Left uninitialized: only slots below a block's size are ever read, so
  // construction pays no fill for blocks a run never uses.
  std::unique_ptr<Key[]> entry_keys_;
  std::unique_ptr<Handle[]> entry_handles_;
  std::vector<std::uint32_t> block_size_;
  std::vector<std::uint32_t> rank_;  // block -> position in order_
  // Blocks in sequence order, with each one's first key.
  std::vector<Key> first_;
  std::vector<std::uint32_t> order_;
  std::uint32_t blocks_ = 0;
  std::vector<std::uint32_t> free_;  // stack of unused blocks
  std::uint32_t free_count_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace prop
