// Gain-container key for native k-way refinement.
//
// The 2-way refiners keep one ordered container (ordered_gains.h) per side
// keyed by a plain double gain.  K-way refiners keep one container over all
// nodes, where each entry carries the node's best move: the gain of that
// move and the target part it goes to.  The k - 1 per-target gains are
// collapsed to the best one at insertion/refresh time (recomputing the
// runner-up lazily on selection is cheaper than keeping k - 1 live entries
// per node), so the container itself stays (k - 1)-agnostic and its O(1)
// max and O(n) assign_sorted fast paths keep working unchanged.
//
// Ordering compares gains only — the target rides along as a payload, so
// equal-gain entries keep the container's LIFO tie order regardless of
// target.
#pragma once

#include "hypergraph/hypergraph.h"

namespace prop {

struct KWayGainEntry {
  double gain = 0.0;
  NodeId target = 0;  ///< best target part for this node
};

struct KWayGainEntryLess {
  bool operator()(const KWayGainEntry& a,
                  const KWayGainEntry& b) const noexcept {
    return a.gain < b.gain;
  }
};

}  // namespace prop
