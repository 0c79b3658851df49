#include "offline/unit_optimal.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/assert.h"

namespace rtsmooth::offline {

namespace {

/// G over leaves [0, n) in a flat min/max tree of size = bit_ceil(n) leaves
/// (node k has children 2k and 2k+1, leaf j is node size + j). A node's
/// max_/min_ include its own pending add but not its ancestors'. Leaves past
/// n copy G(n-1): every update is a suffix add, so they keep equal to it.
///
/// In tree mode every node is exact; in flat mode only the leaves are.
/// Switching costs O(size) and happens only when the class kind changes.
class Curve {
 public:
  /// G(j) = step * j.
  Curve(std::size_t n, std::int64_t step)
      : size_(std::bit_ceil(n)), max_(2 * size_) {
    for (std::size_t j = 0; j < size_; ++j) {
      max_[size_ + j] = step * static_cast<std::int64_t>(std::min(j, n - 1));
    }
  }

  /// max G on [t+1, n) minus min G on [0, t], walking up from the adjacent
  /// leaves t and t+1. Tree mode.
  std::int64_t spread(std::size_t t) const {
    std::size_t lo = size_ + t;
    std::size_t hi = lo + 1;
    std::int64_t low = min_[lo];
    std::int64_t high = max_[hi];
    for (; lo > 1; lo >>= 1, hi >>= 1) {
      if ((lo & 1) != 0) low = std::min(low, min_[lo - 1]);
      if ((hi & 1) == 0) high = std::max(high, max_[hi + 1]);
      low += pending_[lo >> 1];
      high += pending_[hi >> 1];
    }
    return high - low;
  }

  /// Adds `delta` to G on [from, n): to leaf `from` and every right sibling
  /// on its path, re-pulling the path. Tree mode.
  void add_suffix(std::size_t from, std::int64_t delta) {
    std::size_t node = size_ + from;
    apply(node, delta);
    for (; node > 1; node >>= 1) {
      if ((node & 1) == 0) apply(node + 1, delta);
      const std::size_t up = node >> 1;
      max_[up] = pending_[up] + std::max(max_[2 * up], max_[2 * up + 1]);
      min_[up] = pending_[up] + std::min(min_[2 * up], min_[2 * up + 1]);
    }
  }

  /// Switches to flat mode and returns the leaves.
  std::span<std::int64_t> flatten() {
    if (!flat_) {
      for (std::size_t node = 1; node < size_; ++node) {
        apply(2 * node, pending_[node]);
        apply(2 * node + 1, pending_[node]);
        pending_[node] = 0;
      }
      flat_ = true;
    }
    return {max_.data() + size_, size_};
  }

  /// Switches to tree mode: rebuilds every inner node from the leaves.
  void build() {
    if (!flat_) return;
    // Tree mode only: a stream of dense classes never allocates these.
    min_.resize(max_.size());
    pending_.resize(max_.size());
    std::copy(max_.begin() + static_cast<std::ptrdiff_t>(size_), max_.end(),
              min_.begin() + static_cast<std::ptrdiff_t>(size_));
    for (std::size_t node = size_ - 1; node >= 1; --node) {
      max_[node] = std::max(max_[2 * node], max_[2 * node + 1]);
      min_[node] = std::min(min_[2 * node], min_[2 * node + 1]);
    }
    flat_ = false;
  }

 private:
  /// A leaf's pending add is never read.
  void apply(std::size_t node, std::int64_t delta) {
    max_[node] += delta;
    min_[node] += delta;
    pending_[node] += delta;
  }

  std::size_t size_;
  std::vector<std::int64_t> max_;
  std::vector<std::int64_t> min_;
  std::vector<std::int64_t> pending_;
  bool flat_ = true;
};

/// A trivially copyable sort key: std::stable_sort moves it by memcpy.
struct Ranked {
  double value;  ///< byte_value() of the run
  std::size_t index;
};

}  // namespace

OfflineResult unit_optimal(const Stream& stream, Bytes buffer, Bytes rate) {
  RTS_EXPECTS(buffer >= 1);
  RTS_EXPECTS(rate >= 1);
  RTS_EXPECTS(stream.unit_slices());
  OfflineResult result;
  result.accepted_per_run.assign(stream.run_count(), 0);
  if (stream.empty()) return result;

  // G has indices 0..horizon where G(j) = F(j-1), G(0) = 0. With nothing
  // accepted F(t) = -R*(t+1), so G(j) = -R*j: an affine ramp.
  const auto n = static_cast<std::size_t>(stream.horizon()) + 1;
  const auto depth = static_cast<std::size_t>(std::bit_width(n - 1));
  Curve g(n, -rate);

  // Greedy order: decreasing byte value, ties by arrival then index. Runs
  // are stored in arrival order, so a stable sort on the value gives it.
  const auto runs = stream.runs();
  std::vector<Ranked> order(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    order[i] = Ranked{.value = runs[i].byte_value(), .index = i};
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const Ranked& a, const Ranked& b) {
                     return a.value > b.value;
                   });

  // A run at t takes min(count, B - (max G[t+1..] - min G[..t])) slices.
  const auto accept = [&](std::size_t idx, std::int64_t spread) {
    const std::int64_t take =
        std::clamp<std::int64_t>(buffer - spread, 0, runs[idx].count);
    if (take == 0) return take;
    result.accepted_per_run[idx] = take;
    result.benefit += runs[idx].weight * static_cast<Weight>(take);
    result.accepted_bytes += take;  // unit slices: bytes == slices
    result.accepted_slices += take;
    return take;
  };

  std::vector<std::int64_t> suffix_max(n);
  for (std::size_t first = 0, last = 0; first < order.size(); first = last) {
    while (last < order.size() && order[last].value == order[first].value) {
      ++last;
    }
    if ((last - first) * depth < n) {  // sparse class: two walks per run
      g.build();
      for (std::size_t k = first; k < last; ++k) {
        const auto t = static_cast<std::size_t>(runs[order[k].index].arrival);
        const std::int64_t take = accept(order[k].index, g.spread(t));
        if (take > 0) g.add_suffix(t + 1, take);
      }
      continue;
    }
    // Dense class: one sweep in arrival order. Every earlier member arrived
    // at or before t, so G on [t+1, n) is the class-start G plus the total
    // taken; leaf v <= t has seen exactly the members arriving before v, so
    // it is raised by the running total when the prefix min reaches it.
    const std::span<std::int64_t> leaf = g.flatten();
    suffix_max[n - 1] = leaf[n - 1];
    for (std::size_t j = n - 1; j-- > 0;) {
      suffix_max[j] = std::max(suffix_max[j + 1], leaf[j]);
    }
    std::int64_t prefix_min = std::numeric_limits<std::int64_t>::max();
    std::int64_t taken = 0;
    std::size_t swept = 0;
    for (std::size_t k = first; k < last; ++k) {
      const auto t = static_cast<std::size_t>(runs[order[k].index].arrival);
      for (; swept <= t; ++swept) {
        leaf[swept] += taken;
        prefix_min = std::min(prefix_min, leaf[swept]);
      }
      taken += accept(order[k].index, suffix_max[t + 1] + taken - prefix_min);
    }
    for (; swept < leaf.size(); ++swept) leaf[swept] += taken;
  }
  return result;
}

}  // namespace rtsmooth::offline
