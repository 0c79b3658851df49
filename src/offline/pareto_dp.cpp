#include "offline/pareto_dp.h"

#include <algorithm>

#include "util/assert.h"

namespace rtsmooth::offline {
namespace {

/// A Pareto frontier is a vector of these, sorted with occupancy and weight
/// both strictly increasing: a state with no more occupancy and no less
/// weight than another dominates it, so at most one state survives per
/// occupancy and a heavier state never precedes a lighter one.
struct State {
  Bytes occ;
  Weight weight;
};

/// Appends `s` to a frontier being built in non-decreasing occupancy order
/// (on equal occupancy, the heavier state first) unless the last kept state
/// already dominates it.
void push_undominated(std::vector<State>& out, const State& s) {
  if (out.empty() || s.weight > out.back().weight) out.push_back(s);
}

/// Folds one slice into `frontier`, writing the next frontier to `out`.
/// Dropping the slice leaves the frontier as it is; keeping it shifts every
/// state by (size, weight), and the shifted states with occupancy within
/// `cap` form a prefix. Both lists are sorted, so one merge that skips
/// dominated states yields the next frontier.
void fold_slice(const std::vector<State>& frontier, Bytes size, Weight weight,
                Bytes cap, std::vector<State>& out) {
  out.clear();
  const std::size_t n = frontier.size();
  const auto fits = [&](const State& s) { return s.occ + size <= cap; };
  const auto kept = static_cast<std::size_t>(
      std::partition_point(frontier.begin(), frontier.end(), fits) -
      frontier.begin());
  const auto shifted = [&](std::size_t j) {
    return State{.occ = frontier[j].occ + size,
                 .weight = frontier[j].weight + weight};
  };
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < n && j < kept) {
    const State keep = shifted(j);
    const State& drop = frontier[i];
    if (drop.occ < keep.occ ||
        (drop.occ == keep.occ && drop.weight >= keep.weight)) {
      push_undominated(out, drop);
      ++i;
    } else {
      push_undominated(out, keep);
      ++j;
    }
  }
  for (; i < n; ++i) push_undominated(out, frontier[i]);
  for (; j < kept; ++j) push_undominated(out, shifted(j));
}

/// Work-conserving send of up to `rate` bytes from every state, in place.
/// max(0, occ - rate) is monotone, so the frontier stays sorted: the states
/// with occ <= rate all land on 0, where only the heaviest (the last of
/// them) survives, and the states left above `buffer` form a suffix.
void drain(std::vector<State>& frontier, Bytes buffer, Bytes rate) {
  auto from = std::partition_point(
      frontier.begin(), frontier.end(),
      [rate](const State& s) { return s.occ <= rate; });
  if (from != frontier.begin()) --from;
  auto to = frontier.begin();
  for (; from != frontier.end(); ++from) {
    const Bytes occ = std::max<Bytes>(0, from->occ - rate);
    if (occ > buffer) break;
    *to++ = State{.occ = occ, .weight = from->weight};
  }
  frontier.erase(to, frontier.end());
}

/// Core DP over the stream's slices, each size transformed by `resize`
/// (identity for the exact solver, the two roundings for the bracket). See
/// the header for the model: fold each slice as keep/drop with transient
/// cap buffer+rate, then drain `rate` and require post-send occupancy <=
/// buffer. Slices of one step are folded in run order.
template <typename Resize>
ParetoDpResult dp_core(const Stream& stream, Resize resize, Bytes buffer,
                       Bytes rate, std::size_t state_limit) {
  ParetoDpResult result;
  const Bytes transient_cap = buffer + rate;
  std::vector<State> frontier{State{.occ = 0, .weight = 0.0}};
  std::vector<State> scratch;
  const auto runs = stream.runs();
  std::size_t next = 0;
  for (Time t = 0; t < stream.horizon(); ++t) {
    for (; next < runs.size() && runs[next].arrival == t; ++next) {
      const SliceRun& run = runs[next];
      const Bytes size = resize(run.slice_size);
      for (std::int64_t k = 0; k < run.count; ++k) {
        fold_slice(frontier, size, run.weight, transient_cap, scratch);
        if (scratch.size() > state_limit) {
          // Keep the heaviest states, which are the last ones; every kept
          // state is still feasible, so the answer becomes a lower bound.
          const auto cut = scratch.size() - state_limit;
          scratch.erase(scratch.begin(),
                        scratch.begin() + static_cast<std::ptrdiff_t>(cut));
          result.exact = false;
        }
        frontier.swap(scratch);
        result.peak_states = std::max(result.peak_states, frontier.size());
      }
    }
    drain(frontier, buffer, rate);
    RTS_ASSERT(!frontier.empty());  // the all-drop state always survives
  }
  result.benefit = frontier.back().weight;
  return result;
}

}  // namespace

ParetoDpResult pareto_dp_optimal(const Stream& stream, Bytes buffer,
                                 Bytes rate, std::size_t state_limit) {
  RTS_EXPECTS(buffer >= 1);
  RTS_EXPECTS(rate >= 1);
  RTS_EXPECTS(state_limit >= 2);
  if (stream.empty()) return {};
  return dp_core(stream, [](Bytes s) { return s; }, buffer, rate, state_limit);
}

OptimalBracket quantized_optimal_bracket(const Stream& stream, Bytes buffer,
                                         Bytes rate, Bytes quantum) {
  RTS_EXPECTS(buffer >= 1);
  RTS_EXPECTS(rate >= 1);
  RTS_EXPECTS(quantum >= 1);
  OptimalBracket bracket{.quantum = quantum};
  if (stream.empty()) return bracket;

  // Pessimistic instance: sizes up, capacity down. Feasible there =>
  // feasible in truth (occupancies dominate step by step), so the DP value
  // is achievable.
  {
    const Bytes b = buffer / quantum;
    const Bytes r = rate / quantum;
    RTS_EXPECTS(b >= 1 && r >= 1);  // quantum must not erase the resources
    const auto up = [quantum](Bytes s) { return (s + quantum - 1) / quantum; };
    bracket.lower = dp_core(stream, up, b, r, 1u << 22).benefit;
  }
  // Optimistic instance: sizes down, capacity up. Every truly feasible
  // schedule stays feasible, so the DP value bounds the truth from above.
  {
    const Bytes b = (buffer + quantum - 1) / quantum;
    const Bytes r = (rate + quantum - 1) / quantum;
    const auto down = [quantum](Bytes s) { return s / quantum; };
    bracket.upper = dp_core(stream, down, b, r, 1u << 22).benefit;
  }
  RTS_ENSURES(bracket.lower <= bracket.upper + 1e-9);
  return bracket;
}

}  // namespace rtsmooth::offline
