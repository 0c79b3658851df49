// Unit and cross-validation tests for the off-line solvers: the two
// feasibility forms, the polymatroid greedy (unit slices) against its
// recursive-tree reference, the Pareto DP (variable slices), and the
// brute-force oracle tying them all together.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <utility>

#include "analysis/competitive.h"
#include "offline/brute_force.h"
#include "offline/feasibility.h"
#include "offline/pareto_dp.h"
#include "offline/unit_optimal.h"
#include "random_instances.h"
#include "stream_helpers.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"
#include "util/rng.h"

namespace rtsmooth {
namespace {

using offline::arrivals_of;
using offline::brute_force_optimal;
using offline::ByteArrivals;
using offline::feasible;
using offline::feasible_interval_form;
using offline::lindley_peak;
using offline::pareto_dp_optimal;
using offline::unit_optimal;
using testing::slice;
using testing::stream_of;
using testing::units;

// ----------------------------------------- unit-slice reference (oracle)

/// The recursive range-add / range-min / range-max segment tree the
/// unit-slice greedy used before its flat suffix tree, kept with
/// reference_unit_optimal as the differential reference.
class RangeAddTree {
 public:
  /// Tree over indices [0, n), starting at base + step * i.
  RangeAddTree(std::size_t n, std::int64_t base, std::int64_t step)
      : n_(n), nodes_(4 * n) {
    build(1, 0, n_ - 1, base, step);
  }

  /// Adds `delta` to every index in [lo, hi] (inclusive).
  void add(std::size_t lo, std::size_t hi, std::int64_t delta) {
    add(1, 0, n_ - 1, lo, hi, delta);
  }

  /// Max / min over [lo, hi] (inclusive).
  std::int64_t range_max(std::size_t lo, std::size_t hi) const {
    return query(1, 0, n_ - 1, lo, hi, 0, true);
  }
  std::int64_t range_min(std::size_t lo, std::size_t hi) const {
    return query(1, 0, n_ - 1, lo, hi, 0, false);
  }

 private:
  struct Node {
    std::int64_t max = 0;
    std::int64_t min = 0;
    std::int64_t pending = 0;  ///< add applying to the whole subtree
  };

  void build(std::size_t node, std::size_t lo, std::size_t hi,
             std::int64_t base, std::int64_t step) {
    if (lo == hi) {
      nodes_[node].max = nodes_[node].min =
          base + step * static_cast<std::int64_t>(lo);
      return;
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    build(2 * node, lo, mid, base, step);
    build(2 * node + 1, mid + 1, hi, base, step);
    nodes_[node].max = std::max(nodes_[2 * node].max, nodes_[2 * node + 1].max);
    nodes_[node].min = std::min(nodes_[2 * node].min, nodes_[2 * node + 1].min);
  }

  void add(std::size_t node, std::size_t node_lo, std::size_t node_hi,
           std::size_t lo, std::size_t hi, std::int64_t delta) {
    if (hi < node_lo || node_hi < lo) return;
    Node& n = nodes_[node];
    if (lo <= node_lo && node_hi <= hi) {
      n.pending += delta;
      n.max += delta;
      n.min += delta;
      return;
    }
    const std::size_t mid = node_lo + (node_hi - node_lo) / 2;
    add(2 * node, node_lo, mid, lo, hi, delta);
    add(2 * node + 1, mid + 1, node_hi, lo, hi, delta);
    const Node& left = nodes_[2 * node];
    const Node& right = nodes_[2 * node + 1];
    n.max = n.pending + std::max(left.max, right.max);
    n.min = n.pending + std::min(left.min, right.min);
  }

  std::int64_t query(std::size_t node, std::size_t node_lo,
                     std::size_t node_hi, std::size_t lo, std::size_t hi,
                     std::int64_t acc, bool want_max) const {
    if (hi < node_lo || node_hi < lo) {
      return want_max ? std::numeric_limits<std::int64_t>::min()
                      : std::numeric_limits<std::int64_t>::max();
    }
    const Node& n = nodes_[node];
    if (lo <= node_lo && node_hi <= hi) return acc + (want_max ? n.max : n.min);
    const std::size_t mid = node_lo + (node_hi - node_lo) / 2;
    const std::int64_t below = acc + n.pending;
    const std::int64_t left =
        query(2 * node, node_lo, mid, lo, hi, below, want_max);
    const std::int64_t right =
        query(2 * node + 1, mid + 1, node_hi, lo, hi, below, want_max);
    return want_max ? std::max(left, right) : std::min(left, right);
  }

  std::size_t n_;
  std::vector<Node> nodes_;
};

/// The unit-slice greedy as it stood before the per-class sweep: a
/// comparator sort on byte value, then one range query and one range add
/// on the recursive tree per run.
offline::OfflineResult reference_unit_optimal(const Stream& stream,
                                              Bytes buffer, Bytes rate) {
  offline::OfflineResult result;
  result.accepted_per_run.assign(stream.run_count(), 0);
  if (stream.empty()) return result;
  const auto n = static_cast<std::size_t>(stream.horizon()) + 1;
  RangeAddTree g(n, /*base=*/0, /*step=*/-rate);
  std::vector<std::size_t> order(stream.run_count());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto runs = stream.runs();
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double va = runs[a].byte_value();
    const double vb = runs[b].byte_value();
    if (va != vb) return va > vb;
    if (runs[a].arrival != runs[b].arrival) {
      return runs[a].arrival < runs[b].arrival;
    }
    return a < b;
  });
  for (std::size_t idx : order) {
    const SliceRun& run = runs[idx];
    const auto t = static_cast<std::size_t>(run.arrival);
    const std::int64_t hi = g.range_max(t + 1, n - 1);
    const std::int64_t lo = g.range_min(0, t);
    const std::int64_t take =
        std::clamp<std::int64_t>(buffer - (hi - lo), 0, run.count);
    if (take == 0) continue;
    g.add(t + 1, n - 1, take);
    result.accepted_per_run[idx] = take;
    result.benefit += run.weight * static_cast<Weight>(take);
    result.accepted_bytes += take;
    result.accepted_slices += take;
  }
  return result;
}

TEST(SegmentTree, AffineInitialization) {
  RangeAddTree t(6, 10, -3);  // 10, 7, 4, 1, -2, -5
  EXPECT_EQ(t.range_max(0, 5), 10);
  EXPECT_EQ(t.range_min(0, 5), -5);
  EXPECT_EQ(t.range_max(2, 4), 4);
  EXPECT_EQ(t.range_min(1, 3), 1);
}

TEST(SegmentTree, RangeAddShiftsQueries) {
  RangeAddTree t(5, 0, 0);
  t.add(1, 3, 7);
  EXPECT_EQ(t.range_max(0, 4), 7);
  EXPECT_EQ(t.range_min(0, 4), 0);
  EXPECT_EQ(t.range_min(1, 3), 7);
  t.add(0, 4, -2);
  EXPECT_EQ(t.range_max(0, 0), -2);
  EXPECT_EQ(t.range_max(0, 4), 5);
}

TEST(SegmentTree, MatchesNaiveOnRandomOperations) {
  Rng rng(31);
  const std::size_t n = 40;
  RangeAddTree t(n, 3, 2);
  std::vector<std::int64_t> naive(n);
  for (std::size_t i = 0; i < n; ++i) {
    naive[i] = 3 + 2 * static_cast<std::int64_t>(i);
  }
  for (int op = 0; op < 500; ++op) {
    auto lo = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    auto hi = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
    if (lo > hi) std::swap(lo, hi);
    if (rng.bernoulli(0.5)) {
      const std::int64_t delta = rng.uniform_int(-20, 20);
      t.add(lo, hi, delta);
      for (std::size_t i = lo; i <= hi; ++i) naive[i] += delta;
    } else {
      std::int64_t mx = naive[lo];
      std::int64_t mn = naive[lo];
      for (std::size_t i = lo; i <= hi; ++i) {
        mx = std::max(mx, naive[i]);
        mn = std::min(mn, naive[i]);
      }
      EXPECT_EQ(t.range_max(lo, hi), mx);
      EXPECT_EQ(t.range_min(lo, hi), mn);
    }
  }
}

// ------------------------------------------------------------- feasibility

TEST(Feasibility, LindleyPeakSimple) {
  // 5 bytes at t=0, rate 2: occupancy 3, 1, 0.
  const ByteArrivals a = {{0, 5}};
  EXPECT_EQ(lindley_peak(a, 2), 3);
}

TEST(Feasibility, LindleyDrainsAcrossGaps) {
  const ByteArrivals a = {{0, 10}, {5, 10}};
  // After step 0: 8; steps 1-4 drain 8 more -> 0; step 5: 8 again.
  EXPECT_EQ(lindley_peak(a, 2), 8);
}

TEST(Feasibility, BothFormsAgreeOnRandomInstances) {
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    ByteArrivals a;
    Time t = 0;
    const int steps = static_cast<int>(rng.uniform_int(1, 12));
    for (int i = 0; i < steps; ++i) {
      t += rng.uniform_int(1, 3);
      a.emplace_back(t, rng.uniform_int(0, 9));
    }
    const Bytes buffer = rng.uniform_int(0, 12);
    const Bytes rate = rng.uniform_int(1, 4);
    EXPECT_EQ(feasible(a, buffer, rate),
              feasible_interval_form(a, buffer, rate))
        << "trial " << trial;
  }
}

TEST(Feasibility, ArrivalsOfAggregatesRuns) {
  const Stream s = stream_of({units(2, 3), slice(2, 4), units(5, 1)});
  const ByteArrivals a = arrivals_of(s);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], (std::pair<Time, Bytes>{2, 7}));
  EXPECT_EQ(a[1], (std::pair<Time, Bytes>{5, 1}));
}

// ------------------------------------------------------------ unit optimal

TEST(UnitOptimal, AcceptsEverythingWhenFeasible) {
  const Stream s = stream_of({units(0, 3, 5.0), units(1, 2, 1.0)});
  const auto result = unit_optimal(s, /*buffer=*/5, /*rate=*/2);
  EXPECT_DOUBLE_EQ(result.benefit, 17.0);
  EXPECT_EQ(result.accepted_slices, 5);
}

TEST(UnitOptimal, PrefersHeavySlicesUnderPressure) {
  // One step, B=2, R=1: at most 3 slices survive; it must keep the 3
  // heaviest of the 5 offered.
  const Stream s = stream_of({units(0, 2, 1.0), units(0, 3, 10.0)});
  const auto result = unit_optimal(s, 2, 1);
  EXPECT_DOUBLE_EQ(result.benefit, 30.0);
  EXPECT_EQ(result.accepted_per_run[0], 0);
  EXPECT_EQ(result.accepted_per_run[1], 3);
}

TEST(UnitOptimal, AcceptedSetIsFeasible) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    const Stream s =
        analysis::random_unit_stream(rng, 20, 8, 10.0);
    const Bytes buffer = rng.uniform_int(1, 10);
    const Bytes rate = rng.uniform_int(1, 4);
    const auto result = unit_optimal(s, buffer, rate);
    ByteArrivals accepted;
    for (std::size_t i = 0; i < s.run_count(); ++i) {
      const std::int64_t take = result.accepted_per_run[i];
      if (take == 0) continue;
      const Time t = s.runs()[i].arrival;
      if (!accepted.empty() && accepted.back().first == t) {
        accepted.back().second += take;
      } else {
        accepted.emplace_back(t, take);
      }
    }
    EXPECT_TRUE(feasible(accepted, buffer, rate)) << "trial " << trial;
  }
}

TEST(UnitOptimal, MatchesBruteForceOnRandomSmallInstances) {
  Rng rng(6);
  for (int trial = 0; trial < 120; ++trial) {
    const Stream s = analysis::random_unit_stream(rng, 6, 3, 8.0);
    if (s.total_slices() > 14) continue;
    const Bytes buffer = rng.uniform_int(1, 6);
    const Bytes rate = rng.uniform_int(1, 3);
    const auto fast = unit_optimal(s, buffer, rate);
    const Weight oracle = brute_force_optimal(s, buffer, rate);
    EXPECT_NEAR(fast.benefit, oracle, 1e-9) << "trial " << trial;
  }
}

TEST(UnitOptimal, EmptyStream) {
  const Stream s;
  EXPECT_DOUBLE_EQ(unit_optimal(s, 5, 1).benefit, 0.0);
}

/// Unit runs whose weights mostly come from {1, 2, 3}, with a random share
/// of continuous weights: one call holds large equal-value classes next to
/// singletons.
Stream mixed_unit_stream(Rng& rng, Time horizon) {
  std::vector<SliceRun> runs;
  const double distinct_share = rng.uniform(0.0, 0.5);
  for (Time t = 0; t < horizon; ++t) {
    const std::int64_t batch = rng.uniform_int(0, 3);
    for (std::int64_t k = 0; k < batch; ++k) {
      const double weight =
          rng.bernoulli(distinct_share)
              ? rng.uniform(1.0, 9.0)
              : static_cast<double>(rng.uniform_int(1, 3));
      runs.push_back(SliceRun{.arrival = t,
                              .slice_size = 1,
                              .count = rng.uniform_int(1, 6),
                              .weight = weight});
    }
  }
  if (runs.empty()) runs.push_back(SliceRun{.arrival = 0});
  return Stream::from_runs(std::move(runs));
}

TEST(UnitOptimal, FlatSolverMatchesRecursiveTreeReferenceBitwise) {
  // Same greedy order, same integer slack and the same floating-point
  // additions in the same order: every field must match bit for bit. The
  // solver sweeps a value class of m runs when m * ceil(log2 T) >= T
  // (T = horizon + 1) and walks the tree per run otherwise; both branches
  // must be exercised, and within one call too.
  Rng rng(15);
  const trace::FrameSequence clip = trace::stock_clip("cnn-news", 600);
  int dense = 0;
  int sparse = 0;
  int calls_with_both = 0;
  const auto check = [&](const Stream& s, Bytes buffer, Bytes rate,
                         const std::string& label) {
    const auto got = unit_optimal(s, buffer, rate);
    const auto want = reference_unit_optimal(s, buffer, rate);
    EXPECT_EQ(got.benefit, want.benefit) << label;
    EXPECT_EQ(got.accepted_bytes, want.accepted_bytes) << label;
    EXPECT_EQ(got.accepted_slices, want.accepted_slices) << label;
    EXPECT_EQ(got.accepted_per_run, want.accepted_per_run) << label;
    std::map<double, std::size_t> members;
    for (const SliceRun& run : s.runs()) ++members[run.byte_value()];
    const auto points = static_cast<std::size_t>(s.horizon()) + 1;
    const auto depth = static_cast<std::size_t>(std::bit_width(points - 1));
    int call_dense = 0;
    int call_sparse = 0;
    for (const auto& [value, m] : members) {
      ++(m * depth >= points ? call_dense : call_sparse);
    }
    dense += call_dense;
    sparse += call_sparse;
    calls_with_both += call_dense > 0 && call_sparse > 0 ? 1 : 0;
  };
  const int rounds = 10 * testgen::prop_iters();
  for (int round = 0; round < rounds; ++round) {
    const std::string tag = "round " + std::to_string(round);
    const auto frames = static_cast<std::size_t>(rng.uniform_int(2, 240));
    const auto offset = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(clip.size() - frames)));
    const std::span<const trace::Frame> excerpt(clip.data() + offset, frames);
    for (const auto& [name, values] :
         {std::pair{"mpeg", trace::ValueModel::mpeg_default()},
          std::pair{"throughput", trace::ValueModel::throughput()}}) {
      const Stream s =
          trace::slice_frames(excerpt, values, trace::Slicing::ByteSlices);
      const auto rate = std::max<Bytes>(
          1, static_cast<Bytes>(s.average_rate() * rng.uniform(0.3, 1.3)));
      const auto buffer = std::max<Bytes>(
          1, static_cast<Bytes>(static_cast<double>(s.max_frame_bytes()) *
                                rng.uniform(0.1, 3.0)));
      check(s, buffer, rate, tag + " " + name);
    }
    check(analysis::random_unit_stream(rng, rng.uniform_int(1, 60), 4, 9.0),
          rng.uniform_int(1, 12), rng.uniform_int(1, 4), tag + " distinct");
    check(mixed_unit_stream(rng, rng.uniform_int(1, 80)),
          rng.uniform_int(1, 20), rng.uniform_int(1, 6), tag + " mixed");
  }
  EXPECT_GT(dense, 500);
  EXPECT_GT(sparse, 500);
  EXPECT_GT(calls_with_both, rounds / 10);
}

// ------------------------------------------- Pareto DP reference (oracle)

/// The sort-and-prune Pareto DP that the linear-merge solver replaced, kept
/// as the differential reference (as the deque oracle is for the
/// simulator). Every slice collects drop and keep candidates, sorts them by
/// occupancy and prunes dominated states; the state limit keeps the
/// heaviest states by weight.
namespace reference {

struct State {
  Bytes occ;
  Weight weight;
};

void prune(std::vector<State>& states) {
  std::sort(states.begin(), states.end(), [](const State& a, const State& b) {
    if (a.occ != b.occ) return a.occ < b.occ;
    return a.weight > b.weight;
  });
  std::vector<State> kept;
  Weight best = -1.0;
  for (const State& s : states) {
    if (s.weight > best) {
      kept.push_back(s);
      best = s.weight;
    }
  }
  states = std::move(kept);
}

struct Item {
  Bytes size;
  Weight weight;
};

template <typename Resize>
std::vector<std::vector<Item>> steps_of(const Stream& stream, Resize resize) {
  std::vector<std::vector<Item>> steps(
      static_cast<std::size_t>(stream.horizon()));
  for (const SliceRun& run : stream.runs()) {
    auto& list = steps[static_cast<std::size_t>(run.arrival)];
    const Bytes size = resize(run.slice_size);
    for (std::int64_t k = 0; k < run.count; ++k) {
      list.push_back(Item{.size = size, .weight = run.weight});
    }
  }
  return steps;
}

offline::ParetoDpResult dp_core(const std::vector<std::vector<Item>>& steps,
                                Bytes buffer, Bytes rate,
                                std::size_t state_limit) {
  offline::ParetoDpResult result;
  std::vector<State> frontier{State{.occ = 0, .weight = 0.0}};
  for (const auto& arrivals : steps) {
    for (const Item& item : arrivals) {
      std::vector<State> next;
      for (const State& s : frontier) {
        next.push_back(s);
        const Bytes occ = s.occ + item.size;
        if (occ <= buffer + rate) {
          next.push_back(State{.occ = occ, .weight = s.weight + item.weight});
        }
      }
      prune(next);
      if (next.size() > state_limit) {
        std::nth_element(
            next.begin(),
            next.begin() + static_cast<std::ptrdiff_t>(state_limit),
            next.end(),
            [](const State& a, const State& b) { return a.weight > b.weight; });
        next.resize(state_limit);
        prune(next);
        result.exact = false;
      }
      frontier = std::move(next);
      result.peak_states = std::max(result.peak_states, frontier.size());
    }
    std::vector<State> next;
    for (const State& s : frontier) {
      const Bytes occ = std::max<Bytes>(0, s.occ - rate);
      if (occ <= buffer) next.push_back(State{.occ = occ, .weight = s.weight});
    }
    prune(next);
    frontier = std::move(next);
  }
  for (const State& s : frontier) {
    result.benefit = std::max(result.benefit, s.weight);
  }
  return result;
}

offline::ParetoDpResult pareto_dp(const Stream& stream, Bytes buffer,
                                  Bytes rate, std::size_t state_limit) {
  if (stream.empty()) return {};
  return dp_core(steps_of(stream, [](Bytes s) { return s; }), buffer, rate,
                 state_limit);
}

/// The bracket's two DP values: lower (sizes up, capacity down) and upper
/// (sizes down, capacity up).
std::pair<Weight, Weight> bracket(const Stream& stream, Bytes buffer,
                                  Bytes rate, Bytes quantum) {
  const auto up = [quantum](Bytes s) { return (s + quantum - 1) / quantum; };
  const auto down = [quantum](Bytes s) { return s / quantum; };
  return {dp_core(steps_of(stream, up), buffer / quantum, rate / quantum,
                  1u << 22)
              .benefit,
          dp_core(steps_of(stream, down), up(buffer), up(rate), 1u << 22)
              .benefit};
}

}  // namespace reference

// --------------------------------------------------------------- Pareto DP

TEST(ParetoDp, WholeFramesUnderPressure) {
  // Two frames of 4 bytes each at t=0,1 with B=4, R=2: keeping both is
  // infeasible (after step 1 occupancy would be 4+4-2-2 = 4 > ... check:
  // keep both: Q(0)=2, Q(1)=4 <= B! So both fit). Use B=3 to force a choice.
  const Stream s = stream_of({slice(0, 4, 10.0), slice(1, 4, 12.0)});
  const auto both = pareto_dp_optimal(s, 4, 2);
  EXPECT_DOUBLE_EQ(both.benefit, 22.0);
  const auto pressured = pareto_dp_optimal(s, 3, 2);
  EXPECT_DOUBLE_EQ(pressured.benefit, 12.0);  // keep the heavier frame
  EXPECT_TRUE(pressured.exact);
}

TEST(ParetoDp, MatchesBruteForceOnRandomVariableInstances) {
  Rng rng(8);
  for (int trial = 0; trial < 120; ++trial) {
    const Stream s =
        analysis::random_variable_stream(rng, 6, 2, 6.0, /*max_slice=*/4);
    if (s.total_slices() > 12) continue;
    const Bytes buffer = rng.uniform_int(4, 12);
    const Bytes rate = rng.uniform_int(1, 4);
    const auto dp = pareto_dp_optimal(s, buffer, rate);
    const Weight oracle = brute_force_optimal(s, buffer, rate);
    EXPECT_TRUE(dp.exact);
    EXPECT_NEAR(dp.benefit, oracle, 1e-9) << "trial " << trial;
  }
}

TEST(ParetoDp, AgreesWithUnitOptimalOnUnitStreams) {
  Rng rng(9);
  for (int trial = 0; trial < 40; ++trial) {
    const Stream s = analysis::random_unit_stream(rng, 10, 5, 9.0);
    const Bytes buffer = rng.uniform_int(1, 8);
    const Bytes rate = rng.uniform_int(1, 3);
    const auto dp = pareto_dp_optimal(s, buffer, rate);
    const auto greedy = unit_optimal(s, buffer, rate);
    EXPECT_NEAR(dp.benefit, greedy.benefit, 1e-9) << "trial " << trial;
  }
}

TEST(ParetoDp, StateLimitProducesLowerBound) {
  Rng rng(10);
  const Stream s =
      analysis::random_variable_stream(rng, 12, 3, 9.0, /*max_slice=*/5);
  const auto exact = pareto_dp_optimal(s, 20, 3);
  const auto capped = pareto_dp_optimal(s, 20, 3, /*state_limit=*/2);
  EXPECT_FALSE(capped.exact);
  EXPECT_LE(capped.benefit, exact.benefit + 1e-9);
}

TEST(ParetoDp, LinearMergeMatchesSortAndPruneReferenceBitwise) {
  // Same floating-point additions and a unique Pareto set: the merge must
  // reproduce the reference bit for bit, including the truncated (state
  // limit) path and the bracket's 0-byte items (sizes below the quantum).
  Rng rng(14);
  int truncated = 0;
  int zero_byte_items = 0;
  for (int trial = 0; trial < 6000; ++trial) {
    const Time horizon = rng.uniform_int(1, 14);
    const Stream s =
        trial % 6 == 0
            ? analysis::random_unit_stream(rng, horizon, 4, 9.0)
            : analysis::random_variable_stream(rng, horizon, 4, 9.0,
                                               rng.uniform_int(1, 12));
    const Bytes buffer = rng.uniform_int(1, 24);
    const Bytes rate = rng.uniform_int(1, 8);
    const std::size_t limit =
        trial % 3 == 0 ? static_cast<std::size_t>(rng.uniform_int(2, 6))
                       : std::size_t{1} << 20;
    const auto got = pareto_dp_optimal(s, buffer, rate, limit);
    const auto want = reference::pareto_dp(s, buffer, rate, limit);
    EXPECT_EQ(got.benefit, want.benefit) << "trial " << trial;
    EXPECT_EQ(got.exact, want.exact) << "trial " << trial;
    EXPECT_EQ(got.peak_states, want.peak_states) << "trial " << trial;
    truncated += want.exact ? 0 : 1;

    const Bytes max_quantum = std::min<Bytes>({5, buffer, rate});
    if (max_quantum < 2) continue;
    const Bytes quantum = rng.uniform_int(2, max_quantum);
    const auto bracket =
        offline::quantized_optimal_bracket(s, buffer, rate, quantum);
    const auto [lower, upper] = reference::bracket(s, buffer, rate, quantum);
    EXPECT_EQ(bracket.lower, lower) << "trial " << trial;
    EXPECT_EQ(bracket.upper, upper) << "trial " << trial;
    for (const SliceRun& run : s.runs()) {
      zero_byte_items += run.slice_size < quantum ? 1 : 0;
    }
  }
  EXPECT_GT(truncated, 500);
  EXPECT_GT(zero_byte_items, 500);
}

TEST(ParetoDp, ShiftedListOverflowsAfterDropListIsUsedUp) {
  // B = 3, R = 1, so a step holds at most 4 bytes. After the 2-byte slice
  // the frontier is {(0, 0), (2, 5)}; folding the 3-byte slice shifts it to
  // {(3, 10), (5, 15)}, and (5, 15) lies past the cap once both unshifted
  // states have been merged. Only one slice fits: keep the heavier.
  const Stream s = stream_of({slice(0, 2, 5.0), slice(0, 3, 10.0)});
  const auto dp = pareto_dp_optimal(s, 3, 1);
  EXPECT_EQ(dp.benefit, 10.0);
  EXPECT_TRUE(dp.exact);
  EXPECT_EQ(dp.peak_states, 3u);
  const auto want = reference::pareto_dp(s, 3, 1, 1u << 20);
  EXPECT_EQ(dp.benefit, want.benefit);
  EXPECT_EQ(dp.peak_states, want.peak_states);
}

TEST(ParetoDp, EmptyStream) {
  const Stream s;
  EXPECT_DOUBLE_EQ(pareto_dp_optimal(s, 5, 1).benefit, 0.0);
}

// ------------------------------------------------------- quantized bracket

TEST(QuantizedBracket, QuantumOneIsExact) {
  Rng rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    const Stream s =
        analysis::random_variable_stream(rng, 8, 2, 7.0, /*max_slice=*/4);
    const Bytes buffer = rng.uniform_int(4, 10);
    const Bytes rate = rng.uniform_int(1, 3);
    const auto exact = offline::pareto_dp_optimal(s, buffer, rate);
    const auto bracket =
        offline::quantized_optimal_bracket(s, buffer, rate, 1);
    EXPECT_NEAR(bracket.lower, exact.benefit, 1e-9) << trial;
    EXPECT_NEAR(bracket.upper, exact.benefit, 1e-9) << trial;
  }
}

TEST(QuantizedBracket, SandwichesTheExactOptimum) {
  Rng rng(22);
  for (int trial = 0; trial < 30; ++trial) {
    const Stream s =
        analysis::random_variable_stream(rng, 10, 2, 7.0, /*max_slice=*/9);
    const Bytes buffer = rng.uniform_int(9, 24);
    const Bytes rate = rng.uniform_int(3, 6);
    const auto exact = offline::pareto_dp_optimal(s, buffer, rate);
    for (Bytes quantum : {2, 3}) {
      const auto bracket =
          offline::quantized_optimal_bracket(s, buffer, rate, quantum);
      EXPECT_LE(bracket.lower, exact.benefit + 1e-9)
          << trial << " q=" << quantum;
      EXPECT_GE(bracket.upper, exact.benefit - 1e-9)
          << trial << " q=" << quantum;
    }
  }
}

TEST(QuantizedBracket, TightensAsQuantumShrinks) {
  Rng rng(23);
  const Stream s =
      analysis::random_variable_stream(rng, 20, 3, 7.0, /*max_slice=*/16);
  const Bytes buffer = 48;
  const Bytes rate = 8;
  const auto coarse = offline::quantized_optimal_bracket(s, buffer, rate, 8);
  const auto fine = offline::quantized_optimal_bracket(s, buffer, rate, 1);
  // Quantum 1 collapses the bracket to the exact optimum; the coarse
  // bracket must contain it.
  EXPECT_NEAR(fine.upper - fine.lower, 0.0, 1e-9);
  EXPECT_LE(coarse.lower, fine.lower + 1e-9);
  EXPECT_GE(coarse.upper, fine.upper - 1e-9);
}

// ------------------------------------------------------------- brute force

TEST(BruteForce, TinyKnownInstance) {
  // B=1, R=1, three unit slices at t=0 with weights 3,2,1: two can survive
  // (send one, buffer one).
  const Stream s =
      stream_of({units(0, 1, 3.0), units(0, 1, 2.0), units(0, 1, 1.0)});
  EXPECT_DOUBLE_EQ(brute_force_optimal(s, 1, 1), 5.0);
}

using OfflineDeathTest = ::testing::Test;

TEST(OfflineDeathTest, BruteForceRefusesLargeInstances) {
  const Stream s = stream_of({units(0, 64)});
  EXPECT_DEATH(brute_force_optimal(s, 4, 1), "precondition");
}

TEST(OfflineDeathTest, UnitOptimalRequiresUnitSlices) {
  const Stream s = stream_of({slice(0, 3)});
  EXPECT_DEATH(unit_optimal(s, 4, 1), "precondition");
}

}  // namespace
}  // namespace rtsmooth
