// Tests for the bounded-jitter extension (the paper's Sect. 6 open problem):
// with positive jitter the B = RD budget no longer suffices, and adding the
// jitter bound J to the smoothing delay plus J*R to the client buffer
// restores lossless playout — the "jitter control adds to buffer space and
// delay" remark made quantitative.

#include <gtest/gtest.h>

#include "core/link.h"
#include "policies/policy_factory.h"
#include "reference_core.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "stream_helpers.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"

namespace rtsmooth {
namespace {

using sim::SimConfig;
using sim::SmoothingSimulator;

Stream clip_stream() {
  return trace::slice_frames(trace::stock_clip("cnn-news", 150),
                             trace::ValueModel::mpeg_default(),
                             trace::Slicing::ByteSlices);
}

SimReport run_with_jitter(const Stream& s, const Plan& plan, Time p, Time j,
                          Time extra_delay, Bytes extra_client_buffer,
                          std::uint64_t seed = 99) {
  SimConfig config = SimConfig::balanced(plan, p);
  config.smoothing_delay += extra_delay;
  config.client_buffer += extra_client_buffer;
  SmoothingSimulator simulator(
      s, config, make_policy("greedy"),
      std::make_unique<BoundedJitterLink>(p, j, Rng(seed)));
  return simulator.run();
}

TEST(Jitter, ZeroJitterMatchesFixedLinkExactly) {
  const Stream s = clip_stream();
  const Plan plan =
      Planner::from_buffer_rate(2 * s.max_frame_bytes(),
                                sim::relative_rate(s, 0.95));
  const SimReport jittered = run_with_jitter(s, plan, 1, 0, 0, 0);
  const SimReport fixed = sim::simulate(s, plan, "greedy");
  EXPECT_EQ(jittered.played.bytes, fixed.played.bytes);
  EXPECT_DOUBLE_EQ(jittered.played.weight, fixed.played.weight);
}

TEST(Jitter, UncompensatedJitterCausesClientLoss) {
  const Stream s = clip_stream();
  const Plan plan =
      Planner::from_buffer_rate(2 * s.max_frame_bytes(),
                                sim::relative_rate(s, 0.95));
  const SimReport report = run_with_jitter(s, plan, 1, /*j=*/6, 0, 0);
  EXPECT_TRUE(report.conserves());
  EXPECT_GT(report.dropped_client_late.bytes, 0);
}

// The batch engine reports how late its latest late byte was, as the
// oracle and the daemon engine do; a balanced plan sends every byte by
// AT + D, so no byte can be later than the jitter bound.
TEST(Jitter, LateBytesSetMaxLatenessLikeTheOracle) {
  const Stream s = clip_stream();
  const Plan plan =
      Planner::from_buffer_rate(2 * s.max_frame_bytes(),
                                sim::relative_rate(s, 0.95));
  const Time jitter = 6;
  const SimConfig config = SimConfig::balanced(plan, 1);
  SmoothingSimulator simulator(
      s, config, make_policy("greedy"),
      std::make_unique<BoundedJitterLink>(1, jitter, Rng(99)));
  const SimReport report = simulator.run();
  refcore::ReferenceSimulator oracle(
      s, config, "greedy",
      std::make_unique<refcore::ReferenceBoundedJitterLink>(1, jitter,
                                                            Rng(99)));
  const SimReport expected = oracle.run();
  ASSERT_GT(report.dropped_client_late.bytes, 0);
  EXPECT_GT(report.max_lateness, 0);
  EXPECT_LE(report.max_lateness, jitter);
  EXPECT_EQ(report.max_lateness, expected.max_lateness);
  EXPECT_TRUE(report == expected);
}

TEST(Jitter, DelayAndBufferSlackRestoreLosslessness) {
  const Stream s = clip_stream();
  const Time j = 6;
  const Plan plan =
      Planner::from_buffer_rate(2 * s.max_frame_bytes(),
                                sim::relative_rate(s, 0.95));
  // Compensation: wait J longer before playout, and give the client room
  // for the J * R extra bytes that can pile up while deliveries bunch.
  const SimReport report =
      run_with_jitter(s, plan, 1, j, /*extra_delay=*/j,
                      /*extra_client_buffer=*/j * plan.rate);
  EXPECT_TRUE(report.conserves());
  EXPECT_EQ(report.dropped_client_late.bytes, 0);
  EXPECT_EQ(report.dropped_client_overflow.bytes, 0);
  // Server-side behaviour is identical to the jitter-free run.
  const SimReport fixed = sim::simulate(s, plan, "greedy");
  EXPECT_EQ(report.dropped_server.bytes, fixed.dropped_server.bytes);
}

TEST(Jitter, TimerModeSelfCalibratesToActualLinkDelay) {
  // The paper's Sect. 3.3 protocol arms one timer at the first delivery, so
  // it needs no knowledge of P. Feed it a link 3 steps slower than the
  // config claims: ArrivalPlusOffset mode misses every deadline by 3, the
  // timer mode recalibrates and loses nothing.
  const Stream s = clip_stream();
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(),
                                              sim::relative_rate(s, 0.95));
  auto run_mode = [&](PlayoutMode mode) {
    SimConfig config = SimConfig::balanced(plan, /*link_delay=*/1);
    config.playout = mode;
    // Room for the extra (actual - nominal) * R bytes that pool while the
    // playout base lags the deliveries.
    config.client_buffer += 3 * plan.rate;
    SmoothingSimulator simulator(s, config, make_policy("greedy"),
                                 std::make_unique<FixedDelayLink>(4));
    return simulator.run();
  };
  const SimReport offset = run_mode(PlayoutMode::ArrivalPlusOffset);
  EXPECT_TRUE(offset.conserves());
  EXPECT_GT(offset.dropped_client_late.bytes, 0);
  const SimReport timer = run_mode(PlayoutMode::TimerFromFirstDelivery);
  EXPECT_TRUE(timer.conserves());
  EXPECT_EQ(timer.dropped_client_late.bytes, 0);
  EXPECT_EQ(timer.dropped_client_overflow.bytes, 0);
  EXPECT_EQ(timer.played.bytes, offset.played.bytes +
                                    offset.dropped_client_late.bytes);
}

TEST(Jitter, TimerModeNeverLosesMoreThanOffsetModeOnAJitteryLink) {
  // Self-calibration can only shift deadlines later (by the first batch's
  // jitter draw), so with client-buffer headroom the timer mode's deadline
  // losses are bounded by the offset mode's, seed by seed.
  const Stream s = clip_stream();
  const Time j = 6;
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(),
                                              sim::relative_rate(s, 0.95));
  for (std::uint64_t seed : {3u, 17u, 54u}) {
    auto run_mode = [&](PlayoutMode mode) {
      SimConfig config = SimConfig::balanced(plan, 1);
      config.playout = mode;
      config.client_buffer += j * plan.rate;
      SmoothingSimulator simulator(
          s, config, make_policy("greedy"),
          std::make_unique<BoundedJitterLink>(1, j, Rng(seed)));
      return simulator.run();
    };
    const SimReport offset = run_mode(PlayoutMode::ArrivalPlusOffset);
    const SimReport timer = run_mode(PlayoutMode::TimerFromFirstDelivery);
    EXPECT_TRUE(timer.conserves());
    EXPECT_LE(timer.dropped_client_late.bytes, offset.dropped_client_late.bytes)
        << "seed " << seed;
  }
}

TEST(Jitter, CompensationIsDeterministicPerSeed) {
  const Stream s = clip_stream();
  const Plan plan =
      Planner::from_buffer_rate(2 * s.max_frame_bytes(),
                                sim::relative_rate(s, 1.0));
  const SimReport a = run_with_jitter(s, plan, 1, 4, 4, 4 * plan.rate, 7);
  const SimReport b = run_with_jitter(s, plan, 1, 4, 4, 4 * plan.rate, 7);
  EXPECT_EQ(a.played.bytes, b.played.bytes);
  const SimReport c = run_with_jitter(s, plan, 1, 4, 4, 4 * plan.rate, 8);
  EXPECT_TRUE(c.conserves());
}

}  // namespace
}  // namespace rtsmooth
