// Quiescent-span skipping in the simulator (DESIGN.md Sect. 17), pinned
// three ways:
//
//   - Link::next_activity() / advance_to() contracts per link flavour —
//     including the Gilbert-Elliott lazy-replay property (batch catch-up
//     consumes the identical RNG draws as per-step polling).
//   - Oracle-vs-engine agreement (tests/differential.h) under ErasureLink,
//     GilbertElliottLink, ThrottledLink and BoundedJitterLink across seeds,
//     sparse and dense streams, recovery on and off; plus the
//     ScheduleRecorder back-fill on a sparse stream.
//   - sweep() grids: results and merged registry snapshots byte-identical
//     at RTSMOOTH_THREADS widths 1, 4 and 8 (mirroring the existing
//     thread-invariance ctests).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/link.h"
#include "core/schedule.h"
#include "differential.h"
#include "faults/fault_links.h"
#include "policies/policy_factory.h"
#include "random_instances.h"
#include "reference_core.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"
#include "util/rng.h"

namespace rtsmooth {
namespace {

// ---------------------------------------------- Link::next_activity hooks

/// A piece needs a live SliceRun behind it; one static run serves all the
/// direct link tests below.
const SliceRun& test_run() {
  static const SliceRun run = [] {
    SliceRun r;
    r.arrival = 0;
    r.slice_size = 1;
    r.count = 100;
    r.weight = 1.0;
    return r;
  }();
  return run;
}

std::vector<SentPiece> one_piece(Bytes bytes) {
  SentPiece piece;
  piece.run = &test_run();
  piece.bytes = bytes;
  return {piece};
}

TEST(NextActivity, FixedDelayLinkReportsHeadDeliveryStep) {
  FixedDelayLink link(3);
  EXPECT_EQ(link.next_activity(0), kNever);
  link.submit(2, one_piece(8));
  EXPECT_EQ(link.next_activity(3), 5);  // submitted at 2, delay 3
  (void)link.deliver(5);
  EXPECT_EQ(link.next_activity(6), kNever);
}

TEST(NextActivity, ThrottledLinkBacklogWaitsForOpenWindow) {
  // cap_at: 0 at steps 0..2 (mod 4), 4 bytes at step 3 (mod 4).
  faults::ThrottledLink link(std::make_unique<FixedDelayLink>(1),
                             std::vector<Bytes>{0, 0, 0, 4});
  link.submit(0, one_piece(8));  // nothing admitted, 8 bytes queued
  EXPECT_EQ(link.next_activity(1), 3);  // the next positive-cap step
}

TEST(NextActivity, ErasureLinkPendingNackBoundsTheSpan) {
  // loss 1.0: the piece never reaches the inner link; the NACK surfaces at
  // t + 2 * min_delay (symmetric feedback path).
  faults::ErasureLink link(std::make_unique<FixedDelayLink>(2), 1.0,
                           Rng(99));
  (void)link.deliver(0);
  link.submit(0, one_piece(4));
  EXPECT_EQ(link.next_activity(1), 4);
  EXPECT_TRUE(link.deliver(4).empty());
  EXPECT_EQ(link.collect_nacks(4).size(), 1u);
}

// The lazy-replay contract: catching the loss chain up in one advance_to()
// batch must consume the identical RNG draws as polling deliver(t) every
// step, so the state (and every draw after it) agrees.
TEST(NextActivity, GilbertElliottAdvanceToMatchesPerStepPolling) {
  const faults::GilbertElliottConfig ge{.p_good_to_bad = 0.35,
                                        .p_bad_to_good = 0.35,
                                        .loss_good = 0.0,
                                        .loss_bad = 1.0};
  faults::GilbertElliottLink polled(std::make_unique<FixedDelayLink>(1), ge,
                                    Rng(4242));
  faults::GilbertElliottLink batched(std::make_unique<FixedDelayLink>(1), ge,
                                     Rng(4242));
  for (Time t = 0; t <= 60; ++t) (void)polled.deliver(t);
  batched.advance_to(60);
  // With loss probabilities 0/1 the fate of each piece is a pure function
  // of the chain state, so identical states show up as identical delivery
  // and NACK sequences from here on.
  for (Time t = 61; t <= 90; ++t) {
    polled.submit(t, one_piece(1));
    batched.submit(t, one_piece(1));
    const auto a = polled.deliver(t);
    const auto b = batched.deliver(t);
    ASSERT_EQ(a.size(), b.size()) << "delivery divergence at t=" << t;
    ASSERT_EQ(polled.collect_nacks(t).size(), batched.collect_nacks(t).size())
        << "NACK divergence at t=" << t;
  }
}

// ------------------------------------------------ oracle vs engine

/// One fault flavour, built over the production links or over the
/// oracle's reference links. Both get the same seed, so both runs see the
/// same fault pattern.
struct LinkCase {
  const char* name;
  std::function<std::unique_ptr<Link>(Time delay, std::uint64_t seed,
                                      bool reference)>
      make;
};

std::unique_ptr<Link> fixed_link(Time delay, bool reference) {
  if (reference) {
    return std::make_unique<refcore::ReferenceFixedDelayLink>(delay);
  }
  return std::make_unique<FixedDelayLink>(delay);
}

std::vector<LinkCase> fault_link_cases() {
  return {
      {"erasure",
       [](Time delay, std::uint64_t seed,
          bool reference) -> std::unique_ptr<Link> {
         return std::make_unique<faults::ErasureLink>(
             fixed_link(delay, reference), 0.15, Rng(seed));
       }},
      {"gilbert-elliott",
       [](Time delay, std::uint64_t seed,
          bool reference) -> std::unique_ptr<Link> {
         const faults::GilbertElliottConfig ge{.p_good_to_bad = 0.08,
                                               .p_bad_to_good = 0.3,
                                               .loss_good = 0.0,
                                               .loss_bad = 0.95};
         return std::make_unique<faults::GilbertElliottLink>(
             fixed_link(delay, reference), ge, Rng(seed));
       }},
      {"throttled",
       [](Time delay, std::uint64_t seed,
          bool reference) -> std::unique_ptr<Link> {
         (void)seed;  // the throttle pattern is deterministic
         return std::make_unique<faults::ThrottledLink>(
             fixed_link(delay, reference),
             std::vector<Bytes>{900, 0, 0, 300, 0, 1500});
       }},
      {"jitter",
       [](Time delay, std::uint64_t seed,
          bool reference) -> std::unique_ptr<Link> {
         if (reference) {
           return std::make_unique<refcore::ReferenceBoundedJitterLink>(
               delay, 2, Rng(seed));
         }
         return std::make_unique<BoundedJitterLink>(delay, 2, Rng(seed));
       }},
  };
}

/// The fault matrix: every fault flavour × seeds × recovery on/off × dense
/// and sparse streams, each cell checked against the deque oracle.
TEST(EventEngineIdentity, FaultMatrixAcrossSeedsAndRecovery) {
  const std::vector<LinkCase> cases = fault_link_cases();
  const std::vector<std::string> policies = {"tail-drop", "greedy"};
  std::size_t pick = 0;
  for (const std::uint64_t seed : {101u, 202u, 303u, 404u}) {
    for (const bool sparse : {false, true}) {
      Rng rng(0xe7e27000 + seed * 2 + (sparse ? 1 : 0));
      const Stream stream =
          sparse ? testgen::corner_stream(rng,
                                          testgen::Corner::ZeroLengthBursts)
                 : testgen::random_stream(rng);
      const sim::SimConfig base =
          sparse ? testgen::corner_config(rng, stream,
                                          testgen::Corner::ZeroLengthBursts)
                 : testgen::random_config(rng, stream);
      for (const LinkCase& link_case : cases) {
        for (const bool recovery : {false, true}) {
          sim::SimConfig config = base;
          config.recovery.enabled = recovery;
          if (recovery && config.recovery.max_retries == 0) {
            config.recovery.max_retries = 2;
          }
          const std::string& policy = policies[pick++ % policies.size()];
          const std::string reproducer =
              "link=" + std::string(link_case.name) +
              (sparse ? " stream=sparse" : " stream=dense") +
              " recovery=" + (recovery ? "on" : "off") +
              " policy=" + policy + "\n" +
              testgen::describe_instance(seed, stream, config);
          difftest::expect_matches_oracle(
              stream, config, policy, reproducer,
              [&] { return link_case.make(config.link_delay, seed, false); },
              [&] { return link_case.make(config.link_delay, seed, true); });
          if (HasFailure()) return;  // one reproducer is enough
        }
      }
    }
  }
}

/// The simulator back-fills one StepSets record per skipped step: on a
/// sparse stream the recorder must hold one record per step with
/// consecutive t, zero occupancies wherever nothing was buffered or moved,
/// and step and run totals that add up to the report's.
TEST(EventEngineIdentity, ScheduleRecorderStepsAndRunsMatch) {
  Rng rng(0x5ced5ced);
  const Stream stream =
      testgen::corner_stream(rng, testgen::Corner::ZeroLengthBursts);
  const sim::SimConfig config =
      testgen::corner_config(rng, stream, testgen::Corner::ZeroLengthBursts);
  sim::SmoothingSimulator simulator(stream, config, make_policy("tail-drop"));
  ScheduleRecorder rec(stream.run_count(),
                       ScheduleRecorder::Level::RunsAndSteps);
  const SimReport report = simulator.run(&rec);

  ASSERT_EQ(static_cast<Time>(rec.steps().size()), report.steps);
  Bytes arrived = 0;
  Bytes played = 0;
  std::int64_t quiescent = 0;
  for (std::size_t i = 0; i < rec.steps().size(); ++i) {
    const StepSets& step = rec.steps()[i];
    ASSERT_EQ(step.t, static_cast<Time>(i));
    arrived += step.arrived;
    played += step.played;
    // Entering empty with nothing arriving or delivered, a step can only
    // leave both buffers empty — the state every skipped step records.
    const bool was_empty =
        i == 0 || (rec.steps()[i - 1].server_occupancy == 0 &&
                   rec.steps()[i - 1].client_occupancy == 0);
    if (was_empty && step.arrived == 0 && step.delivered == 0) {
      ++quiescent;
      ASSERT_EQ(step.server_occupancy, 0) << "t=" << step.t;
      ASSERT_EQ(step.client_occupancy, 0) << "t=" << step.t;
    }
  }
  EXPECT_GT(quiescent, 0) << "the sparse stream never went quiescent";
  EXPECT_EQ(arrived, report.offered.bytes);
  EXPECT_EQ(played, report.played.bytes);

  std::int64_t played_slices = 0;
  std::int64_t dropped_server_slices = 0;
  for (std::size_t i = 0; i < rec.run_count(); ++i) {
    played_slices += rec.run(i).played;
    dropped_server_slices += rec.run(i).dropped_server;
  }
  EXPECT_EQ(played_slices, report.played.slices);
  EXPECT_EQ(dropped_server_slices, report.dropped_server.slices);
}

// ---------------------------------------------------------- sweep() grids

/// Registry-carrying sweep at a given width; returns the result and the
/// determinism unit of the merged snapshot.
std::pair<sim::SweepResult, std::string> run_grid(const Stream& stream,
                                                  unsigned threads) {
  obs::Registry registry;
  sim::SweepSpec spec;
  spec.axis = sim::SweepAxis::BufferMultiple;
  spec.values = {2.0, 3.0, 4.0};
  spec.policies = {"tail-drop", "greedy"};
  spec.threads = threads;
  spec.registry = &registry;
  sim::SweepResult result = sim::sweep(stream, spec);
  return {std::move(result),
          registry.to_json(/*include_timers=*/false).dump()};
}

/// Width invariance: every grid — including the merged registry snapshot —
/// must equal the width-1 grid.
TEST(EventEngineSweep, GridMatchesWidthOneAtEveryThreadWidth) {
  const Stream stream = trace::slice_frames(
      trace::stock_clip("cnn-news", 60), trace::ValueModel::mpeg_default(),
      trace::Slicing::ByteSlices);
  const auto [serial_result, serial_registry] = run_grid(stream, 1);
  for (const unsigned threads : {1u, 4u, 8u}) {
    const auto [result, registry] = run_grid(stream, threads);
    EXPECT_TRUE(result.points == serial_result.points)
        << "sweep points diverge (width 1 vs " << threads << ")";
    EXPECT_EQ(registry, serial_registry)
        << "merged registry diverges (width 1 vs " << threads << ")";
  }
}

TEST(EventEngineSweep, FaultAxisMatchesWidthOne) {
  const Stream stream = trace::slice_frames(
      trace::stock_clip("cnn-news", 40), trace::ValueModel::mpeg_default(),
      trace::Slicing::ByteSlices);
  auto run_axis = [&stream](unsigned threads) {
    sim::SweepSpec spec;
    spec.axis = sim::SweepAxis::FaultSeverity;
    spec.values = {0.0, 0.1, 0.3};
    spec.policies = {"tail-drop"};
    spec.recovery.enabled = true;
    spec.recovery.max_retries = 2;
    spec.threads = threads;
    spec.link_factory = [](double severity, Time delay) {
      return std::make_unique<faults::ErasureLink>(
          std::make_unique<FixedDelayLink>(delay), severity, Rng(7));
    };
    return sim::sweep(stream, spec);
  };
  const sim::SweepResult serial = run_axis(1);
  for (const unsigned threads : {1u, 4u}) {
    EXPECT_TRUE(run_axis(threads).faults == serial.faults)
        << "fault axis diverges (width 1 vs " << threads << ")";
  }
}

}  // namespace
}  // namespace rtsmooth
