// Live broadcast: drive the server/link/client components step by step, the
// way an on-line system would — no global Stream pre-registered with a
// simulator, just frames showing up one slot at a time.
//
// This example uses the lower-level core API directly (SmoothingServer,
// FixedDelayLink, Client) to show what the SmoothingSimulator wires up for
// you, and prints a live "dashboard" every second of stream time.
//
// Run:  ./examples/live_broadcast

#include <cstdio>
#include <iostream>

#include "core/client.h"
#include "core/generic_algorithm.h"
#include "core/link.h"
#include "core/planner.h"
#include "policies/greedy_drop.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"
#include "util/stats.h"

int main() {
  using namespace rtsmooth;

  // A live feed: the encoder hands us 25 frames per second; we provision a
  // 1-second end-to-end smoothing delay and a link at 90% of the *expected*
  // rate (for live content the true average is unknown in advance).
  const std::size_t seconds = 40;
  const trace::FrameSequence frames =
      trace::stock_clip("action", 25 * seconds);
  const Stream stream = trace::slice_frames(
      frames, trace::ValueModel::mpeg_default(), trace::Slicing::ByteSlices);

  const Bytes expected_rate = 36 * 1024;  // capacity bought from the carrier
  const Plan plan = Planner::from_delay_rate(/*delay=*/25, expected_rate);
  const Time link_delay = 3;  // 120 ms propagation

  SmoothingServer server(
      ServerConfig{.buffer = plan.buffer, .rate = plan.rate},
      std::make_unique<GreedyDropPolicy>());
  FixedDelayLink link(link_delay);
  Client client(plan.buffer, link_delay + plan.delay);

  std::cout << "live feed: 25 fps, greedy dropping, R = "
            << format_bytes(static_cast<double>(plan.rate)) << "/frame, D = "
            << plan.delay << " frames, B = "
            << format_bytes(static_cast<double>(plan.buffer)) << "\n\n"
            << "  sec |  offered |   played | srv-buf%% | wloss%%\n"
            << "  ----+----------+----------+----------+-------\n";

  SimReport report;
  // Server drops reach the client's ledger, so each frame's record is
  // closed as soon as the frame has played and nothing of it is owed.
  server.set_drop_sink([&client, &report](const SliceRun& /*run*/,
                                          std::size_t run_index,
                                          std::int64_t slices) {
    client.add_server_drop(run_index, slices, report);
  });
  ArrivalCursor cursor(stream);
  const Time horizon = stream.horizon();
  const Time last = horizon + link_delay + plan.delay;
  for (Time t = 0; t <= last; ++t) {
    const ArrivalBatch batch = cursor.step(t);
    for (std::size_t i = 0; i < batch.runs.size(); ++i) {
      client.admit(batch.runs[i], batch.first_index + i);
    }
    auto pieces = server.step(t, batch, report, nullptr);
    link.submit(t, std::move(pieces));
    const auto delivered = link.deliver(t);
    client.deliver(t, delivered, report, nullptr);
    client.play(t, report, nullptr);
    if (t % (25 * 5) == 0 && t > 0) {
      std::printf("  %3lld | %7.1fMB | %7.1fMB | %7.1f%% | %5.2f%%\n",
                  static_cast<long long>(t / 25),
                  static_cast<double>(report.offered.bytes) / (1 << 20),
                  static_cast<double>(report.played.bytes) / (1 << 20),
                  100.0 * static_cast<double>(server.buffer().occupancy()) /
                      static_cast<double>(plan.buffer),
                  100.0 * report.weighted_loss());
    }
  }
  client.finalize(report);
  server.account_residual(report);

  std::cout << "\nfinal: " << report << "\n"
            << "conservation check: "
            << (report.conserves() ? "ok" : "VIOLATED") << "\n";
  return 0;
}
