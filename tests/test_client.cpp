// Unit tests for the client: reconstruction, playout timing (PT = AT+P+D),
// overflow refusal, deadline misses, and end-of-run loss attribution.

#include <gtest/gtest.h>

#include "core/client.h"
#include "stream_helpers.h"

namespace rtsmooth {
namespace {

using testing::stream_of;
using testing::units;

/// Opens every run's ledger up front, as a simulator admitting them on
/// arrival would have by the time their bytes show up.
void admit_all(Client& client, const Stream& s) {
  for (std::size_t i = 0; i < s.run_count(); ++i) {
    client.admit(s.runs()[i], i);
  }
}

std::vector<SentPiece> piece_of(const Stream& s, std::size_t run_index,
                                Bytes bytes, std::int64_t completed) {
  return {SentPiece{.run = &s.runs()[run_index],
                    .run_index = run_index,
                    .bytes = bytes,
                    .completed_slices = completed}};
}

TEST(Client, PlaysCompleteFrameAtOffset) {
  const Stream s = stream_of({units(0, 4, 2.0)});
  SimReport report;
  Client client(/*capacity=*/100, /*playout_offset=*/3);
  admit_all(client, s);
  client.deliver(1, piece_of(s, 0, 4, 4), report, nullptr);
  client.play(1, report, nullptr);
  client.play(2, report, nullptr);
  EXPECT_EQ(report.played.bytes, 0);  // not its playout step yet
  client.play(3, report, nullptr);    // frame 0 plays at 0 + offset
  EXPECT_EQ(report.played.bytes, 4);
  EXPECT_EQ(report.played.slices, 4);
  EXPECT_DOUBLE_EQ(report.played.weight, 8.0);
  EXPECT_EQ(client.occupancy(), 0);
  client.finalize(report);
  EXPECT_EQ(report.dropped_client_late.bytes, 0);
  EXPECT_EQ(report.dropped_client_overflow.bytes, 0);
}

TEST(Client, BytesArrivingAtPlayoutStepStillPlay) {
  // Lemma 3.3's equality case RT = AT + P + B/R must count as on time.
  const Stream s = stream_of({units(0, 2)});
  SimReport report;
  Client client(100, 2);
  admit_all(client, s);
  client.deliver(2, piece_of(s, 0, 2, 2), report, nullptr);
  client.play(2, report, nullptr);
  EXPECT_EQ(report.played.slices, 2);
}

TEST(Client, LateBytesAreDeadlineMisses) {
  const Stream s = stream_of({units(0, 3)});
  SimReport report;
  Client client(100, 1);
  admit_all(client, s);
  client.play(1, report, nullptr);  // playout step passes, nothing stored
  client.deliver(2, piece_of(s, 0, 3, 3), report, nullptr);
  client.finalize(report);
  EXPECT_EQ(report.played.bytes, 0);
  EXPECT_EQ(report.dropped_client_late.bytes, 3);
  EXPECT_EQ(report.dropped_client_late.slices, 3);
}

TEST(Client, OverflowEvictsExcessAfterPlayout) {
  const Stream s = stream_of({units(0, 8)});
  SimReport report;
  Client client(/*capacity=*/5, /*playout_offset=*/4);
  admit_all(client, s);
  client.deliver(1, piece_of(s, 0, 8, 8), report, nullptr);
  client.play(1, report, nullptr);  // settles capacity for the step
  EXPECT_EQ(client.occupancy(), 5);
  for (Time t = 2; t <= 4; ++t) client.play(t, report, nullptr);
  EXPECT_EQ(report.played.slices, 5);
  client.finalize(report);
  EXPECT_EQ(report.dropped_client_overflow.bytes, 3);
  EXPECT_EQ(report.dropped_client_overflow.slices, 3);
}

TEST(Client, SameStepPlayoutMakesRoomBeforeCapacityCheck) {
  // Lemma 3.4's accounting: |Bc(t)| is measured after frame t leaves, so a
  // delivery that transiently exceeds Bc while the playing frame departs is
  // not an overflow.
  const Stream s = stream_of({units(0, 4), units(1, 4)});
  SimReport report;
  Client client(/*capacity=*/4, /*playout_offset=*/2);
  admit_all(client, s);
  client.deliver(1, piece_of(s, 0, 4, 4), report, nullptr);
  client.play(1, report, nullptr);
  client.deliver(2, piece_of(s, 1, 4, 4), report, nullptr);  // 8 transient
  client.play(2, report, nullptr);  // frame 0 plays, frame 1 fits
  client.play(3, report, nullptr);
  client.finalize(report);
  EXPECT_EQ(report.played.slices, 8);
  EXPECT_EQ(report.dropped_client_overflow.bytes, 0);
}

TEST(Client, IncompleteSliceDoesNotPlay) {
  // 2 slices of 5 bytes; only 7 bytes arrive by playout: one slice plays,
  // the 2 leftover bytes are charged to the client (late bucket), and the
  // 3 straggler bytes arriving later are late too.
  const Stream s = stream_of(
      {SliceRun{.arrival = 0, .slice_size = 5, .count = 2, .weight = 5.0}});
  SimReport report;
  Client client(100, 2);
  admit_all(client, s);
  client.deliver(1, piece_of(s, 0, 7, 1), report, nullptr);
  client.play(2, report, nullptr);
  EXPECT_EQ(report.played.slices, 1);
  EXPECT_EQ(report.played.bytes, 5);
  client.deliver(3, piece_of(s, 0, 3, 1), report, nullptr);
  client.finalize(report);
  EXPECT_EQ(report.dropped_client_late.bytes, 5);
  EXPECT_EQ(report.dropped_client_late.slices, 1);
}

TEST(Client, UnboundedCapacityNeverOverflows) {
  const Stream s = stream_of({units(0, 1000000)});
  SimReport report;
  Client client(Client::kUnbounded, 5);
  admit_all(client, s);
  client.deliver(1, piece_of(s, 0, 1000000, 1000000), report, nullptr);
  EXPECT_EQ(client.occupancy(), 1000000);
  for (Time t = 1; t <= 5; ++t) client.play(t, report, nullptr);
  EXPECT_EQ(report.played.slices, 1000000);
}

TEST(Client, MaxOccupancyTracked) {
  const Stream s = stream_of({units(0, 4), units(1, 4)});
  SimReport report;
  Client client(100, 3);
  admit_all(client, s);
  client.deliver(1, piece_of(s, 0, 4, 4), report, nullptr);
  client.play(1, report, nullptr);
  client.deliver(2, piece_of(s, 1, 4, 4), report, nullptr);
  client.play(2, report, nullptr);
  EXPECT_EQ(report.max_client_occupancy, 8);
}

TEST(Client, ResidualWhenNeverPlayed) {
  const Stream s = stream_of({units(0, 6)});
  SimReport report;
  Client client(100, 10);
  admit_all(client, s);
  client.deliver(1, piece_of(s, 0, 6, 6), report, nullptr);
  client.finalize(report);  // playout never reached
  EXPECT_EQ(report.residual.bytes, 6);
  EXPECT_EQ(report.residual.slices, 6);
}

TEST(Client, RecorderGetsPlayTimeAndReceiveTimes) {
  const Stream s = stream_of({units(0, 2)});
  SimReport report;
  ScheduleRecorder rec(s.run_count(), ScheduleRecorder::Level::RunsAndSteps);
  Client client(100, 2);
  admit_all(client, s);
  rec.begin_step(1);
  client.deliver(1, piece_of(s, 0, 2, 2), report, &rec);
  client.play(1, report, &rec);
  rec.begin_step(2);
  client.play(2, report, &rec);
  EXPECT_EQ(rec.run(0).first_receive, 1);
  EXPECT_EQ(rec.run(0).play_time, 2);
  EXPECT_EQ(rec.run(0).played, 2);
}

TEST(Client, RunsRetireInIndexOrderOnceEveryByteIsTerminal) {
  // Run 1 is complete at its playout step, but run 0 still owes two bytes:
  // run 1 waits behind it, and both leave when run 0's stragglers land.
  const Stream s = stream_of({units(0, 4), units(1, 4)});
  SimReport report;
  Client client(100, 2);
  admit_all(client, s);
  client.deliver(1, piece_of(s, 0, 2, 2), report, nullptr);
  client.play(1, report, nullptr);
  client.play(2, report, nullptr);  // run 0 plays 2 of its 4 bytes
  client.deliver(2, piece_of(s, 1, 4, 4), report, nullptr);
  client.play(3, report, nullptr);  // run 1 plays in full
  EXPECT_EQ(client.retired_runs(), 0u);
  EXPECT_EQ(client.live_runs(), 2u);
  client.deliver(4, piece_of(s, 0, 2, 2), report, nullptr);  // late
  client.play(4, report, nullptr);
  EXPECT_EQ(client.retired_runs(), 2u);
  EXPECT_EQ(client.live_runs(), 0u);
  EXPECT_EQ(report.dropped_client_late.bytes, 2);
  EXPECT_EQ(report.max_lateness, 2);
  EXPECT_EQ(report.played.bytes, 6);
}

TEST(Client, AbortResidualKeepsWholeSliceLossesAndOwesTheRest) {
  // 4 slices of 5 bytes: one dropped at the server, one played, 2 bytes
  // left incomplete at playout plus 1 straggler (3 late bytes, no whole
  // slice), and 7 bytes never delivered when the run is cut off.
  const Stream s = stream_of(
      {SliceRun{.arrival = 0, .slice_size = 5, .count = 4, .weight = 2.0}});
  SimReport report;
  report.offered.add(20, 8.0, 4);
  Client client(100, 2);
  admit_all(client, s);
  report.dropped_server.add(5, 2.0, 1);  // as the server tallies it
  client.add_server_drop(0, 1, report);
  client.deliver(1, piece_of(s, 0, 7, 1), report, nullptr);
  client.play(2, report, nullptr);
  client.deliver(3, piece_of(s, 0, 1, 0), report, nullptr);
  client.abort_residual(report);
  EXPECT_EQ(report.played.slices, 1);
  EXPECT_EQ(report.dropped_client_late.bytes, 3);
  EXPECT_EQ(report.dropped_client_late.slices, 0);
  EXPECT_EQ(report.residual.bytes, 7);
  EXPECT_EQ(report.residual.slices, 2);
  EXPECT_DOUBLE_EQ(report.residual.weight, 4.0);
  EXPECT_TRUE(report.conserves());
  EXPECT_EQ(client.live_runs(), 0u);
  EXPECT_EQ(client.occupancy(), 0);
}

using ClientDeathTest = ::testing::Test;

TEST(ClientDeathTest, DoubleFinalizeAborts) {
  const Stream s = stream_of({units(0, 1)});
  SimReport report;
  Client client(10, 1);
  admit_all(client, s);
  client.finalize(report);
  EXPECT_DEATH(client.finalize(report), "precondition");
}

}  // namespace
}  // namespace rtsmooth
