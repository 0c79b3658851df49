#include "core/client.h"

#include <algorithm>

#include "util/assert.h"

namespace rtsmooth {
namespace {

std::size_t type_index(FrameType t) { return static_cast<std::size_t>(t); }

}  // namespace

Client::Client(const Stream& stream, Bytes capacity, Time playout_offset,
               PlayoutMode mode, Time smoothing_delay,
               UnderflowPolicy underflow, Time max_stall)
    : stream_(&stream),
      capacity_(capacity),
      offset_(playout_offset),
      mode_(mode),
      smoothing_delay_(smoothing_delay),
      underflow_(underflow),
      max_stall_(max_stall),
      runs_(stream.run_count()) {
  RTS_EXPECTS(capacity >= 1);
  RTS_EXPECTS(playout_offset >= 0);
  RTS_EXPECTS(mode == PlayoutMode::ArrivalPlusOffset || smoothing_delay >= 0);
  RTS_EXPECTS(max_stall >= 0);
  // Steady-state allocation freedom: the per-step arrival scratch grows at
  // most to the largest number of pieces delivered in one step, which the
  // first few steps establish; reserving a handful avoids even that.
  arrived_this_step_.reserve(8);
}

void Client::set_telemetry(obs::Telemetry telemetry) {
  if (telemetry.registry == nullptr) return;
  obs::Registry& reg = *telemetry.registry;
  // Eager creation keeps snapshots structurally identical across runs (a
  // lossless run reports client.late_bytes = 0 rather than omitting it).
  played_bytes_ = &reg.counter("client.played_bytes");
  late_bytes_ = &reg.counter("client.late_bytes");
  overflow_bytes_ = &reg.counter("client.overflow_bytes");
  underflow_count_ = &reg.counter("client.underflow_events");
  occupancy_hist_ = &reg.histogram("client.occupancy",
                                   obs::ExponentialBuckets{1, 32});
  stall_run_hist_ = &reg.histogram("client.stall_run_length",
                                   obs::ExponentialBuckets{1, 16});
  max_occupancy_ = &reg.gauge("client.max_occupancy");
}

void Client::deliver(Time t, std::span<const SentPiece> pieces,
                     SimReport& report, ScheduleRecorder* rec) {
  (void)report;
  for (const SentPiece& piece : pieces) {
    RTS_ASSERT(piece.bytes > 0);
    if (rec != nullptr) rec->note_receive(piece.run_index, t, piece.bytes);
    RunState& rs = runs_[piece.run_index];
    if (mode_ == PlayoutMode::TimerFromFirstDelivery &&
        timer_base_ == kNever) {
      // Sect. 3.3: arm the timer on the first slice; its frame plays D
      // steps from now, and one frame per step thereafter.
      timer_frame_ = piece.run->arrival;
      timer_base_ = t + smoothing_delay_;
    }
    const Time playout_at = playout_step(piece.run->arrival);
    if (rs.played_out || playout_at < t) {
      // Deadline miss: the frame's playout step has passed (underflow at
      // playout already charged the slice; here we only account bytes).
      rs.late_lost += piece.bytes;
      total_late_ += piece.bytes;
      if (late_bytes_ != nullptr) late_bytes_->add(piece.bytes);
      if (rec != nullptr) rec->step().dropped_client += piece.bytes;
      continue;
    }
    // Tentative store; play() settles the capacity bound afterwards.
    rs.stored += piece.bytes;
    occupancy_ += piece.bytes;
    arrived_this_step_.push_back({piece.run_index, piece.bytes});
  }
}

void Client::play(Time t, SimReport& report, ScheduleRecorder* rec) {
  play_frame(t, report, rec);
  settle_capacity(rec);
  report.max_client_occupancy =
      std::max(report.max_client_occupancy, occupancy_);
  if (occupancy_hist_ != nullptr) {
    occupancy_hist_->record(occupancy_);
    max_occupancy_->update(occupancy_);
  }
  RTS_ENSURES(occupancy_ >= 0);
}

void Client::play_frame(Time t, SimReport& report, ScheduleRecorder* rec) {
  Time frame_time;
  if (mode_ == PlayoutMode::ArrivalPlusOffset) {
    frame_time = t - offset_ - stall_shift_;
  } else {
    if (timer_base_ == kNever || t < timer_base_ + stall_shift_) return;
    frame_time = timer_frame_ + (t - timer_base_ - stall_shift_);
  }
  if (frame_time < 0) return;
  // Monotone due-span scan: frame_time never decreases across calls, so the
  // cursor replaces arrivals_at()'s per-step binary search. The cursor only
  // skips runs already strictly in the past — a stalled frame re-derives the
  // same span on the next call.
  const auto all = stream_->runs();
  while (play_cursor_ < all.size() &&
         all[play_cursor_].arrival < frame_time) {
    ++play_cursor_;
  }
  std::size_t due_end = play_cursor_;
  while (due_end < all.size() && all[due_end].arrival == frame_time) {
    ++due_end;
  }
  const std::span<const SliceRun> due =
      all.subspan(play_cursor_, due_end - play_cursor_);
  if (underflow_ == UnderflowPolicy::Stall && !due.empty() &&
      current_frame_stall_ < max_stall_) {
    // A partially-arrived slice signals bytes still in flight (delayed or
    // being retransmitted): pause playout one step and re-check. A frame
    // with only whole slices stored gets no benefit from waiting — the
    // missing slices were dropped at the server on purpose — and neither
    // does a gap the link has already written off (`link_lost`): stalling
    // for bytes that can never arrive only delays every later frame.
    for (const SliceRun& run : due) {
      const auto run_index =
          static_cast<std::size_t>(&run - stream_->runs().data());
      const RunState& rs = runs_[run_index];
      if (!rs.played_out && (rs.stored + rs.link_lost) % run.slice_size != 0) {
        ++stall_shift_;
        ++current_frame_stall_;
        return;
      }
    }
  }
  if (stall_run_hist_ != nullptr && current_frame_stall_ > 0) {
    // The frame now due stops stalling here — either complete at last or out
    // of budget; either way the run length is final.
    stall_run_hist_->record(current_frame_stall_);
  }
  current_frame_stall_ = 0;
  for (const SliceRun& run : due) {
    const auto run_index =
        static_cast<std::size_t>(&run - stream_->runs().data());
    RunState& rs = runs_[run_index];
    RTS_ASSERT(!rs.played_out);
    rs.played_out = true;
    const std::int64_t complete = rs.stored / run.slice_size;
    const Bytes played_bytes = complete * run.slice_size;
    const Bytes leftover = rs.stored - played_bytes;
    rs.played = complete;
    rs.leftover_lost += leftover;
    total_leftover_ += leftover;
    if (leftover > 0) {
      ++underflow_events_;
      if (underflow_count_ != nullptr) underflow_count_->add(1);
    }
    if (played_bytes_ != nullptr) played_bytes_->add(played_bytes);
    occupancy_ -= rs.stored;
    rs.stored = 0;
    report.played.add(played_bytes, run.weight * static_cast<Weight>(complete),
                      complete);
    report.played_by_type[type_index(run.frame_type)].add(
        played_bytes, run.weight * static_cast<Weight>(complete), complete);
    if (rec != nullptr) {
      rec->run(run_index).played = complete;
      if (complete > 0) rec->run(run_index).play_time = t;
      rec->step().played += played_bytes;
      rec->step().dropped_client += leftover;
    }
  }
}

Time Client::next_playout_event(Time now) const {
  Time frame_time;
  if (mode_ == PlayoutMode::ArrivalPlusOffset) {
    frame_time = now - offset_ - stall_shift_;
  } else {
    if (timer_base_ == kNever) return kNever;
    frame_time = timer_frame_ + (now - timer_base_ - stall_shift_);
  }
  // Runs before the cursor are strictly in the past; the first run at or
  // after frame_time is the next one play_frame() will find due.
  const auto all = stream_->runs();
  const auto it = std::lower_bound(
      all.begin() + static_cast<std::ptrdiff_t>(play_cursor_), all.end(),
      frame_time,
      [](const SliceRun& run, Time ft) { return run.arrival < ft; });
  if (it == all.end()) return kNever;
  const Time playout =
      mode_ == PlayoutMode::ArrivalPlusOffset
          ? it->arrival + offset_ + stall_shift_
          : timer_base_ + stall_shift_ + (it->arrival - timer_frame_);
  return std::max(now, playout);
}

void Client::record_idle_steps(std::int64_t n) {
  RTS_EXPECTS(occupancy_ == 0);
  if (occupancy_hist_ == nullptr) return;
  occupancy_hist_->record(0, n);
  max_occupancy_->update(0);
}

void Client::settle_capacity(ScheduleRecorder* rec) {
  // Evict the newest delivered bytes until the post-playout occupancy fits.
  // Only this step's arrivals can be in excess: the previous step ended
  // within capacity.
  while (occupancy_ > capacity_ && !arrived_this_step_.empty()) {
    auto& [run_index, bytes] = arrived_this_step_.back();
    RunState& rs = runs_[run_index];
    const Bytes excess = occupancy_ - capacity_;
    const Bytes evict = std::min({excess, bytes, rs.stored});
    if (evict == 0) {
      // This piece's frame already played this step; nothing left to evict.
      arrived_this_step_.pop_back();
      continue;
    }
    rs.stored -= evict;
    rs.overflow_lost += evict;
    total_overflow_ += evict;
    if (overflow_bytes_ != nullptr) overflow_bytes_->add(evict);
    occupancy_ -= evict;
    bytes -= evict;
    if (rec != nullptr) rec->step().dropped_client += evict;
    if (bytes == 0) arrived_this_step_.pop_back();
  }
  RTS_ASSERT(occupancy_ <= capacity_);
  arrived_this_step_.clear();
}

void Client::add_link_loss(std::size_t run_index, Bytes bytes) {
  RTS_EXPECTS(run_index < runs_.size());
  RTS_EXPECTS(bytes > 0);
  runs_[run_index].link_lost += bytes;
}

void Client::finalize(SimReport& report) {
  RTS_EXPECTS(!finalized_);
  finalized_ = true;
  const auto runs = stream_->runs();
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    RunState& rs = runs_[i];
    const SliceRun& run = runs[i];
    // Anything still stored was never played (simulation truncated before
    // this run's playout step): report as residual.
    if (rs.stored > 0) {
      const std::int64_t whole = rs.stored / run.slice_size;
      report.residual.add(rs.stored, run.weight * static_cast<Weight>(whole),
                          whole);
      // Partial bytes of an unfinished slice belong to a slice counted
      // elsewhere only once fully accounted; treat the fraction as residual
      // bytes of a residual slice.
      if (rs.stored % run.slice_size != 0) report.residual.slices += 1;
      occupancy_ -= rs.stored;
      rs.stored = 0;
      continue;
    }
    const Bytes lost_bytes =
        rs.overflow_lost + rs.late_lost + rs.leftover_lost + rs.link_lost;
    if (lost_bytes == 0) continue;
    // Every transmitted byte was either played, lost at the client, or
    // erased in flight and written off; the server transmits whole slices in
    // the long run, so the combined loss always forms whole slices once the
    // link drains. Whole-slice counts go to each category by its own byte
    // total; the cross-category remainders (a slice split between, say, an
    // erased half and a late half) are charged to the deadline-miss bucket.
    RTS_ASSERT(lost_bytes % run.slice_size == 0);
    const std::int64_t lost_slices = lost_bytes / run.slice_size;
    const std::int64_t overflow_slices = rs.overflow_lost / run.slice_size;
    const std::int64_t link_slices = rs.link_lost / run.slice_size;
    const std::int64_t late_slices = lost_slices - overflow_slices - link_slices;
    RTS_ASSERT(late_slices >= 0);
    report.dropped_client_overflow.add(
        rs.overflow_lost, run.weight * static_cast<Weight>(overflow_slices),
        overflow_slices);
    report.lost_link.add(rs.link_lost,
                         run.weight * static_cast<Weight>(link_slices),
                         link_slices);
    report.dropped_client_late.add(
        rs.late_lost + rs.leftover_lost,
        run.weight * static_cast<Weight>(late_slices), late_slices);
  }
  report.stall_steps += stall_shift_;
}

}  // namespace rtsmooth
