#include "core/client.h"

#include <algorithm>
#include <ranges>

#include "util/assert.h"

namespace rtsmooth {
namespace {

std::size_t type_index(FrameType t) { return static_cast<std::size_t>(t); }

}  // namespace

Client::Client(Bytes capacity, Time playout_offset, PlayoutMode mode,
               Time smoothing_delay, UnderflowPolicy underflow,
               Time max_stall)
    : capacity_(capacity),
      offset_(playout_offset),
      mode_(mode),
      smoothing_delay_(smoothing_delay),
      underflow_(underflow),
      max_stall_(max_stall) {
  RTS_EXPECTS(capacity >= 1);
  RTS_EXPECTS(playout_offset >= 0);
  RTS_EXPECTS(mode == PlayoutMode::ArrivalPlusOffset || smoothing_delay >= 0);
  RTS_EXPECTS(max_stall >= 0);
  // Steady-state allocation freedom: the window (runs between arrival and
  // retirement) and the per-step arrival scratch reach their steady size
  // during warm-up; a small reserve avoids even that for typical plans.
  window_.reserve(16);
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
  for (const SentPiece& piece : pieces) {
    RTS_ASSERT(piece.bytes > 0);
    if (rec != nullptr) rec->note_receive(piece.run_index, t, piece.bytes);
    RunState& rs = live(piece.run_index);
    if (mode_ == PlayoutMode::TimerFromFirstDelivery &&
        timer_base_ == kNever) {
      // Sect. 3.3: arm the timer on the first slice; its frame plays D
      // steps from now, and one frame per step thereafter.
      timer_frame_ = piece.run->arrival;
      timer_base_ = t + smoothing_delay_;
    }
    // The deadline a byte can miss: the step its frame actually played
    // (later stalls move playout_step() but not a frame already played),
    // else the frame's playout step.
    const Time deadline = rs.played_at != kNever
                              ? rs.played_at
                              : playout_step(piece.run->arrival);
    if (deadline < t) {
      // Deadline miss: the frame's playout step has passed (underflow at
      // playout already charged the slice; here we only account bytes).
      report.max_lateness = std::max(report.max_lateness, t - deadline);
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
  retire_settled(report);
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
  // Monotone due-span scan over the window: frame_time never decreases
  // across calls. The cursor only skips runs already strictly in the past —
  // a stalled frame re-derives the same span on the next call.
  // Positions below are window offsets (run index - retired_).
  const std::size_t live_count = window_.size();
  std::size_t first = play_cursor_ - retired_;
  while (first < live_count && window_[first].run->arrival < frame_time) {
    ++first;
  }
  play_cursor_ = retired_ + first;
  std::size_t due_end = first;
  while (due_end < live_count && window_[due_end].run->arrival == frame_time) {
    ++due_end;
  }
  if (underflow_ == UnderflowPolicy::Stall && due_end > first &&
      current_frame_stall_ < max_stall_) {
    // A partially-arrived slice signals bytes still in flight (delayed or
    // being retransmitted): pause playout one step and re-check. A frame
    // with only whole slices stored gets no benefit from waiting — the
    // missing slices were dropped at the server on purpose — and neither
    // does a gap the link has already written off (`link_lost`): stalling
    // for bytes that can never arrive only delays every later frame.
    for (std::size_t i = first; i < due_end; ++i) {
      const RunState& rs = window_[i];
      if ((rs.stored + rs.link_lost) % rs.run->slice_size != 0) {
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
  for (std::size_t i = first; i < due_end; ++i) {
    RunState& rs = window_[i];
    const SliceRun& run = *rs.run;
    RTS_ASSERT(rs.played_at == kNever);
    rs.played_at = t;
    const std::int64_t complete = rs.stored / run.slice_size;
    const Bytes played_bytes = complete * run.slice_size;
    const Bytes leftover = rs.stored - played_bytes;
    rs.played = complete;
    rs.late_lost += leftover;
    total_leftover_ += leftover;
    ++runs_played_;
    if (complete < run.count) ++runs_incomplete_;
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
      rec->run(retired_ + i).played = complete;
      if (complete > 0) rec->run(retired_ + i).play_time = t;
      rec->step().played += played_bytes;
      rec->step().dropped_client += leftover;
    }
  }
  // A played frame is never due again (the next call's frame is later), and
  // moving past it keeps the cursor at or after the window's front.
  play_cursor_ = retired_ + due_end;
}

Time Client::next_playout_event(Time now) const {
  Time frame_time;
  if (mode_ == PlayoutMode::ArrivalPlusOffset) {
    frame_time = now - offset_ - stall_shift_;
  } else {
    if (timer_base_ == kNever) return kNever;
    frame_time = timer_frame_ + (now - timer_base_ - stall_shift_);
  }
  // Runs before the cursor are in the past; the first admitted run at or
  // after frame_time is the next one play_frame() will find due.
  const auto positions = std::views::iota(play_cursor_ - retired_,
                                          window_.size());
  const auto next = std::ranges::partition_point(
      positions,
      [&](std::size_t i) { return window_[i].run->arrival < frame_time; });
  if (next == positions.end()) return kNever;
  return std::max(now, playout_step(window_[*next].run->arrival));
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
    RunState& rs = live(run_index);
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

void Client::add_link_loss(std::size_t run_index, Bytes bytes,
                           SimReport& report) {
  RTS_EXPECTS(bytes > 0);
  live(run_index).link_lost += bytes;
  retire_settled(report);
}

void Client::retire_front(SimReport& report) {
  const RunState& rs = window_.front();
  const SliceRun& run = *rs.run;
  if (rs.stored > 0) {
    // Never played (the run was cut off before the playout step): residual.
    // The partial bytes of an unfinished slice count as a residual slice.
    const std::int64_t whole = rs.stored / run.slice_size;
    report.residual.add(rs.stored, run.weight * static_cast<Weight>(whole),
                        whole);
    if (rs.stored % run.slice_size != 0) report.residual.slices += 1;
  } else if (rs.lost() > 0) {
    // Every transmitted byte was either played, lost at the client, or
    // erased in flight and written off; the server transmits whole slices
    // in the long run, so the combined loss forms whole slices once the
    // link drains.
    RTS_ASSERT(rs.lost() % run.slice_size == 0);
    book_losses(rs, report);
  }
  window_.pop_front();
  ++retired_;
}

std::int64_t Client::book_losses(const RunState& rs, SimReport& report) {
  const SliceRun& run = *rs.run;
  const Bytes lost_bytes = rs.lost();
  if (lost_bytes == 0) return 0;
  // Whole-slice counts go to each category by its own byte total; the
  // cross-category remainders (a slice split between, say, an erased half
  // and a late half) are charged to the deadline-miss bucket.
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
      rs.late_lost, run.weight * static_cast<Weight>(late_slices), late_slices);
  return lost_slices;
}

void Client::finalize(SimReport& report) {
  RTS_EXPECTS(!finalized_);
  finalized_ = true;
  while (!window_.empty()) {
    occupancy_ -= window_.front().stored;
    retire_front(report);
  }
  report.stall_steps += stall_shift_;
}

void Client::abort_residual(SimReport& report) {
  RTS_EXPECTS(!finalized_);
  finalized_ = true;
  while (!window_.empty()) {
    const RunState& rs = window_.front();
    const SliceRun& run = *rs.run;
    // A cut-off run's losses need not form whole slices yet: the whole
    // ones are booked as always, and everything not terminal — stored
    // here, in the server, in flight — is residual.
    const std::int64_t lost_slices = book_losses(rs, report);
    const Bytes owed = run.total_bytes() - rs.played * run.slice_size -
                       rs.dropped_server - rs.lost();
    const std::int64_t owed_slices = run.count - rs.played -
                                     rs.dropped_server / run.slice_size -
                                     lost_slices;
    RTS_ASSERT(owed >= 0 && owed_slices >= 0);
    report.residual.add(owed, run.weight * static_cast<Weight>(owed_slices),
                        owed_slices);
    window_.pop_front();
    ++retired_;
  }
  occupancy_ = 0;
  arrived_this_step_.clear();
  report.stall_steps += stall_shift_;
}

}  // namespace rtsmooth
