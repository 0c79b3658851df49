#include "daemon/live_engine.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/flight_recorder.h"
#include "policies/policy_factory.h"
#include "util/assert.h"

namespace rtsmooth::daemon {
namespace {

std::size_t type_index(FrameType t) { return static_cast<std::size_t>(t); }

ServerConfig server_config(const EngineConfig& config) {
  ServerConfig sc{.buffer = config.server_buffer,
                  .rate = config.rate,
                  .recovery = config.recovery};
  sc.recovery.smoothing_delay = config.smoothing_delay;
  return sc;
}

Bytes piece_bytes(std::span<const SentPiece> pieces) {
  Bytes sum = 0;
  for (const SentPiece& piece : pieces) sum += piece.bytes;
  return sum;
}

/// Unit slices: n bytes are n slices worth n * value.
void add_units(Tally& tally, Bytes n, Weight value) {
  if (n > 0) tally.add(n, value * static_cast<Weight>(n), n);
}

double lost_weight_so_far(const SimReport& r) {
  return r.dropped_server.weight + r.dropped_client_overflow.weight +
         r.dropped_client_late.weight + r.lost_link.weight;
}

}  // namespace

std::string EngineConfig::validate() const {
  if (server_buffer < 1) return "server_buffer must be >= 1";
  if (client_buffer < 1) return "client_buffer must be >= 1";
  if (rate < 1) return "rate must be >= 1 byte/step";
  if (smoothing_delay < 0) return "smoothing_delay must be >= 0";
  if (link_delay < 0) return "link_delay must be >= 0";
  if (max_live_runs < 2) return "max_live_runs must be >= 2";
  if (recovery.max_retries < 0 || recovery.max_retries > 62) {
    return "recovery.max_retries must be in [0, 62]";
  }
  if (recovery.backoff_base < 1) return "recovery.backoff_base must be >= 1";
  return {};
}

LiveEngine::LiveEngine(EngineConfig config, obs::Telemetry telemetry,
                       std::unique_ptr<Link> link)
    : config_(std::move(config)),
      telemetry_(telemetry),
      server_(server_config(config_),
              make_policy(config_.policy, config_.policy_seed)),
      link_(link ? std::move(link)
                 : std::make_unique<FixedDelayLink>(config_.link_delay)) {
  RTS_EXPECTS(config_.validate().empty());
  slots_.resize(config_.max_live_runs);
  due_ring_.resize(static_cast<std::size_t>(config_.playout_offset()) + 2);
  arrived_this_step_.reserve(16);
  server_.set_link_loss_sink([this](const SliceRun& /*run*/,
                                    std::size_t run_index, Bytes bytes) {
    RunSlot& s = slot_of(run_index);
    s.link_lost += bytes;
    maybe_retire(s);
  });
  server_.set_drop_sink([this](const SliceRun& run, std::size_t run_index,
                               std::int64_t slices) {
    RunSlot& s = slot_of(run_index);
    s.dropped_server += run.slice_size * slices;
    maybe_retire(s);
  });
  if (telemetry_.enabled()) {
    server_.set_telemetry(telemetry_);
    link_->set_telemetry(telemetry_);
  }
  if (telemetry_.registry != nullptr) {
    obs::Registry& reg = *telemetry_.registry;
    played_bytes_ = &reg.counter("client.played_bytes");
    late_bytes_ = &reg.counter("client.late_bytes");
    overflow_bytes_ = &reg.counter("client.overflow_bytes");
    refused_frames_ = &reg.counter("daemon.admission.slot_refused_frames");
    retired_runs_ = &reg.counter("daemon.retired_runs");
    max_client_occupancy_ = &reg.gauge("client.max_occupancy");
    max_lateness_ = &reg.gauge("client.max_lateness_steps");
    // Updated only when a byte is late; seeded so a run with no late byte
    // publishes 0, not the empty gauge's INT64_MIN.
    max_lateness_->update(0);
    const obs::ExponentialBuckets steps_spec{1, 16};
    hist_slack_ = &reg.histogram("client.slack_steps", steps_spec);
    hist_lateness_ = &reg.histogram("client.lateness_steps", steps_spec);
  }
}

void LiveEngine::admit_frame(const IngestFrame& frame, StepStats& st) {
  RTS_EXPECTS(frame.size >= 1);
  RunSlot& s = slots_[next_seq_ % slots_.size()];
  if (s.active) {
    // The pipeline still owes bytes from max_live_runs frames ago:
    // backpressure instead of unbounded state.
    st.refused += frame.size;
    st.refused_frames += 1;
    st.refused_weight += config_.values.byte_value(frame.type) *
                         static_cast<double>(frame.size);
    if (refused_frames_ != nullptr) refused_frames_->add(1);
    return;
  }
  s = RunSlot{};
  s.seq = next_seq_++;
  s.active = true;
  s.run.arrival = now_;
  s.run.slice_size = 1;
  s.run.count = frame.size;
  s.run.weight = config_.values.byte_value(frame.type);
  s.run.frame_type = frame.type;
  s.run.frame_index = static_cast<Time>(s.seq);
  ++active_runs_;
  server_.admit(s.run, static_cast<std::size_t>(s.seq));
  due_ring_[static_cast<std::size_t>(
               (now_ + config_.playout_offset()) %
               static_cast<Time>(due_ring_.size()))]
      .push_back(s.seq);
  st.arrived += frame.size;
  st.admitted += 1;
  st.offered_weight += s.run.total_weight();
}

StepStats LiveEngine::step(std::span<const IngestFrame> frames,
                           double value_floor) {
  RTS_EXPECTS(!aborted_);
  const Time t = now_;
  StepStats st;
  const Bytes played_before = report_.played.bytes;
  const Bytes dropped_server_before = report_.dropped_server.bytes;
  const Bytes retx_before = report_.retransmitted_bytes;
  const Bytes client_dropped_before = total_late_ + total_overflow_;
  const double lost_weight_before = lost_weight_so_far(report_);

  const auto nacks = link_->collect_nacks(t);
  server_.begin_step(t, nacks, report_, nullptr);
  for (const IngestFrame& frame : frames) admit_frame(frame, st);
  if (value_floor > 0.0 && server_.buffer().occupancy() > 0) {
    st.floor_shed = server_.shed_below_value(value_floor, report_).bytes;
  }
  pieces_.clear();
  server_.finish_step(pieces_);
  st.sent = piece_bytes(pieces_);
  // An empty send is not submitted: moving an empty vector into the link
  // would surrender the recycled storage (same idiom as the simulator).
  if (!pieces_.empty()) link_->submit(t, std::move(pieces_));
  auto delivered = link_->deliver(t);
  st.delivered = piece_bytes(delivered);
  deliver(t, delivered);
  play(t, st);
  settle_capacity();
  report_.max_client_occupancy =
      std::max(report_.max_client_occupancy, occupancy_);
  if (max_client_occupancy_ != nullptr) max_client_occupancy_->update(occupancy_);
  RTS_ENSURES(occupancy_ >= 0);

  st.played = report_.played.bytes - played_before;
  st.dropped_server = report_.dropped_server.bytes - dropped_server_before;
  st.dropped_client = total_late_ + total_overflow_ - client_dropped_before;
  st.retransmitted = report_.retransmitted_bytes - retx_before;
  st.lost_weight = lost_weight_so_far(report_) - lost_weight_before;
  st.server_occupancy = server_.buffer().occupancy();
  st.client_occupancy = occupancy_;
  st.link_idle = link_->idle();

  if (telemetry_.recorder != nullptr) {
    obs::StepRecord record;
    record.t = record_base_ + t;
    record.arrived = st.arrived;
    record.sent = st.sent;
    record.delivered = st.delivered;
    record.played = st.played;
    record.dropped_server = st.dropped_server;
    record.dropped_client = st.dropped_client;
    record.retransmitted = st.retransmitted;
    record.server_occupancy = st.server_occupancy;
    record.client_occupancy = st.client_occupancy;
    record.link_idle = st.link_idle;
    record.stalled = st.degraded > 0;
    telemetry_.recorder->record(record);
  }

  if (pieces_.capacity() < delivered.capacity()) pieces_ = std::move(delivered);
  ++now_;
  report_.steps = now_;
  return st;
}

void LiveEngine::deliver(Time t, std::span<const SentPiece> pieces) {
  for (const SentPiece& piece : pieces) {
    RTS_ASSERT(piece.bytes > 0);
    RunSlot& s = slot_of(piece.run_index);
    const Time playout_at = s.run.arrival + config_.playout_offset();
    if (s.played_out || playout_at < t) {
      // deliver() runs before play() each step, so a missed deadline always
      // means playout_at < t: the byte is (t - playout_at) steps late.
      const Time lateness = t - playout_at;
      report_.max_lateness = std::max(report_.max_lateness, lateness);
      s.late_lost += piece.bytes;
      total_late_ += piece.bytes;
      if (late_bytes_ != nullptr) late_bytes_->add(piece.bytes);
      if (hist_lateness_ != nullptr) {
        hist_lateness_->record(lateness, piece.bytes);
        max_lateness_->update(report_.max_lateness);
      }
      maybe_retire(s);
      continue;
    }
    if (hist_slack_ != nullptr) {
      hist_slack_->record(playout_at - t, piece.bytes);
    }
    s.stored += piece.bytes;
    occupancy_ += piece.bytes;
    arrived_this_step_.push_back({s.seq, piece.bytes});
  }
}

void LiveEngine::play(Time t, StepStats& st) {
  auto& due =
      due_ring_[static_cast<std::size_t>(t % static_cast<Time>(due_ring_.size()))];
  for (const std::uint64_t seq : due) {
    RunSlot& s = slot_of(static_cast<std::size_t>(seq));
    RTS_ASSERT(!s.played_out);
    s.played_out = true;
    // Unit slices: every stored byte is a complete slice; leftovers cannot
    // occur, so Skip-vs-Stall underflow policies coincide here.
    const Bytes played = s.stored;
    s.played = played;
    occupancy_ -= s.stored;
    s.stored = 0;
    const Weight w = s.run.weight * static_cast<Weight>(played);
    report_.played.add(played, w, played);
    report_.played_by_type[type_index(s.run.frame_type)].add(played, w, played);
    if (played_bytes_ != nullptr) played_bytes_->add(played);
    st.playouts += 1;
    if (played < s.run.count) st.degraded += 1;
    maybe_retire(s);
  }
  due.clear();
}

void LiveEngine::settle_capacity() {
  // Evict the newest delivered bytes until the post-playout occupancy fits
  // (mirrors Client::settle_capacity byte for byte).
  while (occupancy_ > config_.client_buffer && !arrived_this_step_.empty()) {
    auto& [seq, bytes] = arrived_this_step_.back();
    RunSlot& s = slot_of(static_cast<std::size_t>(seq));
    const Bytes excess = occupancy_ - config_.client_buffer;
    const Bytes evict = std::min({excess, bytes, s.stored});
    if (evict == 0) {
      // This piece's frame already played this step; nothing left to evict.
      arrived_this_step_.pop_back();
      continue;
    }
    s.stored -= evict;
    s.overflow_lost += evict;
    total_overflow_ += evict;
    if (overflow_bytes_ != nullptr) overflow_bytes_->add(evict);
    occupancy_ -= evict;
    bytes -= evict;
    if (bytes == 0) arrived_this_step_.pop_back();
  }
  RTS_ASSERT(occupancy_ <= config_.client_buffer);
  arrived_this_step_.clear();
}

void LiveEngine::maybe_retire(RunSlot& s) {
  if (!s.played_out || s.accounted() != s.run.count) return;
  // After playout the slot stores nothing (play zeroes it; later deliveries
  // go to late_lost), so accounted()==count means no byte is owed anywhere —
  // not in the server buffer, the retransmission queue, the link, or the
  // client.
  RTS_ASSERT(s.stored == 0);
  book_losses(s);
  s.active = false;
  --active_runs_;
  if (retired_runs_ != nullptr) retired_runs_->add(1);
}

void LiveEngine::book_losses(const RunSlot& s) {
  add_units(report_.dropped_client_overflow, s.overflow_lost, s.run.weight);
  add_units(report_.lost_link, s.link_lost, s.run.weight);
  add_units(report_.dropped_client_late, s.late_lost, s.run.weight);
}

void LiveEngine::abort_residual() {
  RTS_EXPECTS(!aborted_);
  aborted_ = true;
  for (RunSlot& s : slots_) {
    if (!s.active) continue;
    // Classify what is already terminal exactly as maybe_retire would...
    book_losses(s);
    // ...and everything still owed (client-stored, server-buffered, in
    // flight, queued for retransmission) becomes residual in one number.
    const Bytes rem = s.run.count - s.accounted();
    RTS_ASSERT(rem >= 0);
    add_units(report_.residual, rem, s.run.weight);
    occupancy_ -= s.stored;
    s.stored = 0;
    s.active = false;
    --active_runs_;
  }
  RTS_ASSERT(active_runs_ == 0);
  occupancy_ = 0;
}

}  // namespace rtsmooth::daemon
