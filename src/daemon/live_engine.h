// LiveEngine: the simulator pipeline (server -> link -> client) repackaged
// for endless serving (DESIGN.md Sect. 13).
//
// The batch SmoothingSimulator walks an immutable Stream to a known horizon.
// A daemon has neither: frames keep coming, so the memory a run occupies
// must be *recycled*. The engine keeps a fixed arena of SliceRun slots; an
// admitted frame becomes a unit-slice SliceRun pinned in its slot (the
// server buffer, link and client hold pointers into it), identified by a
// monotone sequence number that doubles as its run index. Everything else
// is the core pipeline: the SmoothingServer, the link, and the same Client
// the batch simulators run, whose FIFO window of live runs retires a run
// once every byte of it is terminal (played, dropped, lost, or written off)
// and books its losses then, in run-index order. A slot is reused only once
// its previous run has retired; a still-live target slot means the pipeline
// owes bytes from max_live_runs frames ago — admission is refused, which is
// the engine's built-in backpressure and keeps memory bounded forever.
// A drained engine's SimReport is therefore byte-identical to a batch run
// over the same arrivals, which tests/test_reconfig.cpp pins differentially
// against the reference oracle and the production simulator.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/generic_algorithm.h"
#include "core/link.h"
#include "core/metrics.h"
#include "core/slice.h"
#include "core/types.h"
#include "daemon/frame_source.h"
#include "obs/telemetry.h"
#include "trace/value_model.h"

namespace rtsmooth::daemon {

struct EngineConfig {
  Bytes server_buffer = 1;  ///< B
  Bytes client_buffer = 1;  ///< Bc
  Bytes rate = 1;           ///< R
  Time smoothing_delay = 1;  ///< D
  Time link_delay = 1;       ///< P
  std::string policy = "greedy";
  std::uint64_t policy_seed = 7;
  trace::ValueModel values = trace::ValueModel::mpeg_default();
  RecoveryConfig recovery{};
  /// Run-slot arena size == max frames simultaneously in flight anywhere in
  /// the pipeline. Admission refuses (backpressure) when the target slot is
  /// still owed bytes.
  std::size_t max_live_runs = 4096;

  Time playout_offset() const { return link_delay + smoothing_delay; }
  /// Empty when well-formed, else a human-readable problem description.
  std::string validate() const;
};

/// What one engine step did — the watchdog's sample and the daemon's ledger.
struct StepStats {
  Bytes arrived = 0;            ///< admitted bytes
  std::int64_t admitted = 0;    ///< admitted frames
  Bytes refused = 0;            ///< bytes refused for slot exhaustion
  std::int64_t refused_frames = 0;
  double refused_weight = 0.0;
  Bytes floor_shed = 0;     ///< bytes shed by the value floor this step
  Bytes sent = 0;
  Bytes delivered = 0;
  Bytes played = 0;
  Bytes dropped_server = 0;
  Bytes dropped_client = 0;  ///< late + overflow bytes
  Bytes retransmitted = 0;
  double offered_weight = 0.0;  ///< weight admitted this step
  double lost_weight = 0.0;     ///< weight newly in a loss category
  std::int64_t playouts = 0;    ///< frames whose playout step this was
  std::int64_t degraded = 0;    ///< playouts with bytes missing
  Bytes server_occupancy = 0;   ///< post-step
  Bytes client_occupancy = 0;   ///< post-step
  bool link_idle = false;
};

class LiveEngine {
 public:
  /// `link` overrides the default lossless FixedDelayLink(link_delay) —
  /// the daemon injects fault links here. Aborts on invalid config; call
  /// config.validate() first for a recoverable error path.
  LiveEngine(EngineConfig config, obs::Telemetry telemetry = {},
             std::unique_ptr<Link> link = nullptr);

  /// Runs one step at the engine-local time now(): NACK triage, admissions,
  /// value-floor shed (when `value_floor` > 0), Eq. (2)/(3) server step,
  /// link transfer, and the client's delivery, playout, capacity settling
  /// and run retirement. Frames refused for slot exhaustion are counted in the
  /// returned stats and are NOT part of the engine's offered ledger.
  StepStats step(std::span<const IngestFrame> frames, double value_floor = 0.0);

  /// Admission headroom in bytes: what this step can take without Eq. (3)
  /// shedding (B + R minus current occupancy). The daemon's admission-
  /// control rung budgets against this.
  Bytes admission_budget() const {
    const Bytes room = config_.server_buffer + config_.rate -
                       server_.buffer().occupancy();
    return room > 0 ? room : 0;
  }

  /// True when nothing is owed anywhere: server buffer and retransmission
  /// queue empty, link empty, no client-stored bytes, no live runs.
  bool quiescent() const {
    return aborted_ ||
           (server_.idle() && link_->idle() && client_.live_runs() == 0);
  }

  /// Client::abort_residual: books what live runs have already lost and
  /// moves everything they still owe (server-buffered, in flight,
  /// client-stored) into report().residual, then deactivates the engine,
  /// for drains that hit their ceiling (e.g. a permanent link outage).
  /// After this the engine is quiescent and must not be stepped.
  void abort_residual();

  /// Offset added to engine-local time in FlightRecorder step records, so a
  /// daemon's incident windows keep strictly rising timestamps across
  /// engine rebuilds. Semantic time (arrivals, deadlines) stays local.
  void set_record_base(Time base) { record_base_ = base; }

  Time now() const { return now_; }
  /// Admitted runs not yet retired by the client.
  std::int64_t active_runs() const {
    return static_cast<std::int64_t>(client_.live_runs());
  }
  const EngineConfig& config() const { return config_; }
  /// Cumulative report over everything admitted so far. conserves() holds
  /// exactly when no runs are live (drained or aborted).
  const SimReport& report() const { return report_; }
  Bytes server_occupancy() const { return server_.buffer().occupancy(); }
  Bytes client_occupancy() const { return client_.occupancy(); }

 private:
  void admit_frame(const IngestFrame& frame, StepStats& st);

  EngineConfig config_;
  obs::Telemetry telemetry_;
  SmoothingServer server_;
  std::unique_ptr<Link> link_;
  Client client_;
  /// slots_[seq % size] is the pinned run of sequence number seq, reusable
  /// once run seq has retired from the client's window.
  std::vector<SliceRun> slots_;
  std::vector<SentPiece> pieces_;
  SimReport report_;
  Time now_ = 0;
  Time record_base_ = 0;
  std::uint64_t next_seq_ = 0;
  bool aborted_ = false;
  // Instruments resolved once at construction; null when telemetry is off.
  obs::Counter* played_bytes_ = nullptr;
  obs::Counter* late_bytes_ = nullptr;
  obs::Counter* overflow_bytes_ = nullptr;
  obs::Gauge* max_client_occupancy_ = nullptr;
  obs::Counter* refused_frames_ = nullptr;
  obs::Counter* retired_runs_ = nullptr;
  obs::Gauge* max_lateness_ = nullptr;
  obs::Histogram* hist_slack_ = nullptr;     ///< playout_at - t, stored bytes
  obs::Histogram* hist_lateness_ = nullptr;  ///< t - playout_at, late bytes
};

}  // namespace rtsmooth::daemon
