#include "sim/simulator.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "faults/invariant_monitor.h"
#include "obs/flight_recorder.h"
#include "obs/trace_writer.h"
#include "policies/policy_factory.h"
#include "util/assert.h"

namespace rtsmooth::sim {
namespace {

/// Throws with the validation message before any member with aborting
/// preconditions is constructed.
const Stream& validated(const Stream& stream, const SimConfig& config) {
  std::string problem = config.validate(stream);
  if (!problem.empty()) {
    throw std::invalid_argument("SimConfig: " + std::move(problem));
  }
  return stream;
}

Bytes piece_bytes(std::span<const SentPiece> pieces) {
  Bytes sum = 0;
  for (const SentPiece& piece : pieces) sum += piece.bytes;
  return sum;
}

/// Everything the client has discarded so far, matching the CSV step trace's
/// dropped_client semantics (late + overflow + partial slices at playout).
Bytes client_dropped_so_far(const Client& client) {
  return client.late_bytes_so_far() + client.overflow_bytes_so_far() +
         client.leftover_bytes_so_far();
}

ServerConfig server_config(const SimConfig& config) {
  ServerConfig sc{.buffer = config.server_buffer,
                  .rate = config.rate,
                  .recovery = config.recovery};
  // The deadline test lives at the server but D is a simulation-level
  // parameter; keep callers from having to thread it twice.
  sc.recovery.smoothing_delay = config.smoothing_delay;
  return sc;
}

}  // namespace

std::string SimConfig::validate(const Stream& stream) const {
  // Happy-path exit before any ostringstream is constructed: validate runs
  // once per simulation, and sweeps construct simulators by the thousand.
  if (server_buffer >= 1 && client_buffer >= 1 && rate >= 1 &&
      smoothing_delay >= 0 && link_delay >= 0 &&
      server_buffer >= stream.max_slice_size() && max_stall >= 0 &&
      recovery.max_retries >= 0 && recovery.backoff_base >= 1 &&
      recovery.max_retries <= 62) {
    return {};
  }
  std::ostringstream msg;
  if (server_buffer < 1) {
    msg << "server_buffer must be >= 1, got " << server_buffer;
  } else if (client_buffer < 1) {
    msg << "client_buffer must be >= 1, got " << client_buffer;
  } else if (rate < 1) {
    msg << "rate must be >= 1 byte/step, got " << rate;
  } else if (smoothing_delay < 0) {
    msg << "smoothing_delay must be >= 0, got " << smoothing_delay;
  } else if (link_delay < 0) {
    msg << "link_delay must be >= 0, got " << link_delay;
  } else if (server_buffer < stream.max_slice_size()) {
    msg << "server_buffer (" << server_buffer
        << " bytes) is smaller than the stream's largest slice ("
        << stream.max_slice_size()
        << " bytes); a slice that cannot fit the buffer can never be "
           "scheduled — grow the buffer or cut finer slices";
  } else if (max_stall < 0) {
    msg << "max_stall must be >= 0, got " << max_stall;
  } else if (recovery.max_retries < 0) {
    msg << "recovery.max_retries must be >= 0, got " << recovery.max_retries;
  } else if (recovery.backoff_base < 1) {
    msg << "recovery.backoff_base must be >= 1 slot, got "
        << recovery.backoff_base;
  } else if (recovery.backoff_base > 0 && recovery.max_retries > 62) {
    msg << "recovery.max_retries (" << recovery.max_retries
        << ") would overflow the exponential backoff; keep it <= 62";
  }
  return std::move(msg).str();
}

SmoothingSimulator::SmoothingSimulator(const Stream& stream, SimConfig config,
                                       std::unique_ptr<DropPolicy> policy,
                                       std::unique_ptr<Link> link)
    : stream_(&validated(stream, config)),
      config_(config),
      server_(server_config(config), std::move(policy)),
      link_(link ? std::move(link)
                 : std::make_unique<FixedDelayLink>(config.link_delay)),
      client_(config.client_buffer,
              config.link_delay + config.smoothing_delay, config.playout,
              config.smoothing_delay, config.underflow, config.max_stall) {
  if (config_.telemetry.enabled()) {
    server_.set_telemetry(config_.telemetry);
    client_.set_telemetry(config_.telemetry);
    link_->set_telemetry(config_.telemetry);
  }
}

SimReport SmoothingSimulator::run(ScheduleRecorder* rec) {
  RTS_EXPECTS(!ran_);
  ran_ = true;
  SimReport report;
  ArrivalCursor cursor(*stream_);
  faults::InvariantMonitor monitor(config_.server_buffer, config_.rate,
                                   config_.telemetry);
  // The client's ledger hears of every byte that turns terminal outside it,
  // so each run retires once it has played out and nothing is owed. The
  // sinks fire only inside the server steps below, while `report` lives.
  server_.set_link_loss_sink([this, &report](const SliceRun& /*run*/,
                                             std::size_t run_index,
                                             Bytes bytes) {
    client_.add_link_loss(run_index, bytes, report);
  });
  server_.set_drop_sink([this, &report](const SliceRun& /*run*/,
                                        std::size_t run_index,
                                        std::int64_t slices) {
    client_.add_server_drop(run_index, slices, report);
  });

  // Telemetry instruments, resolved once; all null when disabled, so the
  // per-step cost of the instrumentation below is a handful of predictable
  // branches. With a registry the "server.step" timer is resolved here too
  // and times only every kStepTimerPeriod-th step (obs/telemetry.h), so the
  // remaining per-step cost is the histogram records.
  obs::Registry* reg = config_.telemetry.registry;
  obs::TraceWriter* tracer = config_.telemetry.tracer;
  obs::FlightRecorder* recorder = config_.telemetry.recorder;
  obs::Histogram* step_timer = config_.telemetry.timer("server.step");
  obs::Histogram* sojourn_hist = nullptr;
  obs::Histogram* burst_hist = nullptr;
  if (reg != nullptr) {
    // Lemma 3.2 in distribution form: on a lossless balanced run every
    // byte-weighted sample is <= ceil(B/R), so max() pins the bound.
    sojourn_hist = &reg->histogram("byte.sojourn_steps",
                                   obs::ExponentialBuckets{1, 24});
    burst_hist = &reg->histogram("drop.burst_length",
                                 obs::ExponentialBuckets{1, 16});
  }
  // The tracer's config event and the flight recorder's incident context
  // carry the same run parameters, so an incident report stays
  // self-contained (DESIGN.md Sect. 11).
  const auto fill_config = [this](obs::Json& event) {
    event["server_buffer"] = config_.server_buffer;
    event["client_buffer"] = config_.client_buffer;
    event["rate"] = config_.rate;
    event["smoothing_delay"] = config_.smoothing_delay;
    event["link_delay"] = config_.link_delay;
    event["runs"] = static_cast<std::int64_t>(stream_->run_count());
  };
  if (tracer != nullptr) {
    obs::Json event = obs::Json::object();
    event["type"] = "config";
    fill_config(event);
    tracer->write(event);
  }
  if (recorder != nullptr) {
    // annotate() rather than set_context(): a sweep cell tags its recorder
    // (severity, cell index) before the run, and those keys must survive.
    obs::Json context = obs::Json::object();
    fill_config(context);
    context["policy"] = server_.policy().name();
    for (std::size_t i = 0; i < context.keys().size(); ++i) {
      recorder->annotate(context.keys()[i], context.items()[i]);
    }
  }
  std::int64_t drop_burst = 0;  ///< consecutive steps with server drops

  const Time horizon = stream_->horizon();
  const Time playout_offset = config_.link_delay + config_.smoothing_delay;
  const Time last_playout = horizon - 1 + playout_offset;
  // Hard ceiling against accounting bugs keeping the loop alive: everything
  // must drain within the horizon plus transmit time plus pipeline depth.
  // Faults extend the pipeline by bounded amounts — client rebuffering
  // (counted as it happens) and the loss-feedback round trip — so the
  // ceiling moves with them instead of aborting a legitimately slow run.
  const Time limit = horizon + playout_offset +
                     stream_->total_bytes() / config_.rate + 16 +
                     8 * (link_->min_delay() + 1) + 256;
  // One piece vector cycles through server -> link -> client: step_into
  // fills it, submit moves it into the link's ring, deliver hands a
  // previously submitted vector back, and the loop re-adopts that storage
  // for the next step. After the pipeline fills (P steps), the steady-state
  // loop performs no heap allocation at all — the zero-allocation guard
  // test pins this (DESIGN.md Sect. 12).
  std::vector<SentPiece> pieces;
  Time t = 0;

  const auto live_step = [&](Time now) {
    RTS_ASSERT(now <= limit + client_.stall_steps());
    if (rec != nullptr) rec->begin_step(now);
    // Pre-step snapshots for the per-step deltas the tracer and flight
    // recorder report. All zero (and unread) when nothing is observing, so
    // the un-instrumented loop does not pay for them.
    const bool observing = tracer != nullptr || recorder != nullptr;
    const Bytes drops_before = (observing || sojourn_hist != nullptr)
                                   ? report.dropped_server.bytes
                                   : 0;
    const Bytes played_before = observing ? report.played.bytes : 0;
    const Bytes client_dropped_before =
        observing ? client_dropped_so_far(client_) : 0;
    const Bytes retx_before = observing ? report.retransmitted_bytes : 0;
    const Time stalls_before = observing ? client_.stall_steps() : 0;

    const auto nacks = link_->collect_nacks(now);
    const ArrivalBatch batch = cursor.step(now);
    Bytes arrived = 0;
    for (std::size_t i = 0; i < batch.runs.size(); ++i) {
      client_.admit(batch.runs[i], batch.first_index + i);
      if (observing) arrived += batch.runs[i].total_bytes();
    }
    pieces.clear();
    {
      const obs::Span step_span(obs::sampled_step_timer(step_timer, now));
      server_.step_into(now, batch, nacks, report, rec, pieces);
    }
    const Bytes sent = observing ? piece_bytes(pieces) : 0;
    if (sojourn_hist != nullptr) {
      for (const SentPiece& piece : pieces) {
        sojourn_hist->record(now - piece.run->arrival, piece.bytes);
      }
      const Bytes dropped_now = report.dropped_server.bytes - drops_before;
      if (dropped_now > 0) {
        ++drop_burst;
      } else if (drop_burst > 0) {
        burst_hist->record(drop_burst);
        drop_burst = 0;
      }
    }
    // An empty send is not submitted: moving an empty vector into the link
    // would surrender (and free) the storage being recycled.
    if (!pieces.empty()) link_->submit(now, std::move(pieces));
    auto delivered = link_->deliver(now);
    client_.deliver(now, delivered, report, rec);
    client_.play(now, report, rec);
    if (recorder != nullptr) {
      // Appended *before* monitor.check so a violation at step t captures a
      // window whose last record is step t itself.
      obs::StepRecord step;
      step.t = now;
      step.arrived = arrived;
      step.sent = sent;
      step.delivered = piece_bytes(delivered);
      step.played =
          static_cast<std::int64_t>(report.played.bytes - played_before);
      step.dropped_server =
          static_cast<std::int64_t>(report.dropped_server.bytes - drops_before);
      step.dropped_client = static_cast<std::int64_t>(
          client_dropped_so_far(client_) - client_dropped_before);
      step.retransmitted =
          static_cast<std::int64_t>(report.retransmitted_bytes - retx_before);
      step.server_occupancy = server_.buffer().occupancy();
      step.client_occupancy = client_.occupancy();
      step.link_idle = link_->idle();
      step.stalled = client_.stall_steps() > stalls_before;
      recorder->record(step);
    }
    monitor.check(now, server_, client_);
    if (rec != nullptr) rec->step().client_occupancy = client_.occupancy();
    if (tracer != nullptr) {
      // Violation events for this step (from monitor.check above) precede
      // the step event itself.
      obs::Json event = obs::Json::object();
      event["type"] = "step";
      event["t"] = now;
      event["arrived"] = arrived;
      event["sent"] = sent;
      event["delivered"] = piece_bytes(delivered);
      event["played"] = report.played.bytes - played_before;
      event["dropped_server"] = report.dropped_server.bytes - drops_before;
      event["dropped_client"] =
          client_dropped_so_far(client_) - client_dropped_before;
      event["retransmitted"] = report.retransmitted_bytes - retx_before;
      event["server_occupancy"] = server_.buffer().occupancy();
      event["client_occupancy"] = client_.occupancy();
      event["stalled"] = client_.stall_steps() > stalls_before;
      tracer->write(event);
    }
    // Close the recycling loop: the delivered batch rode in on the vector
    // submitted P steps ago; take its storage back for the next send.
    if (pieces.capacity() < delivered.capacity()) pieces = std::move(delivered);
  };

  const auto absorb_span = [&](Time t0, Time t1) {
    RTS_ASSERT(t0 <= limit + client_.stall_steps());
    const std::int64_t skipped = t1 - t0;
    // A drop burst cannot straddle a quiescent span: the span's first
    // no-drop step ends it.
    if (burst_hist != nullptr && drop_burst > 0) {
      burst_hist->record(drop_burst);
      drop_burst = 0;
    }
    // Autonomous link state (the Gilbert-Elliott chain) evolves with
    // time, not traffic: replay the per-step deliver() polls the skipped
    // steps would have issued, so RNG consumption and burst-length records
    // do not depend on where spans fall.
    link_->advance_to(t1 - 1);
    server_.record_idle_steps(skipped);
    client_.record_idle_steps(skipped);
    if (rec == nullptr && tracer == nullptr && recorder == nullptr) return;
    // Observers see every step: back-fill the all-zero steps so step
    // traces, schedule recordings and incident windows hold one record
    // per step, as the deque oracle's do.
    const bool link_idle = link_->idle();  // constant across the span
    for (Time s = t0; s < t1; ++s) {
      if (rec != nullptr) {
        rec->begin_step(s);
        rec->step().server_occupancy = 0;
        rec->step().client_occupancy = 0;
      }
      if (recorder != nullptr) {
        obs::StepRecord step;
        step.t = s;
        step.link_idle = link_idle;
        recorder->record(step);
      }
      if (tracer != nullptr) {
        obs::Json event = obs::Json::object();
        event["type"] = "step";
        event["t"] = s;
        event["arrived"] = 0;
        event["sent"] = 0;
        event["delivered"] = 0;
        event["played"] = 0;
        event["dropped_server"] = 0;
        event["dropped_client"] = 0;
        event["retransmitted"] = 0;
        event["server_occupancy"] = 0;
        event["client_occupancy"] = 0;
        event["stalled"] = false;
        tracer->write(event);
      }
    }
  };

  // A step at which the server and client hold nothing opens a span up to
  // the earliest thing that can happen: the next arrival, the link's next
  // delivery or NACK (fault decorators fold their state changes into
  // next_activity), the next playout event, or one past the nominal
  // playout range, where the run may end. Only a strictly later bound
  // opens a span; an event due now makes this a live step, which runs the
  // full pipeline. The run continues while anything is buffered; timer-mode
  // playout can trail the offset.
  while (t <= last_playout || !server_.idle() || !link_->idle() ||
         client_.occupancy() > 0) {
    Time next = t;
    if (server_.idle() && client_.occupancy() == 0) {
      next = std::min({cursor.next_arrival(), link_->next_activity(t),
                       client_.next_playout_event(t), last_playout + 1});
    }
    if (next > t) {
      absorb_span(t, next);
      t = next;
    } else {
      live_step(t);
      ++t;
    }
  }
  if (burst_hist != nullptr && drop_burst > 0) {
    burst_hist->record(drop_burst);  // a burst running into the drain tail
  }
  report.steps = t;
  client_.finalize(report);
  server_.account_residual(report);
  monitor.finalize(report);
  if (reg != nullptr) {
    reg->counter("sim.steps").add(report.steps);
    reg->counter("sim.runs").add(1);
    reg->counter("sim.stall_steps").add(report.stall_steps);
  }
  if (tracer != nullptr) {
    obs::Json event = obs::Json::object();
    event["type"] = "run";
    event["steps"] = report.steps;
    event["offered_bytes"] = report.offered.bytes;
    event["played_bytes"] = report.played.bytes;
    event["dropped_server_bytes"] = report.dropped_server.bytes;
    event["dropped_client_overflow_bytes"] =
        report.dropped_client_overflow.bytes;
    event["dropped_client_late_bytes"] = report.dropped_client_late.bytes;
    event["lost_link_bytes"] = report.lost_link.bytes;
    event["residual_bytes"] = report.residual.bytes;
    event["retransmitted_bytes"] = report.retransmitted_bytes;
    event["stall_steps"] = report.stall_steps;
    event["invariant_violations"] = report.invariants.total();
    tracer->write(event);
  }
  RTS_ENSURES(report.conserves());
  return report;
}

SimReport simulate(const Stream& stream, const Plan& plan,
                   std::string_view policy_name, Time link_delay,
                   obs::Telemetry telemetry) {
  SimConfig config = SimConfig::balanced(plan, link_delay);
  config.telemetry = telemetry;
  SmoothingSimulator simulator(stream, config, make_policy(policy_name));
  return simulator.run();
}

SimReport simulate(const Stream& stream, const SimConfig& config,
                   std::string_view policy_name, std::unique_ptr<Link> link) {
  SmoothingSimulator simulator(stream, config, make_policy(policy_name),
                               std::move(link));
  return simulator.run();
}

}  // namespace rtsmooth::sim
