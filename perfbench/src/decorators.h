// Pass-through decorators for the layer interfaces the benchmark times from
// outside: DropPolicy (policies), Link (core / faults) and FrameSource
// (daemon ingest). Each forwards every call unchanged to the object it
// wraps, so a decorated run is byte-identical to an undecorated one (the
// benchmark's own tests and its paper_sweep gate both check this); with a
// SpanLog it also records one span per call.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "core/drop_policy.h"
#include "core/link.h"
#include "daemon/frame_source.h"
#include "host.h"
#include "spans.h"

namespace perfbench {

class TracedPolicy final : public rtsmooth::DropPolicy {
 public:
  /// `log` may be null (count only). `calls` receives one increment per
  /// shed() and must outlive the policy and its clones.
  TracedPolicy(std::unique_ptr<rtsmooth::DropPolicy> inner, SpanLog* log,
               std::int64_t* calls)
      : inner_(std::move(inner)),
        log_(log),
        calls_(calls),
        span_(log != nullptr ? log->intern("policies.shed") : 0) {}

  rtsmooth::DropResult shed(rtsmooth::ServerBuffer& buf,
                            rtsmooth::Bytes target) override {
    ++*calls_;
    const Scope scope(log_, span_);
    return inner_->shed(buf, target);
  }
  /// Not timed: called every step, and a no-op for the policies the
  /// benchmark runs, so a span would only measure itself.
  rtsmooth::DropResult early_drop(rtsmooth::ServerBuffer& buf,
                                  rtsmooth::Bytes target,
                                  rtsmooth::Time now) override {
    return inner_->early_drop(buf, target, now);
  }
  std::string_view name() const override { return inner_->name(); }
  std::unique_ptr<rtsmooth::DropPolicy> clone() const override {
    return std::make_unique<TracedPolicy>(inner_->clone(), log_, calls_);
  }

 private:
  std::unique_ptr<rtsmooth::DropPolicy> inner_;
  SpanLog* log_;
  std::int64_t* calls_;
  std::uint32_t span_;
};

class TracedLink final : public rtsmooth::Link {
 public:
  /// `span_name` names the layer the wrapped link belongs to ("core.link"
  /// for the paper's lossless link, "faults.link" for a fault model).
  TracedLink(std::unique_ptr<rtsmooth::Link> inner, SpanLog* log,
             std::string_view span_name)
      : inner_(std::move(inner)),
        log_(log),
        span_(log != nullptr ? log->intern(span_name) : 0) {}

  void submit(rtsmooth::Time t,
              std::vector<rtsmooth::SentPiece> pieces) override {
    const Scope scope(log_, span_);
    inner_->submit(t, std::move(pieces));
  }
  std::vector<rtsmooth::SentPiece> deliver(rtsmooth::Time t) override {
    const Scope scope(log_, span_);
    return inner_->deliver(t);
  }
  std::vector<rtsmooth::Nack> collect_nacks(rtsmooth::Time t) override {
    const Scope scope(log_, span_);
    return inner_->collect_nacks(t);
  }
  bool idle() const override { return inner_->idle(); }
  rtsmooth::Time min_delay() const override { return inner_->min_delay(); }
  rtsmooth::Time next_activity(rtsmooth::Time now) const override {
    return inner_->next_activity(now);
  }
  void advance_to(rtsmooth::Time t) override { inner_->advance_to(t); }
  void set_telemetry(rtsmooth::obs::Telemetry telemetry) override {
    inner_->set_telemetry(telemetry);
  }

 private:
  std::unique_ptr<rtsmooth::Link> inner_;
  SpanLog* log_;
  std::uint32_t span_;
};

/// Wraps the daemon's frame source. Besides the optional poll span it
/// always stamps the wall-clock time of the first poll of every serving
/// step (the daemon re-polls a stalled step with the same t), which is
/// what the end-to-end step latency is measured from. With a HostSpeed it
/// also probes the host's speed before every `probe_every`-th step's
/// stamp, starting with the first, and keeps each probe's pause apart.
class TracedSource final : public rtsmooth::daemon::FrameSource {
 public:
  TracedSource(std::unique_ptr<rtsmooth::daemon::FrameSource> inner,
               SpanLog* log, std::size_t expected_steps,
               HostSpeed* speed = nullptr, std::size_t probe_every = 1)
      : inner_(std::move(inner)),
        log_(log),
        span_(log != nullptr ? log->intern("daemon.poll") : 0),
        speed_(speed),
        probe_every_(probe_every) {
    step_start_ns_.reserve(expected_steps);
    pause_ns_.reserve(expected_steps);
  }

  rtsmooth::daemon::PollStatus poll(
      rtsmooth::Time t, std::vector<rtsmooth::daemon::IngestFrame>& out) override {
    std::int64_t start = now_ns();
    if (t != last_t_) {
      if (last_t_ < 0) serving_.store(true, std::memory_order_release);
      std::int64_t pause = 0;
      if (speed_ != nullptr && step_start_ns_.size() % probe_every_ == 0) {
        probes_.push_back(speed_->probe());
        pause = now_ns() - start;
        start += pause;
      }
      step_start_ns_.push_back(start);
      pause_ns_.push_back(pause);
      last_t_ = t;
    }
    const std::size_t before = out.size();
    const rtsmooth::daemon::PollStatus status = inner_->poll(t, out);
    if (log_ != nullptr) log_->add(span_, start, now_ns());
    frames_ += static_cast<std::int64_t>(out.size() - before);
    if (status == rtsmooth::daemon::PollStatus::Stalled) ++stalled_;
    return status;
  }
  std::int32_t channels() const override { return inner_->channels(); }
  std::size_t truncated_tail() const override {
    return inner_->truncated_tail();
  }
  std::int64_t rejected_records() const override {
    return inner_->rejected_records();
  }

  /// Start time of each serving step's first poll, in step order.
  const std::vector<std::int64_t>& step_start_ns() const {
    return step_start_ns_;
  }
  /// Per step, the time its speed probe took before its stamp (0 for a
  /// step without one).
  const std::vector<std::int64_t>& pause_ns() const { return pause_ns_; }
  /// Probe readings, in nanoseconds: reading j precedes step j * probe_every.
  const std::vector<double>& probes() const { return probes_; }
  std::size_t probe_every() const { return probe_every_; }
  std::int64_t frames() const { return frames_; }
  std::int64_t stalled() const { return stalled_; }
  /// True once the first poll happened; readable from any thread (a
  /// scraper waits for it, since the daemon publishes before polling).
  bool serving() const { return serving_.load(std::memory_order_acquire); }

 private:
  std::unique_ptr<rtsmooth::daemon::FrameSource> inner_;
  SpanLog* log_;
  std::uint32_t span_;
  HostSpeed* speed_;
  std::size_t probe_every_;
  std::vector<std::int64_t> step_start_ns_;
  std::vector<std::int64_t> pause_ns_;
  std::vector<double> probes_;
  rtsmooth::Time last_t_ = -1;
  std::int64_t frames_ = 0;
  std::int64_t stalled_ = 0;
  std::atomic<bool> serving_{false};
};

}  // namespace perfbench
