#include "faults/fault_links.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace rtsmooth::faults {
namespace {

std::unique_ptr<Link> fixed(Time propagation_delay) {
  return std::make_unique<FixedDelayLink>(propagation_delay);
}

/// Drains the NACKs due at step t from a pending queue (kept sorted by
/// construction: losses are scheduled in submission order and the feedback
/// delay is constant).
template <typename Queue>
std::vector<Nack> drain_nacks(Queue& queue, Time t) {
  std::vector<Nack> out;
  while (!queue.empty() && queue.front().at <= t) {
    out.push_back(std::move(queue.front().nack));
    queue.pop_front();
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------- Erasure

ErasureLink::ErasureLink(std::unique_ptr<Link> inner, double loss_probability,
                         Rng rng, Time feedback_delay)
    : inner_(std::move(inner)),
      p_(loss_probability),
      rng_(rng),
      feedback_delay_(feedback_delay >= 0 ? feedback_delay
                                          : inner_->min_delay()) {
  RTS_EXPECTS(inner_ != nullptr);
  RTS_EXPECTS(loss_probability >= 0.0 && loss_probability <= 1.0);
}

ErasureLink::ErasureLink(Time propagation_delay, double loss_probability,
                         Rng rng, Time feedback_delay)
    : ErasureLink(fixed(propagation_delay), loss_probability, rng,
                  feedback_delay) {}

void ErasureLink::set_telemetry(obs::Telemetry telemetry) {
  inner_->set_telemetry(telemetry);
  if (telemetry.registry == nullptr) return;
  obs::Registry& reg = *telemetry.registry;
  erased_pieces_ = &reg.counter("link.erased_pieces");
  erased_bytes_ = &reg.counter("link.erased_bytes");
  loss_run_hist_ = &reg.histogram("link.loss_run",
                                  obs::ExponentialBuckets{1, 16});
}

void ErasureLink::submit(Time t, std::vector<SentPiece> pieces) {
  std::vector<SentPiece> kept;
  kept.reserve(pieces.size());
  for (SentPiece& piece : pieces) {
    if (p_ > 0.0 && rng_.bernoulli(p_)) {
      // The loss becomes knowable once the piece fails to arrive; feedback
      // takes feedback_delay more steps to reach the server.
      pending_nacks_.push_back(PendingNack{
          .at = t + inner_->min_delay() + feedback_delay_,
          .nack = Nack{.piece = piece, .sent_at = t}});
      if (erased_pieces_ != nullptr) {
        erased_pieces_->add(1);
        erased_bytes_->add(piece.bytes);
        ++loss_run_;
      }
      continue;
    }
    if (loss_run_ > 0) {
      // A surviving piece ends the consecutive-erasure run. (A run still
      // open when the stream ends is not flushed — it has no defined end.)
      loss_run_hist_->record(loss_run_);
      loss_run_ = 0;
    }
    kept.push_back(std::move(piece));
  }
  inner_->submit(t, std::move(kept));
}

std::vector<SentPiece> ErasureLink::deliver(Time t) { return inner_->deliver(t); }

std::vector<Nack> ErasureLink::collect_nacks(Time t) {
  return drain_nacks(pending_nacks_, t);
}

Time ErasureLink::next_activity(Time now) const {
  Time at = inner_->next_activity(now);
  if (!pending_nacks_.empty()) at = std::min(at, pending_nacks_.front().at);
  return at;
}

// --------------------------------------------------------- Gilbert-Elliott

GilbertElliottLink::GilbertElliottLink(std::unique_ptr<Link> inner,
                                       GilbertElliottConfig config, Rng rng,
                                       Time feedback_delay)
    : inner_(std::move(inner)),
      config_(config),
      rng_(rng),
      feedback_delay_(feedback_delay >= 0 ? feedback_delay
                                          : inner_->min_delay()) {
  RTS_EXPECTS(inner_ != nullptr);
  RTS_EXPECTS(config.p_good_to_bad >= 0.0 && config.p_good_to_bad <= 1.0);
  RTS_EXPECTS(config.p_bad_to_good >= 0.0 && config.p_bad_to_good <= 1.0);
  RTS_EXPECTS(config.loss_good >= 0.0 && config.loss_good <= 1.0);
  RTS_EXPECTS(config.loss_bad >= 0.0 && config.loss_bad <= 1.0);
}

GilbertElliottLink::GilbertElliottLink(Time propagation_delay,
                                       GilbertElliottConfig config, Rng rng,
                                       Time feedback_delay)
    : GilbertElliottLink(fixed(propagation_delay), config, rng,
                         feedback_delay) {}

void GilbertElliottLink::set_telemetry(obs::Telemetry telemetry) {
  inner_->set_telemetry(telemetry);
  if (telemetry.registry == nullptr) return;
  obs::Registry& reg = *telemetry.registry;
  erased_pieces_ = &reg.counter("link.erased_pieces");
  erased_bytes_ = &reg.counter("link.erased_bytes");
  loss_run_hist_ = &reg.histogram("link.loss_run",
                                  obs::ExponentialBuckets{1, 16});
}

void GilbertElliottLink::ensure_state(Time t) {
  // One transition draw per elapsed step, so the burst-length distribution
  // is independent of traffic (an idle channel still churns states).
  while (state_time_ < t) {
    ++state_time_;
    if (state_time_ == 0) continue;  // initial state is Good by convention
    const double flip =
        bad_ ? config_.p_bad_to_good : config_.p_good_to_bad;
    if (flip > 0.0 && rng_.bernoulli(flip)) {
      bad_ = !bad_;
      if (loss_run_hist_ != nullptr) {
        if (bad_) {
          bad_since_ = state_time_;
        } else if (bad_since_ >= 0) {
          // Burst over: its length in steps is the "link.loss_run" sample.
          loss_run_hist_->record(state_time_ - bad_since_);
          bad_since_ = -1;
        }
      }
    }
  }
}

void GilbertElliottLink::submit(Time t, std::vector<SentPiece> pieces) {
  ensure_state(t);
  const double loss = bad_ ? config_.loss_bad : config_.loss_good;
  std::vector<SentPiece> kept;
  kept.reserve(pieces.size());
  for (SentPiece& piece : pieces) {
    if (loss > 0.0 && rng_.bernoulli(loss)) {
      pending_nacks_.push_back(PendingNack{
          .at = t + inner_->min_delay() + feedback_delay_,
          .nack = Nack{.piece = piece, .sent_at = t}});
      if (erased_pieces_ != nullptr) {
        erased_pieces_->add(1);
        erased_bytes_->add(piece.bytes);
      }
      continue;
    }
    kept.push_back(std::move(piece));
  }
  inner_->submit(t, std::move(kept));
}

std::vector<SentPiece> GilbertElliottLink::deliver(Time t) {
  ensure_state(t);
  return inner_->deliver(t);
}

std::vector<Nack> GilbertElliottLink::collect_nacks(Time t) {
  return drain_nacks(pending_nacks_, t);
}

Time GilbertElliottLink::next_activity(Time now) const {
  Time at = inner_->next_activity(now);
  if (!pending_nacks_.empty()) at = std::min(at, pending_nacks_.front().at);
  return at;
}

// -------------------------------------------------------------- Throttled

ThrottledLink::ThrottledLink(std::unique_ptr<Link> inner,
                             std::vector<Bytes> rate_pattern)
    : inner_(std::move(inner)), pattern_(std::move(rate_pattern)) {
  RTS_EXPECTS(inner_ != nullptr);
  RTS_EXPECTS(!pattern_.empty());
  bool positive = false;
  for (Bytes cap : pattern_) {
    RTS_EXPECTS(cap >= 0);
    positive = positive || cap > 0;
  }
  RTS_EXPECTS(positive);  // an all-zero pattern would never drain
}

ThrottledLink::ThrottledLink(Time propagation_delay, Bytes rate_cap)
    : ThrottledLink(fixed(propagation_delay), std::vector<Bytes>{rate_cap}) {}

void ThrottledLink::set_telemetry(obs::Telemetry telemetry) {
  inner_->set_telemetry(telemetry);
  if (telemetry.registry == nullptr) return;
  obs::Registry& reg = *telemetry.registry;
  split_pieces_ = &reg.counter("link.split_pieces");
  max_backlog_ = &reg.gauge("link.max_backlog");
}

Bytes ThrottledLink::cap_at(Time t) const {
  return pattern_[static_cast<std::size_t>(t) % pattern_.size()];
}

Time ThrottledLink::next_activity(Time now) const {
  Time at = inner_->next_activity(now);
  if (queued_ > 0) {
    for (std::size_t i = 0; i < pattern_.size(); ++i) {
      const Time step = now + static_cast<Time>(i);
      if (cap_at(step) > 0) {
        at = std::min(at, step);
        break;
      }
    }
  }
  return at;
}

void ThrottledLink::submit(Time t, std::vector<SentPiece> pieces) {
  (void)t;  // admission happens in deliver(), against that step's cap
  for (SentPiece& piece : pieces) {
    queued_ += piece.bytes;
    pending_.push_back(std::move(piece));
  }
  if (max_backlog_ != nullptr) max_backlog_->update(queued_);
}

std::vector<SentPiece> ThrottledLink::deliver(Time t) {
  Bytes budget = std::min(cap_at(t), queued_);
  std::vector<SentPiece> admitted;
  while (budget > 0) {
    RTS_ASSERT(!pending_.empty());
    SentPiece& head = pending_.front();
    if (head.bytes <= budget) {
      budget -= head.bytes;
      queued_ -= head.bytes;
      admitted.push_back(std::move(head));
      pending_.pop_front();
      continue;
    }
    // Split the piece at the cap. Slice completions ride with the tail
    // fragment: a slice finishes only when its last byte gets through, and
    // without intra-piece offsets the tail is the only sound place to count
    // them (the client ignores the field either way).
    SentPiece fragment = head;
    fragment.bytes = budget;
    fragment.completed_slices = 0;
    if (split_pieces_ != nullptr) split_pieces_->add(1);
    head.bytes -= budget;
    queued_ -= budget;
    budget = 0;
    admitted.push_back(fragment);
  }
  inner_->submit(t, std::move(admitted));
  return inner_->deliver(t);
}

}  // namespace rtsmooth::faults
