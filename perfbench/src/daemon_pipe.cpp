// daemon_pipe: rtsmoothd served in process over a real pipe and its stats
// socket.
//
// Set-up encodes GeneratorSource frames for kChannels channels as
// WireFrame records; a producer thread writes them in batches into a pipe
// enlarged to 1 MiB and keeps it full, far ahead of the daemon, whose
// PipeSource (library defaults but for max_frames_per_poll = kChannels)
// takes exactly kChannels frames per poll, so the logical run is the same
// as the GeneratorSource run with the same seed, which the benchmark serves
// once as the reference. The daemon runs greedy at R ~ 1.1x the offered
// mean over a seeded Gilbert-Elliott link
// with NACK recovery (built by the LinkFactory), samples its timeline every
// kSampleEvery steps, publishes stats every kPublishEvery steps and runs a
// rare reconfiguration cycle. A scraper thread GETs /metrics, /json and
// /series over the AF_UNIX socket at a fixed interval.
//
// A round is one daemon lifetime over kStepsPerRound steps of input. The
// step latency is the wall time between the first polls of successive
// serving steps, stamped by a TracedSource around the PipeSource, which in
// an untraced round also probes the host's speed every kProbeEvery steps
// (outside the step times) so that each step is reported at the reference
// speed (stats.h).

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "daemon/frame_source.h"
#include "daemon/live_engine.h"
#include "daemon/rtsmoothd.h"
#include "decorators.h"
#include "faults/fault_links.h"
#include "host.h"
#include "stats.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace rtsmooth;
using daemon::Daemon;
using daemon::DaemonOptions;
using daemon::GeneratorConfig;
using daemon::IngestFrame;
using Clock = std::chrono::steady_clock;

constexpr std::int32_t kChannels = 32;
constexpr Bytes kMeanFrame = 2048;
constexpr std::int64_t kStepsPerRound = 16384;
/// A short delay budget, so the buffer overflows in GOP-aligned bursts.
constexpr Time kDelay = 2;
constexpr Time kSampleEvery = 64;
constexpr Time kPublishEvery = 1024;
constexpr Time kReconfigEvery = 6000;
constexpr std::size_t kPipeBytes = 1 << 20;
constexpr std::size_t kStepBytes = kChannels * daemon::WireFrame::kWireSize;
constexpr auto kScrapeInterval = std::chrono::milliseconds(2);
const char* const kRoutes[] = {"/metrics", "/json", "/series"};
/// About once a millisecond; a probe costs about 20 us.
constexpr std::size_t kProbeEvery = 256;

GeneratorConfig generator_config(std::uint64_t seed) {
  GeneratorConfig g;
  g.channels = kChannels;
  g.mean_frame_bytes = kMeanFrame;
  g.max_frame_bytes = 4 * kMeanFrame;
  g.min_frame_bytes = 64;
  g.seed = mix_seed(seed, 3);
  g.frames_per_channel = kStepsPerRound;
  return g;
}

DaemonOptions daemon_options(std::uint64_t seed) {
  DaemonOptions d;
  const auto rate = static_cast<Bytes>(
      std::llround(1.1 * static_cast<double>(kChannels * kMeanFrame)));
  d.engine.rate = rate;
  d.engine.smoothing_delay = kDelay;
  d.engine.link_delay = 1;
  d.engine.server_buffer = rate * kDelay;
  d.engine.client_buffer = rate * kDelay;
  d.engine.policy = "greedy";
  d.engine.policy_seed = mix_seed(seed, 5);
  d.engine.recovery.enabled = true;
  d.stats_publish_every = kPublishEvery;
  d.timeline.slot_steps = kSampleEvery;
  d.timeline.budgets = daemon::default_slo_budgets();
  return d;
}

std::vector<daemon::EnginePlan> reconfig_plans(const DaemonOptions& d) {
  const daemon::EngineConfig& e = d.engine;
  const Bytes up = e.rate * 5 / 4;
  return {{up * e.smoothing_delay, up * e.smoothing_delay, up,
           e.smoothing_delay, e.link_delay, ""},
          {e.server_buffer, e.client_buffer, e.rate, e.smoothing_delay,
           e.link_delay, ""}};
}

/// Gilbert-Elliott bursts with NACK recovery, seeded from the workload
/// seed; every engine epoch gets the same fresh chain. With a log the link
/// is wrapped in a TracedLink.
Daemon::LinkFactory link_factory(std::uint64_t seed, SpanLog* log) {
  return [seed, log](const daemon::EngineConfig& cfg) -> std::unique_ptr<Link> {
    auto link = std::make_unique<faults::GilbertElliottLink>(
        cfg.link_delay,
        faults::GilbertElliottConfig{.p_good_to_bad = 0.002,
                                     .p_bad_to_good = 0.25,
                                     .loss_good = 0.0,
                                     .loss_bad = 0.3},
        Rng(mix_seed(seed, 4)));
    if (log == nullptr) return link;
    return std::make_unique<TracedLink>(std::move(link), log, "faults.link");
  };
}

/// The generator's frames for one round, encoded as back-to-back WireFrame
/// records into `records` (whose storage the rounds reuse): the round's
/// input, generated during set-up.
void encode_input(const GeneratorConfig& config,
                  std::vector<unsigned char>& records) {
  daemon::GeneratorSource source(config);
  std::vector<IngestFrame> frames;
  records.clear();
  records.reserve(static_cast<std::size_t>(config.channels) *
                  static_cast<std::size_t>(config.frames_per_channel) *
                  daemon::WireFrame::kWireSize);
  for (Time t = 0;; ++t) {
    frames.clear();
    if (source.poll(t, frames) == daemon::PollStatus::End) break;
    for (const IngestFrame& f : frames) {
      const std::size_t at = records.size();
      records.resize(at + daemon::WireFrame::kWireSize);
      daemon::WireFrame::encode(f, records.data() + at);
    }
  }
}

/// Writes the encoded records into the pipe in batches, keeping it full,
/// then closes the write end (EOF ends the run).
class Producer {
 public:
  /// `batch` bytes per write; at most a quarter of the pipe's capacity, so
  /// the first writes land before any read.
  Producer(int fd, const std::vector<unsigned char>& records, std::size_t batch)
      : fd_(fd), records_(records), batch_(batch) {}
  ~Producer() {
    join();
    if (fd_ >= 0) ::close(fd_);
  }
  Producer(const Producer&) = delete;
  Producer& operator=(const Producer&) = delete;

  void start() { thread_ = std::thread([this] { run(); }); }
  /// True once the first `bytes` bytes are in the pipe -- or, when that is
  /// all of the records, once the write end is closed -- or the writer
  /// stopped.
  bool has_written(std::size_t bytes) const {
    return done_.load(std::memory_order_acquire) ||
           (bytes < records_.size() &&
            written_.load(std::memory_order_acquire) >= bytes);
  }
  void wait_for(std::size_t bytes) const {
    while (!has_written(bytes)) std::this_thread::yield();
  }
  void join() {
    if (thread_.joinable()) thread_.join();
  }
  bool ok() const { return ok_; }

 private:
  void run() {
    std::size_t off = 0;
    while (off < records_.size()) {
      const std::size_t len = std::min(batch_, records_.size() - off);
      const ssize_t n = ::write(fd_, records_.data() + off, len);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        written_.store(off, std::memory_order_release);
      } else if (!(n < 0 && errno == EINTR)) {
        ok_ = false;
        break;
      }
    }
    ::close(fd_);
    fd_ = -1;
    done_.store(true, std::memory_order_release);
  }

  int fd_;
  const std::vector<unsigned char>& records_;
  std::size_t batch_;
  std::atomic<std::size_t> written_{0};
  std::atomic<bool> done_{false};
  bool ok_ = true;  ///< written by the producer thread, read after join()
  std::thread thread_;  // last: starts after every member it uses exists
};

/// Holds each poll until the producer has written the next step's
/// records, so the PipeSource finds kChannels frames at every step and End
/// only once the pipe is closed, as the GeneratorSource reference does,
/// however the scheduler treats the producer thread. The producer runs
/// about 2000 steps ahead, so a poll waits only when it was starved; such
/// polls are counted.
class PacedPipe final : public daemon::FrameSource {
 public:
  PacedPipe(std::unique_ptr<daemon::PipeSource> pipe, const Producer& producer)
      : pipe_(std::move(pipe)), producer_(producer) {}

  daemon::PollStatus poll(Time t, std::vector<IngestFrame>& out) override {
    const std::size_t need = polled_bytes_ + kStepBytes;
    if (!producer_.has_written(need)) {
      ++waits_;
      producer_.wait_for(need);
    }
    const std::size_t before = out.size();
    const daemon::PollStatus status = pipe_->poll(t, out);
    polled_bytes_ += (out.size() - before) * daemon::WireFrame::kWireSize;
    return status;
  }
  std::int32_t channels() const override { return pipe_->channels(); }
  std::size_t truncated_tail() const override { return pipe_->truncated_tail(); }
  std::int64_t rejected_records() const override {
    return pipe_->rejected_records();
  }
  std::int64_t waits() const { return waits_; }

 private:
  std::unique_ptr<daemon::PipeSource> pipe_;
  const Producer& producer_;
  std::size_t polled_bytes_ = 0;
  std::int64_t waits_ = 0;
};

/// A stats socket path in `work_dir`, relative to the working directory
/// when that is shorter. sun_path holds at most 107 bytes; when the path is
/// still longer, the socket goes in the working directory itself.
std::string socket_path(const std::string& work_dir, int index) {
  const std::string name = "perfbench-" + std::to_string(::getpid()) + "-" +
                           std::to_string(index) + ".sock";
  std::error_code ec;
  const std::filesystem::path dir = std::filesystem::proximate(work_dir, ec);
  const std::string path =
      ((ec ? std::filesystem::path(work_dir) : dir) / name).string();
  return path.size() < sizeof(sockaddr_un{}.sun_path) ? path : name;
}

/// One HTTP/1.0 GET over the stats socket; returns the status code, or -1
/// when the exchange failed.
int http_get(const std::string& socket_path, const char* target) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  timeval tv{.tv_sec = 2, .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    return -1;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  int status = -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
    const std::string request = std::string("GET ") + target + " HTTP/1.0\r\n\r\n";
    if (::write(fd, request.data(), request.size()) ==
        static_cast<ssize_t>(request.size())) {
      std::string response;
      char buf[65536];
      for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n > 0) {
          response.append(buf, static_cast<std::size_t>(n));
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          if (n == 0) status = 0;
          break;
        }
      }
      // "HTTP/1.0 200 OK\r\n..." -- the status is the second token.
      if (status == 0 && response.size() > 12 && response.rfind("HTTP/", 0) == 0) {
        status = std::atoi(response.c_str() + response.find(' ') + 1);
      } else {
        status = -1;
      }
    }
  }
  ::close(fd);
  return status;
}

/// GETs the routes round-robin while the daemon serves.
class Scraper {
 public:
  Scraper(std::string socket_path, const TracedSource* source, bool traced)
      : path_(std::move(socket_path)), source_(source), traced_(traced) {
    for (std::size_t r = 0; r < std::size(kRoutes); ++r) {
      span_ids_[r] = log_.intern(std::string("obs.scrape") + kRoutes[r]);
    }
    thread_ = std::thread([this] { run(); });
  }
  ~Scraper() { stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  // Valid after stop().
  const std::vector<double>& latency_us(std::size_t route) const {
    return latency_us_[route];
  }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const SpanLog& log() const { return log_; }

 private:
  void run() {
    while (!source_->serving() && !stop_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    std::size_t next = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      const std::size_t r = next++ % std::size(kRoutes);
      const std::int64_t start = now_ns();
      const int status = http_get(path_, kRoutes[r]);
      const std::int64_t end = now_ns();
      ++attempted_;
      if (status != 200) ++failed_;
      latency_us_[r].push_back(static_cast<double>(end - start) * 1e-3);
      if (traced_) log_.add(span_ids_[r], start, end);
      std::this_thread::sleep_for(kScrapeInterval);
    }
  }

  std::string path_;
  const TracedSource* source_;
  bool traced_;
  SpanLog log_;
  std::uint32_t span_ids_[std::size(kRoutes)] = {};
  std::vector<double> latency_us_[std::size(kRoutes)];
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after every member it uses exists
};

/// What one daemon round measured. An untraced round's times are at the
/// reference speed but for the raw ones; a traced round's are as measured.
struct Round {
  double setup_s = 0.0;
  double serve_s = 0.0;
  double raw_serve_s = 0.0;  ///< probes left out
  double frames_per_s = 0.0;
  double raw_frames_per_s = 0.0;
  std::vector<double> step_us;          ///< every step interval
  std::vector<double> raw_step_us;
  std::vector<double> sample_step_us;   ///< timeline sample, no publish
  std::vector<double> publish_step_us;  ///< stats publish
  std::vector<double> scrape_us[std::size(kRoutes)];
  std::int64_t stalled_polls = 0;
  std::int64_t paced_waits = 0;  ///< polls that waited for the producer
};

/// `speed` is null for a traced round (`log` set), which is not probed.
Round serve_round(const RunOptions& opts, int index, const SimReport& reference,
                  std::vector<unsigned char>& records, HostSpeed* speed,
                  SpanLog* log, SpanLog* scrape_log, WorkloadResult* out) {
  Round round;
  if (speed != nullptr) speed->probe();
  const auto setup_start = Clock::now();
  encode_input(generator_config(opts.seed), records);
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  // Best effort: a host may cap pipe sizes lower, so ask for the real one.
  ::fcntl(fds[1], F_SETPIPE_SZ, static_cast<int>(kPipeBytes));
  const int pipe_size = ::fcntl(fds[1], F_GETPIPE_SZ);
  const std::size_t capacity =
      pipe_size > 0 ? static_cast<std::size_t>(pipe_size) : 4096;
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  Producer producer(fds[1], records, std::max<std::size_t>(1, capacity / 4));
  daemon::PipeConfig pipe_cfg;
  pipe_cfg.max_frames_per_poll = kChannels;
  auto paced = std::make_unique<PacedPipe>(
      std::make_unique<daemon::PipeSource>(fds[0], kChannels, pipe_cfg),
      producer);
  const PacedPipe* pipe = paced.get();
  auto traced_source = std::make_unique<TracedSource>(
      std::move(paced), log, static_cast<std::size_t>(kStepsPerRound) + 64,
      speed, kProbeEvery);
  TracedSource* source = traced_source.get();
  DaemonOptions options = daemon_options(opts.seed);
  options.stats_socket_path = socket_path(opts.work_dir, index);
  Daemon d(options, std::move(traced_source), link_factory(opts.seed, log));
  d.schedule_reconfig_cycle(kReconfigEvery, reconfig_plans(options));
  producer.start();
  producer.wait_for(std::min(records.size(), capacity / 2));
  round.setup_s = seconds_since(setup_start);
  if (speed != nullptr) {
    speed->probe();
    round.setup_s = at_reference_speed(round.setup_s, speed->end_round());
  }

  Scraper scraper(options.stats_socket_path, source, scrape_log != nullptr);
  const auto serve_start = Clock::now();
  const int rc = d.serve();
  round.raw_serve_s = seconds_since(serve_start);
  scraper.stop();
  producer.join();

  const std::vector<std::int64_t>& starts = source->step_start_ns();
  const std::vector<std::int64_t>& pause = source->pause_ns();
  const std::vector<double>& probes = source->probes();
  for (const std::int64_t ns : pause) {
    round.raw_serve_s -= static_cast<double>(ns) * 1e-9;
  }
  round.serve_s = round.raw_serve_s;
  if (speed != nullptr) {
    round.serve_s = at_reference_speed(round.raw_serve_s, speed->end_round());
  }
  double raw_total_us = 0.0;
  double total_us = 0.0;
  for (std::size_t i = 0; i + 1 < starts.size(); ++i) {
    const double raw_us =
        static_cast<double>(starts[i + 1] - starts[i] - pause[i + 1]) * 1e-3;
    double us = raw_us;
    if (!probes.empty()) {
      // The probes taken before this step and before the next one's block.
      const std::size_t j = i / kProbeEvery;
      const std::size_t k = std::min(j + 1, probes.size() - 1);
      us = at_reference_speed(raw_us, 0.5 * (probes[j] + probes[k]));
    }
    raw_total_us += raw_us;
    total_us += us;
    round.raw_step_us.push_back(raw_us);
    round.step_us.push_back(us);
    // Interval i serves step i and runs the hooks due at steps_ == i + 1.
    const auto after = static_cast<Time>(i + 1);
    if (after % kPublishEvery == 0) {
      round.publish_step_us.push_back(us);
    } else if (after % kSampleEvery == 0) {
      round.sample_step_us.push_back(us);
    }
  }
  if (starts.size() > 1) {
    const auto frames = static_cast<double>(source->frames());
    round.frames_per_s = frames / (total_us * 1e-6);
    round.raw_frames_per_s = frames / (raw_total_us * 1e-6);
  }
  for (std::size_t r = 0; r < std::size(kRoutes); ++r) {
    round.scrape_us[r] = scraper.latency_us(r);
  }
  round.stalled_polls = source->stalled();
  round.paced_waits = pipe->waits();
  if (scrape_log != nullptr) *scrape_log = scraper.log();

  out->check(rc == 0, "daemon_pipe: serve() returned " + std::to_string(rc));
  out->check(producer.ok(), "daemon_pipe: producer write failed");
  out->check(d.ingest_ledger_conserves(), "daemon_pipe: ingest ledger broken");
  out->check(d.total_report() == reference,
             "daemon_pipe: total_report differs from the GeneratorSource "
             "reference run");
  out->check(source->rejected_records() == 0 && source->truncated_tail() == 0,
             "daemon_pipe: wire records rejected or truncated");
  out->check(source->frames() == kChannels * kStepsPerRound,
             "daemon_pipe: polled " + std::to_string(source->frames()) +
                 " frames");
  // Every scrape is one check: each must answer 200.
  out->attempted += scraper.attempted();
  out->failed += scraper.failed();
  if (scraper.failed() > 0 && out->failures.size() < 8) {
    out->failures.push_back("daemon_pipe: " + std::to_string(scraper.failed()) +
                            " scrapes did not answer 200");
  }
  return round;
}

/// The reference: the same daemon over the GeneratorSource the producer
/// encodes from, no pipe, no stats socket.
struct Reference {
  SimReport report;
  double shed_byte_frac = 0.0;
  std::int64_t drain_steps = 0;
};

Reference reference_run(std::uint64_t seed) {
  const DaemonOptions options = daemon_options(seed);
  Daemon d(options,
           std::make_unique<daemon::GeneratorSource>(generator_config(seed)),
           link_factory(seed, nullptr));
  d.schedule_reconfig_cycle(kReconfigEvery, reconfig_plans(options));
  if (d.serve() != 0) throw std::runtime_error("reference daemon failed");
  Reference ref;
  ref.report = d.total_report();
  ref.shed_byte_frac = static_cast<double>(ref.report.dropped_server.bytes) /
                       static_cast<double>(ref.report.offered.bytes);
  ref.drain_steps = d.snapshot().at("reconfigs").at("drain_steps").as_int();
  return ref;
}

/// LiveEngine::step alone over the same frames, timed per step.
std::vector<double> engine_replay(std::uint64_t seed) {
  const DaemonOptions options = daemon_options(seed);
  daemon::LiveEngine engine(options.engine, {},
                            link_factory(seed, nullptr)(options.engine));
  daemon::GeneratorSource source(generator_config(seed));
  std::vector<IngestFrame> frames;
  std::vector<double> step_us;
  step_us.reserve(static_cast<std::size_t>(kStepsPerRound) + 64);
  bool more = true;
  while (more || !engine.quiescent()) {
    frames.clear();
    if (more) {
      more = source.poll(engine.now(), frames) != daemon::PollStatus::End;
    }
    const std::int64_t start = now_ns();
    engine.step(frames);
    step_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
  }
  return step_us;
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

}  // namespace

WorkloadResult run_daemon_pipe(const RunOptions& opts) {
  WorkloadResult out;
  HostSpeed speed;
  const Reference ref = reference_run(opts.seed);
  out.check(ref.report.conserves(), "daemon_pipe: reference does not conserve");

  // Untraced rounds; a traced run alternates them with traced rounds (poll
  // and link spans on this thread, scrape spans on the scraper's), so both
  // kinds see the same host. The first traced round's spans are written.
  std::vector<unsigned char> records;
  std::vector<Round> rounds;
  std::vector<double> setup_s;
  std::vector<double> serve_s;
  std::vector<double> raw_serve_s;
  std::vector<double> traced_fps;
  std::vector<double> traced_step;
  std::vector<double> sample_step;
  std::vector<double> publish_step;
  std::vector<double> scrape_route[std::size(kRoutes)];
  std::vector<double> poll_us;
  std::vector<double> engine_us;
  double link_ns = 0.0;
  std::int64_t traced_steps = 0;
  std::int64_t stalled = -1;
  std::int64_t waits = 0;
  std::int64_t waited_rounds = 0;
  const Deadline end(opts.seconds);
  for (int index = 0; index < (opts.trace ? 2 : 1) || !end.passed(); ++index) {
    if (!opts.trace || index % 2 == 0) {
      Round r = serve_round(opts, index, ref.report, records, &speed,
                            nullptr, nullptr, &out);
      if (index == 0) out.end_to_end["peak_rss_mb"] = peak_rss_mib();
      setup_s.push_back(r.setup_s);
      waits += r.paced_waits;
      // A wait timed the benchmark's producer thread, not the daemon, so
      // such a round stays out of the serving timings.
      if (r.paced_waits > 0) {
        ++waited_rounds;
        continue;
      }
      serve_s.push_back(r.serve_s);
      raw_serve_s.push_back(r.raw_serve_s);
      rounds.push_back(std::move(r));
      continue;
    }
    SpanLog log;
    SpanLog scrape_log;
    const Round r = serve_round(opts, index, ref.report, records, nullptr,
                                &log, &scrape_log, &out);
    traced_fps.push_back(r.frames_per_s);
    append(traced_step, r.step_us);
    append(sample_step, r.sample_step_us);
    append(publish_step, r.publish_step_us);
    for (std::size_t k = 0; k < std::size(kRoutes); ++k) {
      append(scrape_route[k], r.scrape_us[k]);
    }
    if (stalled < 0) stalled = r.stalled_polls;
    traced_steps += static_cast<std::int64_t>(r.step_us.size());
    const std::uint32_t poll_name = log.intern("daemon.poll");
    for (const SpanRecord& s : log.spans()) {
      if (s.name == poll_name) {
        poll_us.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
      }
    }
    const auto layers = log.layer_times();
    if (const auto it = layers.find("faults.link"); it != layers.end()) {
      link_ns += static_cast<double>(it->second.self_ns);
    }
    append(engine_us, engine_replay(opts.seed));
    if (index == 1 && !opts.span_path.empty()) {
      std::ofstream spans(opts.span_path);
      log.write(spans);
      scrape_log.write(spans);
    }
  }

  std::vector<double> frames_per_s;
  std::vector<double> raw_frames_per_s;
  std::vector<std::vector<double>> round_steps;
  std::vector<double> raw_step_us;
  std::vector<double> scrape_ms;
  for (Round& r : rounds) {
    frames_per_s.push_back(r.frames_per_s);
    raw_frames_per_s.push_back(r.raw_frames_per_s);
    round_steps.push_back(std::move(r.step_us));
    append(raw_step_us, r.raw_step_us);
    for (const auto& route : r.scrape_us) {
      for (const double us : route) scrape_ms.push_back(us * 1e-3);
    }
  }
  std::printf("daemon_pipe: %lld polls waited for a starved producer; the "
              "%lld untraced rounds they fell in are left out of the timings, "
              "%zu are kept\n",
              static_cast<long long>(waits),
              static_cast<long long>(waited_rounds), rounds.size());
  out.end_to_end["setup_s"] = median(setup_s);
  out.end_to_end["round_s"] = median(serve_s);
  out.end_to_end["throughput_per_s"] = median(frames_per_s);
  const std::vector<double> profile = median_profile(round_steps);
  out.end_to_end["step_p50_us"] = percentile(profile, 50);
  out.end_to_end["step_p99_us"] = percentile(profile, 99);
  out.timings = {{"setup_s", "s", setup_s},
                 {"daemon.round_s", "s", serve_s},
                 {"daemon.round_s (raw)", "s", raw_serve_s},
                 {"daemon.frames_per_s", "frames/s", frames_per_s, true},
                 {"daemon.step_us (raw)", "us", raw_step_us},
                 {"daemon.step_us (median profile)", "us", profile},
                 {"daemon.scrape_ms", "ms", scrape_ms},
                 {"host.probe_ns", "ns", speed.all_ns()}};
  if (!opts.trace) return out;

  // Traced rounds are not probed, so they compare with raw times.
  auto& L = out.layers;
  L["daemon.poll_us_p50"] = median(poll_us);
  L["daemon.stalled_polls"] = static_cast<double>(stalled);
  L["faults.link_us_per_step"] =
      link_ns * 1e-3 / static_cast<double>(std::max<std::int64_t>(1, traced_steps));
  L["daemon.engine_step_us_p50"] = median(engine_us);
  L["daemon.engine_step_us_p99"] = percentile(engine_us, 99);
  L["daemon.loop_overhead_us"] =
      median(traced_step) - median(poll_us) - median(engine_us);
  L["obs.publish_step_us_p50"] = median(publish_step);
  L["obs.sample_step_us_p50"] = median(sample_step);
  L["obs.scrape_us_p50.metrics"] = median(scrape_route[0]);
  L["obs.scrape_us_p50.json"] = median(scrape_route[1]);
  L["obs.scrape_us_p50.series"] = median(scrape_route[2]);
  L["daemon.shed_byte_frac"] = ref.shed_byte_frac;
  L["daemon.reconfig_drain_steps"] = static_cast<double>(ref.drain_steps);
  const double traced_median = median(traced_fps);
  L["trace_overhead"] = median(raw_frames_per_s) / traced_median - 1.0;
  out.trace_overhead["daemon.frames_per_s"] =
      traced_median - median(raw_frames_per_s);
  out.trace_overhead["daemon.step_us"] =
      median(traced_step) - median(raw_step_us);
  return out;
}

}  // namespace perfbench
