// gateway_churn: the contended multiplex Gateway under stream churn.
//
// 65536 streams in the gold/silver/bronze mix (class weights 12:8:1, VBR
// and on-off arrivals, all seeded from the workload seed) share a
// WeightedShare link provisioned at 0.7x their subscribed rate, so the
// allocator, the per-stream Eq. (3) drops and the cohort lateness settling
// all do work. A wave is kWaveSteps steps, then a churn step that removes a
// fixed fraction of the live streams and joins the same number of fresh
// ones. A round builds a gateway and runs kRoundWaves waves on it; rounds
// alternate pool width 1 and width nproc (one gateway alive at a time, so
// each has the host's caches to itself), telemetry off, and every round
// must reproduce the first one's ledger wave by wave.
// Untraced waves probe the host's speed before their first step and after
// every step, outside the step's time, and report each step at the
// reference speed (stats.h). Throughputs come from the median step time.
//
// No DropPolicy, off-line solver or registry is involved: for the Greedy
// and telemetry work this is the workload that must not move.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "gateway/gateway.h"
#include "host.h"
#include "spans.h"
#include "stats.h"
#include "util/rng.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace rtsmooth;
using gateway::ArrivalModel;
using gateway::Gateway;
using gateway::GatewayConfig;
using gateway::GatewayReport;
using gateway::StreamId;
using gateway::StreamSpec;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kStreams = 65536;
constexpr Time kWaveSteps = 32;
constexpr std::size_t kChurnPerWave = kStreams / 8;
/// Churn slowly scatters the stream table over the heap, so a step costs
/// more in later waves. Every round therefore starts from a freshly built
/// gateway and runs the same kRoundWaves waves: the rounds repeat the same
/// sequence of states, whatever the run length or the host's speed.
constexpr std::size_t kRoundWaves = 6;
/// The ledger ratios are read after this wave of a round.
constexpr std::size_t kLedgerWave = 4;

StreamSpec spec_for(std::uint64_t seed, std::uint64_t i) {
  const std::uint64_t s = mix_seed(seed, i);
  switch (i % 3) {
    case 0:
      return StreamSpec{.rate = 96, .deadline = 8, .weight_class = 0,
                        .arrivals = ArrivalModel::vbr(64, s)};
    case 1:
      return StreamSpec{.rate = 48, .deadline = 16, .weight_class = 1,
                        .arrivals = ArrivalModel::vbr(32, s)};
    default:
      return StreamSpec{.rate = 24, .deadline = 32, .weight_class = 2,
                        .arrivals = ArrivalModel::on_off(64, 2, 6, s)};
  }
}

/// One gateway and its churn program; two built from the same seed take
/// identical operations.
struct System {
  std::unique_ptr<Gateway> gw;
  std::vector<StreamId> ids;  ///< live ids
  std::uint64_t next_spec = 0;
  Rng churn;
};

System build(std::uint64_t seed, unsigned width) {
  Bytes subscribed = 0;
  for (std::uint64_t i = 0; i < kStreams; ++i) {
    subscribed += spec_for(seed, i).rate;
  }
  System sys{.gw = std::make_unique<Gateway>(GatewayConfig{
                 .rate = std::max<Bytes>(1, subscribed * 7 / 10),
                 .class_weights = {12.0, 8.0, 1.0},
                 .sharing = gateway::SharePolicy::WeightedShare,
                 .shards = 8,
                 .threads = width}),
             .churn = Rng(mix_seed(seed, 2))};
  sys.ids.reserve(kStreams);
  for (; sys.next_spec < kStreams; ++sys.next_spec) {
    const auto id = sys.gw->add_stream(spec_for(seed, sys.next_spec));
    if (!id) throw std::runtime_error("gateway join refused");
    sys.ids.push_back(*id);
  }
  return sys;
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// What the waves of one pool width measured; traced waves apart. Untraced
/// times are at the reference speed but for the raw ones.
struct Phase {
  std::vector<double> step_us;
  std::vector<double> raw_step_us;
  std::vector<double> round_s;      ///< untraced rounds' wall time
  std::vector<double> raw_round_s;  ///< as measured, probes left out
  std::vector<double> traced_step_us;
  std::vector<double> join_us;   ///< traced waves
  std::vector<double> leave_us;  ///< traced waves
  sim::RunStats pool;            ///< run_stats() growth over traced waves
  double traced_step_total_us = 0.0;
  Time traced_steps = 0;
};

struct Spans {
  std::uint32_t step;
  std::uint32_t leave;
  std::uint32_t join;
};

/// Runs one wave; an untraced one (`log` null) probes `speed` around every
/// step and returns the time the probes took, in seconds.
double run_wave(System& sys, std::uint64_t seed, SpanLog* log,
                const Spans& ids, HostSpeed& speed, Phase& phase) {
  const sim::RunStats before = sys.gw->run_stats();
  std::vector<double> steps;
  std::vector<double> probes;
  if (log == nullptr) probes.push_back(speed.probe());
  for (Time s = 0; s < kWaveSteps; ++s) {
    const auto a = Clock::now();
    {
      const Scope scope(log, ids.step);
      sys.gw->step();
    }
    steps.push_back(us_between(a, Clock::now()));
    if (log == nullptr) probes.push_back(speed.probe());
  }
  if (log == nullptr) {
    phase.raw_step_us.insert(phase.raw_step_us.end(), steps.begin(), steps.end());
    const std::vector<double> scaled = at_reference_speed(steps, probes);
    phase.step_us.insert(phase.step_us.end(), scaled.begin(), scaled.end());
  } else {
    phase.traced_step_us.insert(phase.traced_step_us.end(), steps.begin(),
                                steps.end());
  }
  if (log != nullptr) {
    const sim::RunStats& after = sys.gw->run_stats();
    phase.pool.total_task_us += after.total_task_us - before.total_task_us;
    phase.pool.queue_us += after.queue_us - before.queue_us;
    phase.pool.wall_us += after.wall_us - before.wall_us;
    for (const double us : steps) phase.traced_step_total_us += us;
    phase.traced_steps += kWaveSteps;
  }
  for (std::size_t k = 0; k < kChurnPerWave; ++k) {
    const auto pos = static_cast<std::size_t>(sys.churn.uniform_int(
        0, static_cast<std::int64_t>(sys.ids.size()) - 1));
    const auto a = Clock::now();
    bool left = false;
    {
      const Scope scope(log, ids.leave);
      left = sys.gw->remove_stream(sys.ids[pos]).has_value();
    }
    const auto b = Clock::now();
    std::optional<StreamId> joined;
    {
      const Scope scope(log, ids.join);
      joined = sys.gw->add_stream(spec_for(seed, sys.next_spec++));
    }
    if (log != nullptr) {
      phase.leave_us.push_back(us_between(a, b));
      phase.join_us.push_back(us_between(b, Clock::now()));
    }
    if (!left || !joined) throw std::runtime_error("gateway churn failed");
    sys.ids[pos] = *joined;
  }
  double probe_ns = 0.0;
  for (const double ns : probes) probe_ns += ns;
  return probe_ns * 1e-9;
}

/// Stream-steps per second of each step; its median is kStreams over the
/// median step time.
std::vector<double> rates(const std::vector<double>& step_us) {
  std::vector<double> r;
  r.reserve(step_us.size());
  for (const double us : step_us) {
    r.push_back(static_cast<double>(kStreams) / (us * 1e-6));
  }
  return r;
}

}  // namespace

WorkloadResult run_gateway_churn(const RunOptions& opts) {
  WorkloadResult out;
  HostSpeed speed;
  SpanLog log;
  const Spans span_ids{.step = log.intern("gateway.step"),
                       .leave = log.intern("gateway.leave"),
                       .join = log.intern("gateway.join")};

  // Rounds alternate width 1 and width nproc; a traced run also alternates
  // untraced and traced pairs, so every kind of round sees the same host.
  std::vector<double> setup_s;
  Phase serial;
  Phase parallel;
  std::vector<GatewayReport> reference;
  const Deadline end(opts.seconds);
  for (int pair = 0; pair < (opts.trace ? 2 : 1) || !end.passed(); ++pair) {
    SpanLog* traced = opts.trace && pair % 2 == 1 ? &log : nullptr;
    for (const unsigned width : {1u, opts.threads}) {
      speed.probe();
      const auto start = Clock::now();
      System sys = build(opts.seed, width);
      const double raw_setup_s = seconds_since(start);
      speed.probe();
      setup_s.push_back(at_reference_speed(raw_setup_s, speed.end_round()));
      Phase& phase = width == 1 ? serial : parallel;
      const auto waves_start = Clock::now();
      double probe_s = 0.0;
      for (std::size_t w = 0; w < kRoundWaves; ++w) {
        probe_s += run_wave(sys, opts.seed, traced, span_ids, speed, phase);
        const GatewayReport report = sys.gw->report();
        out.check(report.conserves() && report.violations == 0,
                  "gateway_churn: ledger broken after a wave");
        if (reference.size() < kRoundWaves) {
          reference.push_back(report);
        } else {
          out.check(report == reference[w],
                    "gateway_churn: report differs between rounds or between "
                    "width 1 and width nproc");
        }
      }
      if (traced == nullptr) {
        const double raw_s = seconds_since(waves_start) - probe_s;
        phase.raw_round_s.push_back(raw_s);
        phase.round_s.push_back(at_reference_speed(raw_s, speed.end_round()));
      }
    }
    if (pair == 0) out.end_to_end["peak_rss_mb"] = peak_rss_mib();
  }
  const GatewayReport& ledger = reference[kLedgerWave - 1];

  out.end_to_end["setup_s"] = percentile(setup_s, 50);
  out.end_to_end["round_s"] = percentile(serial.round_s, 50);
  out.end_to_end["throughput_per_s"] =
      static_cast<double>(kStreams) / (percentile(serial.step_us, 50) * 1e-6);
  // Width nproc spawns a pool per phase per step, so on a shared host its
  // step time follows the other tenants' load on every core, which a probe
  // on this thread does not see (on a shared 4-vCPU VM the run-to-run
  // quartile spread was 0.6-0.7, against 0.1 at width 1): the bounded
  // latencies are width 1's, and width nproc is printed beside.
  // Every untraced round adds kRoundWaves waves of kWaveSteps steps.
  std::vector<std::vector<double>> serial_rounds;
  const std::size_t round_steps =
      kRoundWaves * static_cast<std::size_t>(kWaveSteps);
  for (std::size_t b = 0; b + round_steps <= serial.step_us.size();
       b += round_steps) {
    const auto first = serial.step_us.begin() + static_cast<std::ptrdiff_t>(b);
    serial_rounds.emplace_back(first,
                               first + static_cast<std::ptrdiff_t>(round_steps));
  }
  const std::vector<double> profile = median_profile(serial_rounds);
  out.end_to_end["step_p50_us"] = percentile(profile, 50);
  out.end_to_end["step_p99_us"] = percentile(profile, 99);
  out.timings = {
      {"setup_s", "s", setup_s},
      {"gateway.round_s", "s", serial.round_s},
      {"gateway.round_s (raw)", "s", serial.raw_round_s},
      {"gateway.step_us", "us", serial.step_us},
      {"gateway.step_us (raw)", "us", serial.raw_step_us},
      {"gateway.step_us (median profile)", "us", profile},
      {"gateway.step_us_par", "us", parallel.step_us},
      {"gateway.stream_steps_per_s", "1/s", rates(serial.step_us), true},
      {"gateway.stream_steps_per_s_par", "1/s", rates(parallel.step_us),
       true},
      {"host.probe_ns", "ns", speed.all_ns()}};
  if (!opts.trace) return out;

  if (!opts.span_path.empty()) {
    std::ofstream spans(opts.span_path);
    log.write(spans);
  }
  const auto steps = static_cast<double>(parallel.traced_steps);
  const auto pool_wall_us = static_cast<double>(parallel.pool.wall_us);
  auto& L = out.layers;
  L["gateway.parallel_us_per_step"] = pool_wall_us / steps;
  L["gateway.pool_concurrency"] =
      pool_wall_us > 0
          ? static_cast<double>(parallel.pool.total_task_us) / pool_wall_us
          : 0.0;
  L["gateway.queue_us_per_step"] =
      static_cast<double>(parallel.pool.queue_us) / steps;
  L["gateway.serial_us_per_step"] =
      (parallel.traced_step_total_us - pool_wall_us) / steps;
  std::vector<double> join_us = serial.join_us;
  join_us.insert(join_us.end(), parallel.join_us.begin(),
                 parallel.join_us.end());
  std::vector<double> leave_us = serial.leave_us;
  leave_us.insert(leave_us.end(), parallel.leave_us.begin(),
                  parallel.leave_us.end());
  L["gateway.join_us"] = percentile(join_us, 50);
  L["gateway.leave_us"] = percentile(leave_us, 50);
  L["gateway.served_frac"] = static_cast<double>(ledger.served) /
                             static_cast<double>(ledger.admitted);
  L["gateway.late_frac"] = static_cast<double>(ledger.served_late) /
                           static_cast<double>(ledger.served);
  // Traced waves are not probed, so they compare with raw times.
  const double untraced = percentile(serial.raw_step_us, 50);
  const double traced = percentile(serial.traced_step_us, 50);
  L["trace_overhead"] = traced / untraced - 1.0;
  out.trace_overhead["gateway.step_us"] = traced - untraced;
  out.trace_overhead["gateway.step_us_par"] =
      percentile(parallel.traced_step_us, 50) -
      percentile(parallel.raw_step_us, 50);
  return out;
}

}  // namespace perfbench
