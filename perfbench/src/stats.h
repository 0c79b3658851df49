// Sample summaries for the benchmark report: percentiles by linear
// interpolation between closest ranks, the "highest percentile with at
// least ten samples beyond it" rule every timing is reported with, and the
// rescaling of measured times to the reference host speed.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace perfbench {

/// The p-th percentile (0 <= p <= 100) of `samples`: rtsmooth::percentile
/// (linear interpolation between closest ranks) at p/100, and 0 for an
/// empty input.
double percentile(std::span<const double> samples, double p);

/// Median, tail percentile and sample count of one timing.
struct Summary {
  double median = 0.0;
  double tail = 0.0;
  /// The percentile `tail` reports: the highest of 99.9, 99, 90 and 50 that
  /// leaves at least ten samples beyond it, or 50 when none does.
  double tail_pct = 50.0;
  std::size_t count = 0;
};

/// The highest of 99.9, 99, 90 and 50 with n * (1 - p/100) >= 10; 50 when
/// even the median has fewer than ten samples above it.
double tail_percentile_for(std::size_t count);

Summary summarize(std::span<const double> samples);

/// The step profile of a run whose rounds repeat the same sequence of
/// steps: element k is the median over the rounds of step k's time (over
/// the rounds that have a step k). A timer tick or another thread that
/// takes the core for one step of one round drops out; a step that is slow
/// in every round stays. The step latency percentiles are taken over it.
std::vector<double> median_profile(std::span<const std::vector<double>> rounds);

/// The time HostSpeed::probe() takes at the reference speed: about its
/// mean reading over a workload's round on quiet stretches of the 4-vCPU
/// Xeon VM (KVM, GCC 12, -O3) the benchmark's bounds were set on. It only
/// fixes the scale of the reported times.
inline constexpr double kReferenceProbeNs = 20000.0;

/// `time`, measured while the speed probe read `probe_ns` on average,
/// rescaled to the reference speed: time * kReferenceProbeNs / probe_ns.
/// Every end-to-end timing is reported at the reference speed, so that a
/// run on a loaded stretch of a shared host and one on a quiet stretch give
/// the same number for the same work.
double at_reference_speed(double time, double probe_ns);

/// Rescales `intervals[i]`, measured between probe readings `probes[i]` and
/// `probes[i + 1]`, with the mean of those two readings. `probes` holds one
/// reading more than `intervals`.
std::vector<double> at_reference_speed(std::span<const double> intervals,
                                       std::span<const double> probes);

}  // namespace perfbench
