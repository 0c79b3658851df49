// Host fingerprint and process measurements attached to every result, so a
// number can be compared with rows taken on other hosts or builds.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"

namespace perfbench {

/// Milliseconds one fixed, single-threaded integer loop takes on this host
/// (median of several repetitions). It depends only on the CPU and the
/// compiler, so the ratio of two hosts' calibration times normalises their
/// timings.
double calibration_ms();

/// Tracks how fast the host runs this thread while a workload is timed.
///
/// A shared host's cores change speed on a millisecond scale with the
/// other tenants' load (on the 4-vCPU VM the bounds were set on, a fixed
/// loop's time wanders over a factor of about 2 within seconds, and its
/// average level differs from one minute to the next), so raw times of the
/// same work spread by more than any bound between runs. probe() times a
/// short fixed piece of work, about 20 us: 2^12 rounds of the calibration
/// loop (integer arithmetic) and 1024 lookups in a 64 KiB open-addressing
/// table (loads and branches) that is first flushed from the caches (on
/// x86), so the probe's time does not depend on what the workload left in
/// them. A workload calls it between its timed pieces of work, outside
/// their timings, and rescales each piece to the reference speed with the
/// probes taken around it (see at_reference_speed in stats.h). On that VM
/// the probe slowed down with the load about as the three workloads did;
/// with the integer loop alone, paper_sweep's run-to-run spread was up to
/// twice as wide.
class HostSpeed {
 public:
  HostSpeed();
  /// Runs the probe once; returns its time in nanoseconds.
  double probe();
  /// Mean probe time since the last end_round() (0 when none ran), and
  /// starts a new round.
  double end_round();
  /// Every probe time of the run, in nanoseconds.
  const std::vector<double>& all_ns() const { return all_ns_; }

 private:
  static constexpr std::uint32_t kTableSize = 1u << 14;
  std::vector<std::uint32_t> table_;
  std::uint64_t probes_ = 0;
  double round_ns_ = 0.0;
  std::int64_t round_probes_ = 0;
  std::vector<double> all_ns_;
};

/// host, nproc, compiler, build type and flags, git sha (from the
/// PERFBENCH_GIT_SHA environment variable, "unknown" when unset) and the
/// calibration time.
rtsmooth::obs::Json host_fingerprint();

/// Peak resident set of this process so far, in MiB.
double peak_rss_mib();

/// Hardware threads available to this process (at least 1).
unsigned hardware_threads();

}  // namespace perfbench
