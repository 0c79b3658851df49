// What a workload hands back to main.cpp: the end-to-end values, the named
// timings behind them for the printed report, the traced run's per-layer
// values, and its correctness checks.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;    ///< nproc: the widest pool a workload may use
  std::string span_path;   ///< where the traced run writes its spans
  std::string work_dir = ".";  ///< where the daemon's stats socket goes
};

/// One named timing of the printed report, with every sample. For a rate
/// (`higher_is_better`) the tail is the slow end: p1 instead of p99.
struct Timing {
  std::string name;
  std::string unit;
  std::vector<double> samples;
  bool higher_is_better = false;
};

struct WorkloadResult {
  /// Contract end-to-end metrics by name; present in every run. The peak
  /// resident set is read right after the first complete round, before the
  /// benchmark's own sample storage grows with the run's length.
  std::map<std::string, double> end_to_end;
  /// The workload's own named metrics, printed as median / tail / count.
  std::vector<Timing> timings;
  /// Per-layer metrics; filled only by the traced run.
  std::map<std::string, double> layers;
  /// Traced minus untraced, per named timing median; traced run only.
  std::map<std::string, double> trace_overhead;

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure descriptions

  /// Counts one correctness check.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// Wall-clock budget for a measurement phase.
class Deadline {
 public:
  explicit Deadline(double seconds)
      : end_(std::chrono::steady_clock::now() +
             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(seconds))) {}
  bool passed() const { return std::chrono::steady_clock::now() >= end_; }

 private:
  std::chrono::steady_clock::time_point end_;
};

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// splitmix64 step: derives independent sub-seeds from the workload seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

WorkloadResult run_paper_sweep(const RunOptions& opts);
WorkloadResult run_gateway_churn(const RunOptions& opts);
WorkloadResult run_daemon_pipe(const RunOptions& opts);

}  // namespace perfbench
