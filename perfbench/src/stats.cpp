#include "stats.h"

#include <algorithm>

#include "util/stats.h"

namespace perfbench {

double percentile(std::span<const double> samples, double p) {
  if (samples.empty()) return 0.0;
  return rtsmooth::percentile(samples, std::clamp(p, 0.0, 100.0) / 100.0);
}

double tail_percentile_for(std::size_t count) {
  for (const double p : {99.9, 99.0, 90.0}) {
    // The epsilon absorbs the rounding of (100 - p) / 100 for p = 99.9.
    const double beyond = static_cast<double>(count) * (100.0 - p) / 100.0;
    if (beyond >= 10.0 - 1e-9) return p;
  }
  return 50.0;
}

Summary summarize(std::span<const double> samples) {
  Summary s;
  s.count = samples.size();
  s.median = percentile(samples, 50.0);
  s.tail_pct = tail_percentile_for(samples.size());
  s.tail = percentile(samples, s.tail_pct);
  return s;
}

std::vector<double> median_profile(std::span<const std::vector<double>> rounds) {
  std::size_t steps = 0;
  for (const std::vector<double>& r : rounds) steps = std::max(steps, r.size());
  std::vector<double> profile;
  profile.reserve(steps);
  std::vector<double> column;
  for (std::size_t k = 0; k < steps; ++k) {
    column.clear();
    for (const std::vector<double>& r : rounds) {
      if (k < r.size()) column.push_back(r[k]);
    }
    profile.push_back(percentile(column, 50));
  }
  return profile;
}

double at_reference_speed(double time, double probe_ns) {
  return time * kReferenceProbeNs / probe_ns;
}

std::vector<double> at_reference_speed(std::span<const double> intervals,
                                       std::span<const double> probes) {
  std::vector<double> out;
  out.reserve(intervals.size());
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    out.push_back(
        at_reference_speed(intervals[i], 0.5 * (probes[i] + probes[i + 1])));
  }
  return out;
}

}  // namespace perfbench
