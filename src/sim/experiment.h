// Experiment helpers shared by the figure benches and examples: the
// per-policy outcome a sweep point carries, and the off-line optimal
// comparator computed with the right solver for the stream's slice model.

#pragma once

#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/planner.h"
#include "core/slice.h"

namespace rtsmooth::sim {

struct PolicyOutcome {
  std::string policy;
  SimReport report;

  bool operator==(const PolicyOutcome&) const = default;
};

struct OptimalPoint {
  double weighted_loss = 0.0;
  double benefit_fraction = 1.0;
  /// False if the DP hit its state limit or the quantized bracket is open.
  bool exact = true;

  bool operator==(const OptimalPoint&) const = default;
};

/// Off-line optimal for the server-side problem (buffer B, rate R): exact
/// polymatroid greedy for unit slices, exact Pareto DP for up to 256
/// variable-size slices, and beyond that the midpoint of the quantized
/// bracket (`exact` only when the bracket closes).
OptimalPoint offline_optimal(const Stream& stream, Bytes buffer, Bytes rate);

}  // namespace rtsmooth::sim
