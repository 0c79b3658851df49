// Experiment helpers shared by the figure benches and examples: run a set of
// named policies on one configuration, and compute the off-line optimal
// comparator with the right solver for the stream's slice model.

#pragma once

#include <span>
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

/// Simulates every named policy on `stream` under the balanced plan. Each
/// policy runs as an independent task on a ParallelRunner (sim/runner.h):
/// `threads = 0` defers to RTSMOOTH_THREADS / the hardware, `threads = 1`
/// runs serially in place; the outcomes are identical either way and keep
/// the order of `policies`.
std::vector<PolicyOutcome> run_policies(const Stream& stream, const Plan& plan,
                                        std::span<const std::string> policies,
                                        Time link_delay = 1,
                                        unsigned threads = 0);

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
