// Differential harness: the deque-based reference oracle (reference_core.h)
// vs the production core (sim/simulator.h) on one instance.
//
// Both runs must produce the same SimReport (operator==: every tally,
// breakdown, maximum and invariant-violation count) and the same JSONL trace
// (config / violation / step / run events). The production core absorbs
// quiescent spans and back-fills one zero-delta step event per skipped
// step, so its trace compares line for line against the oracle's, which
// visits every step.
//
// The oracle carries no registry or flight recorder: it predates the
// observability plane on purpose and stays simple enough to trust by
// inspection. For those observers the harness checks the production run's
// back-fill directly — the client and server occupancy histograms and the
// recorder's ring each take exactly one sample per step. Failures print the
// caller's reproducer (normally testgen::describe_instance).

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "obs/trace_writer.h"
#include "policies/policy_factory.h"
#include "reference_core.h"
#include "sim/simulator.h"

namespace rtsmooth::difftest {

/// Builds a fresh link for one run. Links are stateful and consumed by the
/// simulator, so every run needs its own copy — factories must return
/// identically-seeded links on every call. Empty: each simulator
/// constructs its own default FixedDelayLink.
using LinkFactory = std::function<std::unique_ptr<Link>()>;

/// What one run produces that the harness checks. The sample counts stay 0
/// for the oracle, which has no registry or recorder.
struct RunArtifacts {
  SimReport report;
  std::string trace;  ///< JSONL, one event per line
  std::int64_t client_occupancy_samples = 0;
  std::int64_t server_occupancy_samples = 0;
  std::int64_t steps_recorded = 0;
};

/// One production run with the full observability plane attached.
inline RunArtifacts run_engine(const Stream& stream,
                               const sim::SimConfig& config,
                               std::string_view policy,
                               const LinkFactory& link = {}) {
  std::ostringstream trace;
  obs::TraceWriter writer(trace);
  obs::Registry registry;
  // Small window / few incidents: enough to exercise the ring without
  // making fuzz iterations pay for a 256-step one.
  obs::FlightRecorderConfig recorder_config;
  recorder_config.window = 48;
  recorder_config.max_incidents = 4;
  obs::FlightRecorder recorder(recorder_config);
  sim::SimConfig cfg = config;
  cfg.telemetry.tracer = &writer;
  cfg.telemetry.registry = &registry;
  cfg.telemetry.recorder = &recorder;
  sim::SmoothingSimulator simulator(stream, cfg, make_policy(policy),
                                    link ? link() : nullptr);
  RunArtifacts out;
  out.report = simulator.run();
  out.trace = std::move(trace).str();
  out.client_occupancy_samples =
      registry.histograms().at("client.occupancy").count();
  out.server_occupancy_samples =
      registry.histograms().at("server.occupancy").count();
  out.steps_recorded = recorder.steps_recorded();
  return out;
}

/// The deque-oracle run.
inline RunArtifacts run_oracle(const Stream& stream,
                               const sim::SimConfig& config,
                               std::string_view policy,
                               const LinkFactory& link = {}) {
  std::ostringstream trace;
  obs::TraceWriter writer(trace);
  refcore::ReferenceSimulator simulator(stream, config, policy,
                                        link ? link() : nullptr);
  RunArtifacts out;
  out.report = simulator.run(&writer);
  out.trace = std::move(trace).str();
  return out;
}

/// Line-by-line trace diff: a full-string EXPECT_EQ would dump thousands of
/// lines; the first divergent line is what identifies the bug.
inline void expect_same_trace(const std::string& reference,
                              const std::string& engine,
                              const std::string& reproducer) {
  if (reference == engine) return;
  std::istringstream ref_in(reference);
  std::istringstream eng_in(engine);
  std::string ref_line;
  std::string eng_line;
  std::size_t line = 0;
  while (true) {
    const bool ref_ok = static_cast<bool>(std::getline(ref_in, ref_line));
    const bool eng_ok = static_cast<bool>(std::getline(eng_in, eng_line));
    ++line;
    if (!ref_ok && !eng_ok) break;
    if (ref_ok != eng_ok || ref_line != eng_line) {
      ADD_FAILURE() << "trace divergence (reference vs engine) at line "
                    << line << "\n  reference: "
                    << (ref_ok ? ref_line : std::string("<end>"))
                    << "\n  engine: "
                    << (eng_ok ? eng_line : std::string("<end>")) << "\n"
                    << reproducer;
      return;
    }
  }
  ADD_FAILURE() << "trace mismatch (reference vs engine) with no differing "
                   "line\n"
                << reproducer;
}

/// The oracle-vs-engine check. `link` builds the production link;
/// `oracle_link` builds the reference-flavoured link for the deque oracle.
/// Both default to each simulator's own FixedDelayLink.
inline void expect_matches_oracle(const Stream& stream,
                                  const sim::SimConfig& config,
                                  std::string_view policy,
                                  const std::string& reproducer,
                                  const LinkFactory& link = {},
                                  const LinkFactory& oracle_link = {}) {
  const RunArtifacts engine = run_engine(stream, config, policy, link);
  const RunArtifacts oracle = run_oracle(stream, config, policy, oracle_link);
  EXPECT_TRUE(oracle.report == engine.report)
      << "SimReport mismatch (reference vs engine)\n" << reproducer;
  expect_same_trace(oracle.trace, engine.trace, reproducer);
  // Observer back-fill: skipped steps must still land one sample each.
  const std::int64_t steps = engine.report.steps;
  EXPECT_EQ(engine.client_occupancy_samples, steps)
      << "client.occupancy samples != steps\n" << reproducer;
  EXPECT_EQ(engine.server_occupancy_samples, steps)
      << "server.occupancy samples != steps\n" << reproducer;
  EXPECT_EQ(engine.steps_recorded, steps)
      << "flight-recorder steps != steps\n" << reproducer;
}

}  // namespace rtsmooth::difftest
