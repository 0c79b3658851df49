// The benchmark's own tests: percentile math and host-speed rescaling, span
// self-time subtraction, and that the pass-through decorators leave every
// run byte-identical.
// Registered with ctest in perfbench/CMakeLists.txt; exits non-zero on the
// first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "core/link.h"
#include "daemon/frame_source.h"
#include "daemon/live_engine.h"
#include "decorators.h"
#include "faults/fault_links.h"
#include "obs/telemetry.h"
#include "policies/policy_factory.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "spans.h"
#include "stats.h"
#include "trace/mpeg_model.h"
#include "trace/slicer.h"

namespace {

using namespace rtsmooth;
using perfbench::SpanLog;

int g_checks = 0;

#define CHECK(cond)                                                        \
  do {                                                                     \
    ++g_checks;                                                            \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, \
                   #cond);                                                 \
      std::exit(1);                                                        \
    }                                                                      \
  } while (0)

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void test_percentiles() {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  CHECK(near(perfbench::percentile(v, 0), 1.0));
  CHECK(near(perfbench::percentile(v, 50), 2.5));
  CHECK(near(perfbench::percentile(v, 100), 4.0));
  CHECK(near(perfbench::percentile(v, 25), 1.75));
  CHECK(perfbench::percentile(std::vector<double>{}, 50) == 0.0);
  CHECK(near(perfbench::percentile(std::vector<double>{7.0}, 99), 7.0));

  // The tail is the highest percentile leaving >= 10 samples beyond it.
  CHECK(perfbench::tail_percentile_for(19) == 50.0);
  CHECK(perfbench::tail_percentile_for(100) == 90.0);
  CHECK(perfbench::tail_percentile_for(999) == 90.0);
  CHECK(perfbench::tail_percentile_for(1000) == 99.0);
  CHECK(perfbench::tail_percentile_for(9999) == 99.0);
  CHECK(perfbench::tail_percentile_for(10000) == 99.9);

  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  const perfbench::Summary s = perfbench::summarize(ramp);
  CHECK(s.count == 1000);
  CHECK(near(s.median, 500.5));
  CHECK(s.tail_pct == 99.0);
  CHECK(near(s.tail, 990.01));

  // The profile takes each step's median over the rounds: the one slow
  // step of round 1 drops out, step 2, slow in every round, stays.
  const std::vector<std::vector<double>> rounds = {
      {1.0, 2.0, 9.0}, {1.0, 50.0, 8.0}, {1.5, 2.0, 10.0}, {1.0, 2.0}};
  CHECK((perfbench::median_profile(rounds) == std::vector<double>{1.0, 2.0, 9.0}));
  CHECK(perfbench::median_profile({}).empty());

  // A time taken while the probe ran at twice its reference time is
  // reported at half; one taken at the reference speed is unchanged.
  const double ref = perfbench::kReferenceProbeNs;
  CHECK(near(perfbench::at_reference_speed(3.0, 2 * ref), 1.5));
  CHECK(near(perfbench::at_reference_speed(3.0, ref), 3.0));
  // Interval i uses the mean of the probes on either side of it.
  const std::vector<double> intervals = {10.0, 10.0};
  const std::vector<double> probes = {ref, 3 * ref, ref};
  CHECK((perfbench::at_reference_speed(intervals, probes) ==
         std::vector<double>{5.0, 5.0}));
}

void test_self_time() {
  SpanLog log;
  const std::uint32_t cell = log.intern("cell");
  const std::uint32_t shed = log.intern("shed");
  const std::uint32_t link = log.intern("link");
  const std::uint32_t inner = log.intern("inner");
  // cell [0,100] with children shed [10,30], link [20,50] (overlapping:
  // the union covers 40) and link [90,120], clipped to [90,100].
  const std::uint32_t c = log.begin(cell, 0);
  log.add(shed, 10, 30);
  const std::uint32_t l = log.begin(link, 20);
  log.add(inner, 25, 35);  // grandchild: counts against link, not cell
  log.end(l, 50);
  log.add(link, 90, 120);
  log.end(c, 100);
  const auto t = log.layer_times();
  CHECK(t.at("cell").count == 1);
  CHECK(t.at("cell").total_ns == 100);
  CHECK(t.at("cell").self_ns == 100 - 40 - 10);
  CHECK(t.at("shed").self_ns == 20);
  CHECK(t.at("link").count == 2);
  CHECK(t.at("link").total_ns == 30 + 30);
  CHECK(t.at("link").self_ns == (30 - 10) + 30);
  CHECK(t.at("inner").self_ns == 10);
  CHECK(log.spans()[1].parent == c);

  // A root span has no parent and keeps its whole duration.
  SpanLog roots;
  roots.add(roots.intern("a"), 5, 9);
  CHECK(roots.spans()[0].parent == perfbench::SpanRecord::kNoParent);
  CHECK(roots.layer_times().at("a").self_ns == 4);
}

Stream test_stream() {
  trace::MpegTraceModel model(trace::MpegModelConfig{}, 77);
  return trace::slice_frames(model.generate(300),
                             trace::ValueModel::mpeg_default(),
                             trace::Slicing::ByteSlices);
}

std::unique_ptr<Link> lossy_link(Time delay) {
  return std::make_unique<faults::GilbertElliottLink>(
      delay,
      faults::GilbertElliottConfig{.p_good_to_bad = 0.05,
                                   .p_bad_to_good = 0.3,
                                   .loss_good = 0.01,
                                   .loss_bad = 0.5},
      Rng(99));
}

/// Simulator runs with and without decorators (with and without a span log)
/// give the same report and the same registry snapshot.
void test_simulator_pass_through() {
  const Stream stream = test_stream();
  const Plan plan = Planner::from_buffer_rate(
      3 * stream.max_frame_bytes(), sim::relative_rate(stream, 0.9));
  for (const char* policy : {"tail-drop", "greedy"}) {
    for (const bool lossy : {false, true}) {
      const auto run = [&](bool decorate, SpanLog* log, std::int64_t* calls) {
        obs::Registry registry;
        sim::SimConfig config = sim::SimConfig::balanced(plan, 1);
        config.telemetry.registry = &registry;
        config.recovery.enabled = lossy;
        std::unique_ptr<Link> link =
            lossy ? lossy_link(1) : std::make_unique<FixedDelayLink>(1);
        std::unique_ptr<DropPolicy> p = make_policy(policy);
        if (decorate) {
          link = std::make_unique<perfbench::TracedLink>(std::move(link), log,
                                                         "core.link");
          p = std::make_unique<perfbench::TracedPolicy>(std::move(p), log,
                                                        calls);
        }
        sim::SmoothingSimulator simulator(stream, config, std::move(p),
                                          std::move(link));
        const SimReport report = simulator.run();
        return std::make_pair(report, registry.to_json(false).dump());
      };
      std::int64_t calls = 0;
      std::int64_t traced_calls = 0;
      SpanLog log;
      const auto plain = run(false, nullptr, nullptr);
      const auto counted = run(true, nullptr, &calls);
      const auto traced = run(true, &log, &traced_calls);
      CHECK(plain.first == counted.first);
      CHECK(plain.first == traced.first);
      CHECK(plain.second == counted.second);
      CHECK(plain.second == traced.second);
      CHECK(calls > 0);
      CHECK(calls == traced_calls);
      CHECK(!log.spans().empty());
    }
  }
}

/// LiveEngine over a decorated lossy link, fed through a decorated
/// GeneratorSource, matches the undecorated pair step for step.
void test_daemon_pass_through() {
  daemon::EngineConfig config;
  config.rate = 6000;
  config.smoothing_delay = 6;
  config.server_buffer = config.rate * config.smoothing_delay;
  config.client_buffer = config.server_buffer;
  config.recovery.enabled = true;
  daemon::GeneratorConfig gen;
  gen.channels = 3;
  gen.seed = 5;
  gen.frames_per_channel = 400;

  const auto run = [&](bool decorate, SpanLog* log) {
    std::unique_ptr<Link> link = lossy_link(config.link_delay);
    std::unique_ptr<daemon::FrameSource> source =
        std::make_unique<daemon::GeneratorSource>(gen);
    if (decorate) {
      link = std::make_unique<perfbench::TracedLink>(std::move(link), log,
                                                     "faults.link");
      source = std::make_unique<perfbench::TracedSource>(std::move(source),
                                                         log, 512);
    }
    daemon::LiveEngine engine(config, {}, std::move(link));
    std::vector<daemon::IngestFrame> frames;
    std::vector<daemon::IngestFrame> all;
    bool more = true;
    while (more || !engine.quiescent()) {
      frames.clear();
      if (more) more = source->poll(engine.now(), frames) != daemon::PollStatus::End;
      all.insert(all.end(), frames.begin(), frames.end());
      engine.step(frames);
    }
    return std::make_pair(engine.report(), all);
  };
  SpanLog log;
  const auto plain = run(false, nullptr);
  const auto traced = run(true, &log);
  CHECK(plain.first == traced.first);
  CHECK(plain.second == traced.second);
  CHECK(plain.first.conserves());
  CHECK(!log.spans().empty());

  // The source decorator stamps each step's first poll once.
  perfbench::TracedSource source(std::make_unique<daemon::GeneratorSource>(gen),
                                 nullptr, 8);
  std::vector<daemon::IngestFrame> frames;
  source.poll(0, frames);
  source.poll(0, frames);
  source.poll(1, frames);
  CHECK(source.step_start_ns().size() == 2);
  CHECK(source.frames() == 9);
  CHECK(source.serving());
  CHECK(source.probes().empty());

  // With a HostSpeed it probes before steps 0, 2, 4, ... and stamps each
  // probed step after its probe, keeping the pause apart.
  perfbench::HostSpeed speed;
  perfbench::TracedSource probed(std::make_unique<daemon::GeneratorSource>(gen),
                                 nullptr, 8, &speed, 2);
  for (Time t = 0; t < 5; ++t) probed.poll(t, frames);
  CHECK(probed.probes().size() == 3);
  CHECK(speed.all_ns().size() == 3);
  CHECK(probed.pause_ns().size() == 5);
  CHECK(probed.pause_ns()[0] > 0 && probed.pause_ns()[1] == 0 &&
        probed.pause_ns()[2] > 0);
  CHECK(probed.frames() == 15);
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_simulator_pass_through();
  test_daemon_pass_through();
  std::printf("perfbench_tests: %d checks passed\n", g_checks);
  return 0;
}
