// Microbenchmarks (google-benchmark) guarding the telemetry layer's cost
// contract (DESIGN.md Sect. 10): a default-constructed (null) Telemetry
// handle must leave the simulator's end-to-end throughput unchanged —
// compare BM_SimulateNoTelemetry against BM_SimulateNullHandle — and a
// registry-instrumented run must stay within 1.25x of the null handle:
// BM_SimulateTelemetryOn / BM_SimulateNullHandle is an in-process ratio,
// so it holds on any host (CI gates it at 1.35x for shared-runner noise).
// That ratio rests on two hot-path choices: the per-step "server.step" and
// "policy.drop" Spans time only every obs::kStepTimerPeriod-th step through
// timers resolved once per run, and power-of-two exponential histograms
// find their bucket with one bit_width. The micro-op benches bound the
// per-call cost of the individual instruments, both histogram bucket paths
// (BM_HistogramRecord: bit_width; BM_HistogramRecordLinear: binary search)
// and an enabled Span's clock reads.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "microbench_main.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"

namespace {

using namespace rtsmooth;

const Stream& clip_stream() {
  static const Stream s = trace::slice_frames(
      trace::stock_clip("cnn-news", 400), trace::ValueModel::mpeg_default(),
      trace::Slicing::ByteSlices);
  return s;
}

Plan reference_plan(const Stream& s) {
  return Planner::from_buffer_rate(2 * s.max_frame_bytes(),
                                   sim::relative_rate(s, 0.9));
}

// ------------------------------------------------------------- end-to-end

void BM_SimulateNoTelemetry(benchmark::State& state) {
  const Stream& s = clip_stream();
  const Plan plan = reference_plan(s);
  for (auto _ : state) {
    const SimReport report = sim::simulate(s, plan, "greedy");
    benchmark::DoNotOptimize(report.played.bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          s.total_bytes());
}
BENCHMARK(BM_SimulateNoTelemetry);

// The null handle travels through SimConfig but resolves no instruments;
// this must match BM_SimulateNoTelemetry (the <= 2% acceptance gate).
void BM_SimulateNullHandle(benchmark::State& state) {
  const Stream& s = clip_stream();
  const sim::SimConfig config =
      sim::SimConfig::balanced(reference_plan(s));  // telemetry left null
  for (auto _ : state) {
    const SimReport report = sim::simulate(s, config, "greedy");
    benchmark::DoNotOptimize(report.played.bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          s.total_bytes());
}
BENCHMARK(BM_SimulateNullHandle);

void BM_SimulateTelemetryOn(benchmark::State& state) {
  const Stream& s = clip_stream();
  sim::SimConfig config = sim::SimConfig::balanced(reference_plan(s));
  obs::Registry registry;
  config.telemetry = obs::Telemetry{.registry = &registry};
  for (auto _ : state) {
    const SimReport report = sim::simulate(s, config, "greedy");
    benchmark::DoNotOptimize(report.played.bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          s.total_bytes());
}
BENCHMARK(BM_SimulateTelemetryOn);

// A flight recorder rides the same Telemetry handle: every step lands in
// its ring (obs/flight_recorder.h). Its absolute overhead is tracked here;
// the *disabled* path is the null handle above.
void BM_SimulateFlightRecorderOn(benchmark::State& state) {
  const Stream& s = clip_stream();
  sim::SimConfig config = sim::SimConfig::balanced(reference_plan(s));
  for (auto _ : state) {
    obs::FlightRecorder recorder;
    config.telemetry = obs::Telemetry{.recorder = &recorder};
    const SimReport report = sim::simulate(s, config, "greedy");
    benchmark::DoNotOptimize(report.played.bytes);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          s.total_bytes());
}
BENCHMARK(BM_SimulateFlightRecorderOn);

// -------------------------------------------------------------- micro-ops

void BM_CounterAdd(benchmark::State& state) {
  obs::Registry registry;
  obs::Counter& counter = registry.counter("bench.counter");
  for (auto _ : state) {
    counter.add(1);
    benchmark::DoNotOptimize(&counter);
  }
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Registry registry;
  obs::Histogram& histogram = registry.histogram(
      "bench.histogram", obs::HistogramSpec::exponential(1, 32));
  std::int64_t value = 1;
  for (auto _ : state) {
    histogram.record(value);
    value = (value * 5 + 3) % 100000;  // wander across buckets
    benchmark::DoNotOptimize(&histogram);
  }
}
BENCHMARK(BM_HistogramRecord);

// Linear specs keep the binary search over the bounds.
void BM_HistogramRecordLinear(benchmark::State& state) {
  obs::Registry registry;
  obs::Histogram& histogram = registry.histogram(
      "bench.histogram", obs::HistogramSpec::linear(3200, 32));
  std::int64_t value = 1;
  for (auto _ : state) {
    histogram.record(value);
    value = (value * 5 + 3) % 100000;  // wander across buckets
    benchmark::DoNotOptimize(&histogram);
  }
}
BENCHMARK(BM_HistogramRecordLinear);

void BM_FlightRecorderRecord(benchmark::State& state) {
  obs::FlightRecorder recorder;  // default 256-step window, no trigger
  obs::StepRecord step;
  for (auto _ : state) {
    ++step.t;
    step.sent = (step.sent + 7) % 1000;
    recorder.record(step);
    benchmark::DoNotOptimize(&recorder);
  }
}
BENCHMARK(BM_FlightRecorderRecord);

void BM_SpanDisabled(benchmark::State& state) {
  const obs::Telemetry telemetry;  // null: Span must not read the clock
  obs::Histogram* timer = telemetry.timer("bench.span");
  for (auto _ : state) {
    const obs::Span span(timer);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

// Two clock reads and one record into a timer resolved before the loop, as
// the simulator's sampled step timers do.
void BM_SpanEnabled(benchmark::State& state) {
  obs::Registry registry;
  const obs::Telemetry telemetry{.registry = &registry};
  obs::Histogram* timer = telemetry.timer("bench.span");
  for (auto _ : state) {
    const obs::Span span(timer);
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanEnabled);

}  // namespace

RTSMOOTH_BENCHMARK_MAIN()
