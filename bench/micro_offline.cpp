// Microbenchmarks (google-benchmark): off-line solver scaling — the
// polymatroid greedy on byte-slice clips (up to the 4800-frame paper_sweep
// length) and on a stream whose every run is its own value class, the
// Pareto DP on whole-frame clips across clip lengths, plus the quantized
// bracket on a full-length whole-frame clip.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "microbench_main.h"

#include "analysis/competitive.h"
#include "offline/pareto_dp.h"
#include "offline/unit_optimal.h"
#include "sim/sweep.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"
#include "util/rng.h"

namespace {

using namespace rtsmooth;

Stream make_stream(trace::Slicing slicing, std::size_t frames) {
  return trace::slice_frames(trace::stock_clip("cnn-news", frames),
                             trace::ValueModel::mpeg_default(), slicing);
}

void BM_UnitOptimal(benchmark::State& state) {
  const auto frames = static_cast<std::size_t>(state.range(0));
  const Stream s = make_stream(trace::Slicing::ByteSlices, frames);
  const Bytes rate = sim::relative_rate(s, 0.9);
  const Bytes buffer = 2 * s.max_frame_bytes();
  for (auto _ : state) {
    const auto result = offline::unit_optimal(s, buffer, rate);
    benchmark::DoNotOptimize(result.benefit);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frames));
}
BENCHMARK(BM_UnitOptimal)->Arg(250)->Arg(1000)->Arg(4000)->Arg(4800);

// ~20 000 single-slice runs over 8000 steps with continuous weights, so
// every run is a value class of its own: the greedy's per-run tree walks,
// with no class large enough for a sweep.
void BM_UnitOptimalDistinctValues(benchmark::State& state) {
  Rng rng(1);
  const Stream s = analysis::random_unit_stream(rng, 8000, 4, 9.0, 1.0);
  for (auto _ : state) {
    const auto result = offline::unit_optimal(s, /*buffer=*/16, /*rate=*/2);
    benchmark::DoNotOptimize(result.benefit);
  }
  state.counters["runs"] =
      benchmark::Counter(static_cast<double>(s.run_count()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.run_count()));
}
BENCHMARK(BM_UnitOptimalDistinctValues);

void BM_ParetoDp(benchmark::State& state) {
  const auto frames = static_cast<std::size_t>(state.range(0));
  const Stream s = make_stream(trace::Slicing::WholeFrame, frames);
  const Bytes rate = sim::relative_rate(s, 0.9);
  const Bytes buffer = 2 * s.max_frame_bytes();
  std::size_t peak = 0;
  for (auto _ : state) {
    const auto result = offline::pareto_dp_optimal(s, buffer, rate);
    benchmark::DoNotOptimize(result.benefit);
    peak = std::max(peak, result.peak_states);
  }
  state.counters["peak_states"] =
      benchmark::Counter(static_cast<double>(peak));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frames));
}
BENCHMARK(BM_ParetoDp)->Arg(100)->Arg(250)->Arg(500);

// Both DPs of the quantized bracket on a full 4800-frame whole-frame clip
// at the average rate, buffer = Arg x the largest frame (the Fig. 5 and
// paper_sweep operating points). `peak_states` is the lower DP's largest
// frontier, from the exact solver on the rounded-up instance, which runs
// the same DP.
void BM_QuantizedBracket(benchmark::State& state) {
  const Stream s = make_stream(trace::Slicing::WholeFrame, 4800);
  const Bytes rate = sim::relative_rate(s, 1.0);
  const Bytes buffer = state.range(0) * s.max_frame_bytes();
  const Bytes quantum = std::max<Bytes>(256, buffer / 512);
  for (auto _ : state) {
    const auto bracket =
        offline::quantized_optimal_bracket(s, buffer, rate, quantum);
    benchmark::DoNotOptimize(bracket.lower);
    benchmark::DoNotOptimize(bracket.upper);
  }
  std::vector<SliceRun> rounded_up(s.runs().begin(), s.runs().end());
  for (SliceRun& run : rounded_up) {
    run.slice_size = (run.slice_size + quantum - 1) / quantum;
  }
  const auto lower = offline::pareto_dp_optimal(
      Stream::from_runs(std::move(rounded_up)), buffer / quantum,
      rate / quantum);
  state.counters["peak_states"] =
      benchmark::Counter(static_cast<double>(lower.peak_states));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4800);
}
BENCHMARK(BM_QuantizedBracket)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace

RTSMOOTH_BENCHMARK_MAIN()
