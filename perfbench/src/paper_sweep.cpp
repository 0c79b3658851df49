// paper_sweep: the Sect. 5 figure grid as a reproducer runs it.
//
// Input: one long cnn-news-calibrated MpegTraceModel clip seeded from the
// workload seed, cut into byte slices (and into whole frames for the Fig. 5
// bracket). A round is the grid of Figs. 2/3 -- R in {0.9, 1.1} x the
// average rate, buffers of 1..26 largest frames -- run through sim::sweep
// at pool width 1 with tail-drop, greedy and the off-line optimum at every
// point and a merged Registry attached, plus the whole-frame
// quantized_optimal_bracket of Fig. 5 on a few points. No EngineKind is
// set, so the library default runs.
//
// The traced round replays every policy cell through SmoothingSimulator
// with pass-through TracedPolicy / TracedLink decorators and the same
// per-cell registries, and times the off-line solvers one call at a time.
// Its reports and merged registry must equal the sweep's.

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/link.h"
#include "decorators.h"
#include "host.h"
#include "obs/telemetry.h"
#include "offline/pareto_dp.h"
#include "offline/unit_optimal.h"
#include "policies/policy_factory.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "stats.h"
#include "trace/mpeg_model.h"
#include "trace/slicer.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace rtsmooth;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kFrames = 4800;
const std::vector<std::string> kPolicies = {"tail-drop", "greedy"};
constexpr double kRateFractions[] = {0.9, 1.1};
/// Fig. 5 points: buffer multiples at the average rate.
constexpr int kBracketMultiples[] = {1, 8};

/// Fig. 5's bracket quantum is buffer/8192; a coarser grid keeps the two
/// solver calls from dominating the round.
Bytes bracket_quantum(Bytes buffer) { return std::max<Bytes>(256, buffer / 512); }

double ms_since(Clock::time_point start) { return 1e3 * seconds_since(start); }

struct Inputs {
  Stream bytes;
  Stream frames;
  double generate_ms = 0.0;
  double slice_ms = 0.0;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  auto start = Clock::now();
  trace::MpegTraceModel model(trace::MpegModelConfig{}, mix_seed(seed, 1));
  const trace::FrameSequence clip = model.generate(kFrames);
  in.generate_ms = ms_since(start);
  start = Clock::now();
  const trace::ValueModel values = trace::ValueModel::mpeg_default();
  in.bytes = trace::slice_frames(clip, values, trace::Slicing::ByteSlices);
  in.frames = trace::slice_frames(clip, values, trace::Slicing::WholeFrame);
  in.slice_ms = ms_since(start);
  return in;
}

std::vector<double> buffer_multiples() {
  std::vector<double> m;
  for (int i = 1; i <= 26; ++i) m.push_back(i);
  return m;
}

/// One grid (one rate) of an untraced round.
struct Grid {
  sim::SweepResult result;
  std::string registry;  ///< merged Registry::to_json(false)
};

/// Everything one untraced round measured. Times are at the reference
/// speed (stats.h) but for `raw_wall_s`.
struct Round {
  std::vector<Grid> grids;
  std::vector<double> task_us;  ///< every sweep task, submission order
  double online_s = 0.0;        ///< policy tasks
  double optimal_s = 0.0;       ///< off-line optimum tasks
  std::int64_t slots = 0;       ///< sum of SimReport::steps, policy cells
  double wall_s = 0.0;
  double raw_wall_s = 0.0;      ///< as measured, probes left out
  double raw_online_s = 0.0;    ///< as measured
  std::vector<offline::OptimalBracket> brackets;
};

/// Runs one untraced round, probing the host's speed after every sweep
/// task (outside the task's time) and once more at the end.
Round untraced_round(const Inputs& in, HostSpeed& speed) {
  Round round;
  double probe_s = 0.0;
  const auto round_start = Clock::now();
  const std::size_t per_point = kPolicies.size() + 1;
  for (const double fraction : kRateFractions) {
    obs::Registry registry;
    std::vector<double> task_us;
    std::vector<double> probes = {speed.probe()};
    probe_s += probes.back() * 1e-9;
    auto last = Clock::now();
    sim::SweepSpec spec{.axis = sim::SweepAxis::BufferMultiple,
                        .values = buffer_multiples(),
                        .policies = kPolicies,
                        .with_optimal = true,
                        .rate = sim::relative_rate(in.bytes, fraction),
                        .threads = 1,
                        .registry = &registry};
    // Width 1 runs the tasks in submission order on this thread, so the
    // gap between two completions is one task.
    spec.progress = [&](std::size_t, std::size_t) {
      const auto now = Clock::now();
      task_us.push_back(
          std::chrono::duration<double, std::micro>(now - last).count());
      probes.push_back(speed.probe());
      probe_s += probes.back() * 1e-9;
      last = Clock::now();
    };
    Grid grid{.result = sim::sweep(in.bytes, spec),
              .registry = registry.to_json(false).dump()};
    for (std::size_t k = 0; k < task_us.size(); ++k) {
      if (k % per_point != kPolicies.size()) {
        round.raw_online_s += task_us[k] * 1e-6;
      }
    }
    task_us = at_reference_speed(task_us, probes);
    for (std::size_t k = 0; k < task_us.size(); ++k) {
      const bool optimal = k % per_point == kPolicies.size();
      (optimal ? round.optimal_s : round.online_s) += task_us[k] * 1e-6;
      round.task_us.push_back(task_us[k]);
    }
    for (const sim::SweepPoint& point : grid.result.points) {
      for (const sim::PolicyOutcome& p : point.policies) {
        round.slots += p.report.steps;
      }
    }
    round.grids.push_back(std::move(grid));
  }
  const Bytes rate = sim::relative_rate(in.bytes, 1.0);
  for (const int m : kBracketMultiples) {
    const Bytes buffer = m * in.bytes.max_frame_bytes();
    round.brackets.push_back(offline::quantized_optimal_bracket(
        in.frames, buffer, rate, bracket_quantum(buffer)));
  }
  round.raw_wall_s = seconds_since(round_start) - probe_s;
  speed.probe();
  round.wall_s = at_reference_speed(round.raw_wall_s, speed.end_round());
  return round;
}

bool same_round(const Round& a, const Round& b) {
  if (a.grids.size() != b.grids.size()) return false;
  for (std::size_t g = 0; g < a.grids.size(); ++g) {
    if (a.grids[g].result.points != b.grids[g].result.points ||
        a.grids[g].registry != b.grids[g].registry) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.brackets.size(); ++i) {
    if (a.brackets[i].lower != b.brackets[i].lower ||
        a.brackets[i].upper != b.brackets[i].upper) {
      return false;
    }
  }
  return true;
}

/// Per-policy tallies of one traced round.
struct PolicyTrace {
  std::vector<double> cell_ms;
  std::int64_t shed_calls = 0;
  std::int64_t shed_ns = 0;
  std::int64_t cell_ns = 0;
  Bytes dropped = 0;
  Bytes offered = 0;
};

struct TracedRound {
  std::vector<PolicyTrace> policies{kPolicies.size()};
  std::int64_t link_ns = 0;
  std::int64_t cell_self_ns = 0;
  std::int64_t cell_ns = 0;
  double online_s = 0.0;
  std::vector<double> unit_optimal_ms;
  std::vector<double> bracket_ms;
  double plain_online_s = 0.0;  ///< the same cells, no registry, no spans
  SpanLog log;
};

/// Replays `reference` (an untraced round) cell by cell through decorated
/// policies and links, checking every report and each grid's merged
/// registry against it. With `record` the round also records spans and
/// reruns the off-line solvers and the plain cells; without, the decorators
/// only count.
void twin_round(const Inputs& in, const Round& reference, TracedRound* tr,
                bool record, WorkloadResult* out) {
  SpanLog* log = record ? &tr->log : nullptr;
  const std::uint32_t cell_span = tr->log.intern("sim.cell");
  const std::uint32_t opt_span = tr->log.intern("offline.unit_optimal");
  const std::uint32_t bracket_span = tr->log.intern("offline.bracket");
  for (const Grid& grid : reference.grids) {
    obs::Registry merged;
    for (const sim::SweepPoint& point : grid.result.points) {
      for (std::size_t j = 0; j < kPolicies.size(); ++j) {
        obs::Registry cell_registry;
        sim::SimConfig config = sim::SimConfig::balanced(point.plan, 1);
        config.telemetry.registry = &cell_registry;
        PolicyTrace& pt = tr->policies[j];
        sim::SmoothingSimulator simulator(
            in.bytes, config,
            std::make_unique<TracedPolicy>(make_policy(kPolicies[j]), log,
                                           &pt.shed_calls),
            std::make_unique<TracedLink>(
                std::make_unique<FixedDelayLink>(config.link_delay), log,
                "core.link"));
        const auto start = Clock::now();
        SimReport report;
        {
          const Scope cell(log, cell_span);
          report = simulator.run();
        }
        const double cell_s = seconds_since(start);
        tr->online_s += cell_s;
        pt.cell_ms.push_back(cell_s * 1e3);
        pt.dropped += report.dropped_server.bytes;
        pt.offered += report.offered.bytes;
        out->check(report == point.policies[j].report,
                   "paper_sweep: decorated twin report differs at x=" +
                       std::to_string(point.x) + " policy " + kPolicies[j]);
        merged.merge(cell_registry);
      }
      if (record) {
        const auto start = Clock::now();
        offline::OfflineResult opt;
        {
          const Scope scope(log, opt_span);
          opt = offline::unit_optimal(in.bytes, point.plan.buffer,
                                      point.plan.rate);
        }
        tr->unit_optimal_ms.push_back(ms_since(start));
        out->check(opt.benefit / in.bytes.total_weight() ==
                       point.optimal.benefit_fraction,
                   "paper_sweep: unit_optimal differs from the sweep's "
                   "optimum at x=" + std::to_string(point.x));
      }
    }
    out->check(merged.to_json(false).dump() == grid.registry,
               "paper_sweep: decorated twin registry differs from sweep");
  }
  if (!record) return;
  const Bytes rate = sim::relative_rate(in.bytes, 1.0);
  for (std::size_t i = 0; i < std::size(kBracketMultiples); ++i) {
    const Bytes buffer = kBracketMultiples[i] * in.bytes.max_frame_bytes();
    const auto start = Clock::now();
    offline::OptimalBracket bracket;
    {
      const Scope scope(log, bracket_span);
      bracket = offline::quantized_optimal_bracket(
          in.frames, buffer, rate, bracket_quantum(buffer));
    }
    tr->bracket_ms.push_back(ms_since(start));
    out->check(bracket.lower == reference.brackets[i].lower &&
                   bracket.upper == reference.brackets[i].upper,
               "paper_sweep: traced bracket differs");
  }
  // The same policy cells once more without registry or decorators: the
  // registry's share of a cell is (with - without) / with.
  for (const Grid& grid : reference.grids) {
    for (const sim::SweepPoint& point : grid.result.points) {
      for (const std::string& policy : kPolicies) {
        const auto start = Clock::now();
        const SimReport report = sim::simulate(in.bytes, point.plan, policy);
        tr->plain_online_s += seconds_since(start);
        out->check(report.steps > 0, "paper_sweep: empty plain cell");
      }
    }
  }
  const auto layers = tr->log.layer_times();
  const auto get = [&layers](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? LayerTime{} : it->second;
  };
  tr->link_ns = get("core.link").total_ns;
  tr->cell_ns = get("sim.cell").total_ns;
  tr->cell_self_ns = get("sim.cell").self_ns;
}

/// Shed time per policy from the span log: shed spans attribute to the
/// policy of the cell that encloses them.
void attribute_shed(TracedRound* tr) {
  const auto& spans = tr->log.spans();
  const auto& names = tr->log.names();
  // Cells are recorded in order policy j = cell_index % policies.
  std::vector<std::int64_t> cell_policy(spans.size(), -1);
  std::int64_t cell_index = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::string& name = names[s.name];
    if (name == "sim.cell") {
      const auto j = static_cast<std::size_t>(
          cell_index++ % static_cast<std::int64_t>(kPolicies.size()));
      cell_policy[i] = static_cast<std::int64_t>(j);
      tr->policies[j].cell_ns += s.end_ns - s.start_ns;
    } else if (name == "policies.shed" && s.parent != SpanRecord::kNoParent &&
               cell_policy[s.parent] >= 0) {
      tr->policies[static_cast<std::size_t>(cell_policy[s.parent])].shed_ns +=
          s.end_ns - s.start_ns;
    }
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

WorkloadResult run_paper_sweep(const RunOptions& opts) {
  WorkloadResult out;
  HostSpeed speed;
  std::vector<double> setup_s;
  std::vector<double> generate_ms;
  std::vector<double> slice_ms;
  // Setting up is a few milliseconds, so it is repeated before every
  // untraced round, spread over the run like the rounds themselves, with a
  // speed probe on either side; every repeat must rebuild the same inputs.
  const auto set_up = [&]() {
    speed.probe();
    const auto start = Clock::now();
    Inputs made = make_inputs(opts.seed);
    const double raw_s = seconds_since(start);
    speed.probe();
    setup_s.push_back(at_reference_speed(raw_s, speed.end_round()));
    generate_ms.push_back(made.generate_ms);
    slice_ms.push_back(made.slice_ms);
    return made;
  };
  const Inputs in = set_up();

  // Untraced rounds; a traced run alternates them with traced rounds, so
  // both kinds see the same host. The first untraced round is the
  // reference every later round must reproduce.
  std::optional<Round> reference;
  std::vector<double> wall_s;
  std::vector<double> raw_wall_s;
  std::vector<double> raw_online_s;
  std::vector<double> online_s;
  std::vector<double> optimal_s;
  std::vector<std::vector<double>> task_us;
  std::vector<TracedRound> traced;
  const Deadline end(opts.seconds);
  for (int r = 0; r < (opts.trace ? 2 : 1) || !end.passed(); ++r) {
    if (opts.trace && r % 2 == 1) {
      TracedRound& tr = traced.emplace_back();
      twin_round(in, *reference, &tr, /*record=*/true, &out);
      attribute_shed(&tr);
      if (traced.size() > 1) tr.log = SpanLog{};  // keep memory flat
      continue;
    }
    if (r > 0) {
      const Inputs again = set_up();
      out.check(std::ranges::equal(again.bytes.runs(), in.bytes.runs()) &&
                    std::ranges::equal(again.frames.runs(), in.frames.runs()),
                "paper_sweep: inputs differ between set-ups");
    }
    Round round = untraced_round(in, speed);
    wall_s.push_back(round.wall_s);
    raw_wall_s.push_back(round.raw_wall_s);
    raw_online_s.push_back(round.raw_online_s);
    online_s.push_back(round.online_s);
    optimal_s.push_back(round.optimal_s);
    task_us.push_back(round.task_us);
    if (!reference) {
      reference = std::move(round);
      out.end_to_end["peak_rss_mb"] = peak_rss_mib();
    } else {
      out.check(same_round(round, *reference),
                "paper_sweep: round results differ between repeats");
    }
  }
  for (const Grid& grid : reference->grids) {
    for (const sim::SweepPoint& point : grid.result.points) {
      for (const sim::PolicyOutcome& p : point.policies) {
        out.check(p.report.conserves(),
                  "paper_sweep: report does not conserve");
      }
    }
  }
  if (!opts.trace) {
    TracedRound gate;
    twin_round(in, *reference, &gate, /*record=*/false, &out);
  }

  const auto slots = static_cast<double>(reference->slots);
  std::vector<double> all_tasks;
  for (const std::vector<double>& t : task_us) {
    all_tasks.insert(all_tasks.end(), t.begin(), t.end());
  }
  std::vector<double> rates;
  for (const double s : online_s) rates.push_back(slots / s);
  out.end_to_end["setup_s"] = percentile(setup_s, 50);
  out.end_to_end["round_s"] = percentile(wall_s, 50);
  out.end_to_end["throughput_per_s"] = percentile(rates, 50);
  const std::vector<double> profile = median_profile(task_us);
  out.end_to_end["step_p50_us"] = percentile(profile, 50);
  out.end_to_end["step_p99_us"] = percentile(profile, 99);
  out.timings = {{"setup_s", "s", setup_s},
                 {"sweep.round_s", "s", wall_s},
                 {"sweep.round_s (raw)", "s", raw_wall_s},
                 {"sweep.online_slots_per_s", "slots/s", rates, true},
                 {"sweep.optimal_s", "s", optimal_s},
                 {"sweep.task_us", "us", all_tasks},
                 {"sweep.task_us (median profile)", "us", profile},
                 {"host.probe_ns", "ns", speed.all_ns()}};
  if (!opts.trace) return out;

  if (!opts.span_path.empty()) {
    std::ofstream spans(opts.span_path);
    traced.front().log.write(spans);
  }
  std::vector<double> policy_cell_ms[2];
  std::vector<double> unit_ms;
  std::vector<double> bracket_ms;
  std::vector<double> traced_online_s;
  double shed_ns[2] = {0, 0};
  double pcell_ns[2] = {0, 0};
  double link_ns = 0;
  double cell_ns = 0;
  double self_ns = 0;
  std::vector<double> plain_online_s;
  for (const TracedRound& tr : traced) {
    for (std::size_t j = 0; j < kPolicies.size(); ++j) {
      const PolicyTrace& pt = tr.policies[j];
      policy_cell_ms[j].insert(policy_cell_ms[j].end(), pt.cell_ms.begin(),
                               pt.cell_ms.end());
      shed_ns[j] += static_cast<double>(pt.shed_ns);
      pcell_ns[j] += static_cast<double>(pt.cell_ns);
    }
    unit_ms.insert(unit_ms.end(), tr.unit_optimal_ms.begin(),
                   tr.unit_optimal_ms.end());
    bracket_ms.insert(bracket_ms.end(), tr.bracket_ms.begin(),
                      tr.bracket_ms.end());
    link_ns += static_cast<double>(tr.link_ns);
    cell_ns += static_cast<double>(tr.cell_ns);
    self_ns += static_cast<double>(tr.cell_self_ns);
    plain_online_s.push_back(tr.plain_online_s);
    traced_online_s.push_back(tr.online_s);
  }
  const TracedRound& first = traced.front();
  // The traced round is not probed, so it compares with raw times.
  const double with_registry = percentile(raw_online_s, 50);
  auto& L = out.layers;
  L["trace.generate_ms"] = percentile(generate_ms, 50);
  L["trace.slice_ms"] = percentile(slice_ms, 50);
  for (std::size_t j = 0; j < kPolicies.size(); ++j) {
    const std::string& p = kPolicies[j];
    L["sim.cell_ms." + p] = percentile(policy_cell_ms[j], 50);
    L["policies.shed_calls." + p] =
        static_cast<double>(first.policies[j].shed_calls);
    L["policies.shed_share." + p] = ratio(shed_ns[j], pcell_ns[j]);
    L["policies.dropped_byte_frac." + p] =
        ratio(static_cast<double>(first.policies[j].dropped),
              static_cast<double>(first.policies[j].offered));
  }
  L["obs.registry_share"] =
      ratio(with_registry - percentile(plain_online_s, 50), with_registry);
  L["core.link_share"] = ratio(link_ns, cell_ns);
  L["core.server_client_share"] = ratio(self_ns, cell_ns);
  L["offline.unit_optimal_ms"] = percentile(unit_ms, 50);
  L["offline.bracket_ms"] = percentile(bracket_ms, 50);
  const double traced_online = percentile(traced_online_s, 50);
  L["trace_overhead"] = traced_online / with_registry - 1.0;
  out.trace_overhead["sweep.online_slots_per_s"] =
      slots / traced_online - slots / with_registry;
  return out;
}

}  // namespace perfbench
