// perfbench: runs one rtsmooth benchmark workload and prints its report.
//
//   perfbench --workload paper_sweep|gateway_churn|daemon_pipe
//             --seed N --seconds S --trace 0|1
//             [--spans PATH] [--work-dir DIR]
//
// Output: a `host` line (fingerprint), one line per named timing (median,
// tail percentile, sample count), the correctness tally, and as the last
// line one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 `metrics` holds the end-to-end metrics, with --trace 1 the
// per-layer metrics (zero for a layer the workload does not call) plus
// trace_overhead. Exit status: 0 when every check passed, 1 when one
// failed, 2 on a usage error.

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "host.h"
#include "stats.h"
#include "workload.h"

namespace {

using perfbench::WorkloadResult;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every workload reports each of these (BENCHMARK.json `end_to_end`).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
    {"round_s", "s"},          {"throughput_per_s", "1/s"},
    {"step_p50_us", "us"},     {"step_p99_us", "us"},
};

struct LayerSpec {
  const char* name;
  const char* unit;
  const char* workload;  ///< the workload that measures it; "" = all
};

/// BENCHMARK.json `per_layer`, in the same order.
constexpr LayerSpec kLayers[] = {
    {"trace_overhead", "ratio", ""},
    {"trace.generate_ms", "ms", "paper_sweep"},
    {"trace.slice_ms", "ms", "paper_sweep"},
    {"sim.cell_ms.tail-drop", "ms", "paper_sweep"},
    {"sim.cell_ms.greedy", "ms", "paper_sweep"},
    {"policies.shed_calls.tail-drop", "count", "paper_sweep"},
    {"policies.shed_calls.greedy", "count", "paper_sweep"},
    {"policies.shed_share.tail-drop", "ratio", "paper_sweep"},
    {"policies.shed_share.greedy", "ratio", "paper_sweep"},
    {"obs.registry_share", "ratio", "paper_sweep"},
    {"core.link_share", "ratio", "paper_sweep"},
    {"core.server_client_share", "ratio", "paper_sweep"},
    {"offline.unit_optimal_ms", "ms", "paper_sweep"},
    {"offline.bracket_ms", "ms", "paper_sweep"},
    {"policies.dropped_byte_frac.tail-drop", "ratio", "paper_sweep"},
    {"policies.dropped_byte_frac.greedy", "ratio", "paper_sweep"},
    {"gateway.parallel_us_per_step", "us", "gateway_churn"},
    {"gateway.pool_concurrency", "ratio", "gateway_churn"},
    {"gateway.queue_us_per_step", "us", "gateway_churn"},
    {"gateway.serial_us_per_step", "us", "gateway_churn"},
    {"gateway.join_us", "us", "gateway_churn"},
    {"gateway.leave_us", "us", "gateway_churn"},
    {"gateway.served_frac", "ratio", "gateway_churn"},
    {"gateway.late_frac", "ratio", "gateway_churn"},
    {"daemon.poll_us_p50", "us", "daemon_pipe"},
    {"daemon.stalled_polls", "count", "daemon_pipe"},
    {"faults.link_us_per_step", "us", "daemon_pipe"},
    {"daemon.engine_step_us_p50", "us", "daemon_pipe"},
    {"daemon.engine_step_us_p99", "us", "daemon_pipe"},
    {"daemon.loop_overhead_us", "us", "daemon_pipe"},
    {"obs.publish_step_us_p50", "us", "daemon_pipe"},
    {"obs.sample_step_us_p50", "us", "daemon_pipe"},
    {"obs.scrape_us_p50.metrics", "us", "daemon_pipe"},
    {"obs.scrape_us_p50.json", "us", "daemon_pipe"},
    {"obs.scrape_us_p50.series", "us", "daemon_pipe"},
    {"daemon.shed_byte_frac", "ratio", "daemon_pipe"},
    {"daemon.reconfig_drain_steps", "count", "daemon_pipe"},
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload paper_sweep|gateway_churn|"
               "daemon_pipe --seed N --seconds S --trace 0|1 [--spans PATH] [--work-dir DIR]\n";
  std::exit(2);
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One `"name": {"value": v, "unit": u}` member, or "" when `value` is not
/// finite (JSON has no NaN or infinity; the caller treats it as an error).
std::string metric_json(const std::string& name, double value,
                        const char* unit) {
  if (!std::isfinite(value)) {
    std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
    return "";
  }
  return "\"" + name + "\": {\"value\": " + number(value) + ", \"unit\": \"" +
         unit + "\"}";
}

void print_report(const std::string& workload, const WorkloadResult& r) {
  std::printf("%-36s %-8s %14s %7s %14s %8s\n", workload.c_str(), "unit",
              "median", "tail", "value", "samples");
  for (const perfbench::Timing& t : r.timings) {
    const perfbench::Summary s = perfbench::summarize(t.samples);
    const double pct = t.higher_is_better ? 100.0 - s.tail_pct : s.tail_pct;
    char tail[16];
    std::snprintf(tail, sizeof tail, "p%g", pct);
    std::printf("%-36s %-8s %14.6g %7s %14.6g %8zu\n", t.name.c_str(),
                t.unit.c_str(), s.median, tail,
                perfbench::percentile(t.samples, pct), s.count);
  }
  for (const auto& [name, delta] : r.trace_overhead) {
    std::printf("trace_overhead %-19s %14.6g (traced - untraced median)\n",
                name.c_str(), delta);
  }
  const double failed_frac =
      r.attempted > 0 ? static_cast<double>(r.failed) /
                            static_cast<double>(r.attempted)
                      : 1.0;
  std::printf("ops_failed_frac %.6g (%lld of %lld checks failed)\n",
              failed_frac, static_cast<long long>(r.failed),
              static_cast<long long>(r.attempted));
  for (const std::string& f : r.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions opts;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(arg));
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
        have_seconds = opts.seconds > 0.0 && std::isfinite(opts.seconds);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opts.trace = value == "1";
        have_trace = true;
      } else if (arg == "--spans") {
        opts.span_path = value;
      } else if (arg == "--work-dir") {
        opts.work_dir = value;
      } else {
        usage("unknown option " + std::string(arg));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(arg) + ": " + value);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }
  opts.threads = perfbench::hardware_threads();
  // A scraper or producer peer that goes away must surface as a failed
  // write, not kill the process.
  std::signal(SIGPIPE, SIG_IGN);

  WorkloadResult (*run)(const perfbench::RunOptions&) = nullptr;
  if (workload == "paper_sweep") run = perfbench::run_paper_sweep;
  if (workload == "gateway_churn") run = perfbench::run_gateway_churn;
  if (workload == "daemon_pipe") run = perfbench::run_daemon_pipe;
  if (run == nullptr) usage("unknown workload '" + workload + "'");

  std::printf("host %s\n", perfbench::host_fingerprint().dump().c_str());
  std::fflush(stdout);

  WorkloadResult result;
  try {
    result = run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  print_report(workload, result);

  std::vector<std::string> metrics;
  if (!opts.trace) {
    for (const MetricSpec& m : kEndToEnd) {
      const auto it = result.end_to_end.find(m.name);
      if (it == result.end_to_end.end()) {
        std::fprintf(stderr, "perfbench: %s did not report %s\n",
                     workload.c_str(), m.name);
        return 1;
      }
      const std::string member = metric_json(m.name, it->second, m.unit);
      if (member.empty()) return 1;
      metrics.push_back(member);
    }
  } else {
    std::set<std::string> known;
    for (const LayerSpec& l : kLayers) {
      known.insert(l.name);
      const bool own = *l.workload == '\0' || workload == l.workload;
      const auto it = result.layers.find(l.name);
      if (own != (it != result.layers.end())) {
        std::fprintf(stderr, "perfbench: %s %s per-layer metric %s\n",
                     workload.c_str(), own ? "did not report" : "reported foreign",
                     l.name);
        return 1;
      }
      const std::string member =
          metric_json(l.name, own ? it->second : 0.0, l.unit);
      if (member.empty()) return 1;
      metrics.push_back(member);
    }
    for (const auto& [name, value] : result.layers) {
      if (known.count(name) == 0) {
        std::fprintf(stderr, "perfbench: undeclared per-layer metric %s\n",
                     name.c_str());
        return 1;
      }
    }
  }

  std::string line = "{\"correct\": ";
  line += result.failed == 0 && result.attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += metrics[i];
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return result.failed == 0 && result.attempted > 0 ? 0 : 1;
}
