#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <emmintrin.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "stats.h"

#if !defined(NDEBUG)
#error "perfbench must be built with NDEBUG (CMAKE_BUILD_TYPE=Release)"
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "perfbench refuses sanitizer builds"
#endif

namespace perfbench {
namespace {

/// `rounds` rounds of splitmix64 folded into a running xor: integer
/// multiply, shift and add latency, no memory traffic, no library calls.
std::uint64_t calibration_loop(std::uint64_t seed, std::uint32_t rounds) {
  std::uint64_t x = seed;
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < rounds; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    acc ^= z ^ (z >> 31);
  }
  return acc;
}

}  // namespace

double calibration_ms() {
  std::vector<double> runs;
  volatile std::uint64_t sink = 0;
  for (int r = 0; r < 5; ++r) {
    const auto start = std::chrono::steady_clock::now();
    sink = sink ^ calibration_loop(static_cast<std::uint64_t>(r) + 1, 1u << 24);
    runs.push_back(std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count());
  }
  return percentile(runs, 50.0);
}

HostSpeed::HostSpeed() : table_(kTableSize) {
  std::uint32_t x = 1;
  for (std::uint32_t& slot : table_) {
    x = x * 1664525u + 1013904223u;
    slot = x >> 8;
  }
}

double HostSpeed::probe() {
#if defined(__x86_64__) || defined(__i386__)
  // Start from memory, whatever the workload left in the caches.
  for (std::size_t i = 0; i < table_.size(); i += 64 / sizeof(std::uint32_t)) {
    _mm_clflush(&table_[i]);
  }
  _mm_mfence();
#endif
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t acc = calibration_loop(++probes_, 1u << 12);
  // Lookups with linear probing: an odd slot is taken, an even one ends
  // the probe sequence.
  std::uint32_t x = 7;
  for (int i = 0; i < 1024; ++i) {
    x = x * 1664525u + 1013904223u;
    std::uint32_t h = (x >> 16) & (kTableSize - 1);
    while ((table_[h] & 1u) != 0) {
      acc += table_[h];
      h = (h + 1) & (kTableSize - 1);
    }
    acc ^= h;
  }
  volatile std::uint64_t sink = acc;
  (void)sink;
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  round_ns_ += ns;
  ++round_probes_;
  all_ns_.push_back(ns);
  return ns;
}

double HostSpeed::end_round() {
  const double mean = round_probes_ > 0 ? round_ns_ / static_cast<double>(round_probes_) : 0.0;
  round_ns_ = 0.0;
  round_probes_ = 0;
  return mean;
}

rtsmooth::obs::Json host_fingerprint() {
  rtsmooth::obs::Json host = rtsmooth::obs::Json::object();
  char name[256] = {};
  if (::gethostname(name, sizeof name - 1) != 0) name[0] = '\0';
  host["host"] = std::string(name);
  host["nproc"] = static_cast<std::int64_t>(hardware_threads());
  host["compiler"] = std::string(__VERSION__);
  host["build_type"] = PERFBENCH_BUILD_TYPE;
  host["cxx_flags"] = PERFBENCH_CXX_FLAGS;
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  host["git_sha"] = std::string(sha != nullptr && *sha != '\0' ? sha : "unknown");
  host["calibration_ms"] = calibration_ms();
  return host;
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace perfbench
