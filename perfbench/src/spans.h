// In-memory span log for the traced run. The benchmark records one span
// around each call it makes into a layer's public functions (from its own
// decorators and call sites, never from inside the library), keeps every
// span in memory while the workload runs, and writes them out at the end.
//
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover (the union of the children, clipped to
// the parent), so a cell span that encloses drop-policy and link spans
// leaves the server/client remainder as the cell's self time.
//
// One SpanLog belongs to one thread; the parent of a span is whatever span
// that thread had open when it began.

#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;  ///< index into the log, or kNoParent
  std::uint32_t name = 0;            ///< index into SpanLog::names()

  static constexpr std::uint32_t kNoParent = 0xffffffffu;
};

/// Per-name totals over a log: span count, summed duration and summed self
/// time (duration minus the covered part of the children), in nanoseconds.
struct LayerTime {
  std::int64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class SpanLog {
 public:
  /// Index of `name`, interned on first use. Call sites intern once and
  /// keep the index, so recording a span never touches a string.
  std::uint32_t intern(std::string_view name);
  const std::vector<std::string>& names() const { return names_; }

  /// Opens a span under the innermost open span; returns its index.
  std::uint32_t begin(std::uint32_t name, std::int64_t start_ns = now_ns());
  /// Closes the innermost open span, which must be `index`.
  void end(std::uint32_t index, std::int64_t end_ns = now_ns());
  /// Records an already-finished span under the innermost open span (for
  /// timings taken elsewhere, and for tests).
  void add(std::uint32_t name, std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Per-name count, total and self time over every recorded span.
  std::map<std::string, LayerTime> layer_times() const;

  /// Writes one line per span: `name parent_index start_ns end_ns`, with
  /// parent -1 for roots, after a `# perfbench spans v1` header. At most
  /// `limit` spans are written (the first ones); a trailing comment counts
  /// the rest, which layer_times() still covers.
  void write(std::ostream& out, std::size_t limit = kWriteLimit) const;

  static constexpr std::size_t kWriteLimit = 200000;

 private:
  std::vector<std::string> names_;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; a null log records nothing and reads no clock.
class Scope {
 public:
  Scope(SpanLog* log, std::uint32_t name)
      : log_(log), index_(log != nullptr ? log->begin(name) : 0) {}
  ~Scope() {
    if (log_ != nullptr) log_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::uint32_t index_;
};

}  // namespace perfbench
