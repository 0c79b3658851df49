#include "spans.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::uint32_t SpanLog::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t SpanLog::begin(std::uint32_t name, std::int64_t start_ns) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(SpanRecord{
      .start_ns = start_ns,
      .end_ns = start_ns,
      .parent = open_.empty() ? SpanRecord::kNoParent : open_.back(),
      .name = name});
  open_.push_back(index);
  return index;
}

void SpanLog::end(std::uint32_t index, std::int64_t end_ns) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("SpanLog: spans must close innermost first");
  }
  open_.pop_back();
  spans_[index].end_ns = end_ns;
}

void SpanLog::add(std::uint32_t name, std::int64_t start_ns,
                  std::int64_t end_ns) {
  end(begin(name, start_ns), end_ns);
}

std::map<std::string, LayerTime> SpanLog::layer_times() const {
  // Children per parent, as intervals clipped to the parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.parent == SpanRecord::kNoParent) continue;
    const SpanRecord& p = spans_[s.parent];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[s.parent].emplace_back(lo, hi);
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;  // end of the union so far
    for (const auto& [lo, hi] : kids) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    LayerTime& lt = out[names_[s.name]];
    const std::int64_t duration = s.end_ns - s.start_ns;
    ++lt.count;
    lt.total_ns += duration;
    lt.self_ns += duration - covered;
  }
  return out;
}

void SpanLog::write(std::ostream& out, std::size_t limit) const {
  out << "# perfbench spans v1: name parent start_ns end_ns\n";
  const std::size_t n = std::min(limit, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans_[i];
    out << names_[s.name] << ' '
        << (s.parent == SpanRecord::kNoParent ? -1
                                              : static_cast<std::int64_t>(s.parent))
        << ' ' << s.start_ns << ' ' << s.end_ns << '\n';
  }
  if (n < spans_.size()) {
    out << "# " << spans_.size() - n << " more spans not written\n";
  }
}

}  // namespace perfbench
