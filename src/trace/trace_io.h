// Frame-trace file IO, in the de-facto text format of public MPEG frame-size
// traces (one frame per line). Lets users run the harness against real
// traces instead of the synthetic clips.
//
// Accepted line shapes (blank lines and '#' comments skipped):
//   "<size>"                  — size only, type recorded as Other
//   "<type> <size>"           — e.g. "I 38912"
//   "<index> <type> <size>"   — e.g. "42 P 17003"

#pragma once

#include <iosfwd>
#include <string>

#include "trace/frame.h"

namespace rtsmooth::trace {

/// Parses a trace from a stream. Throws std::runtime_error with a line
/// number on malformed input.
FrameSequence read_trace(std::istream& in);

/// Reads a trace file; throws std::runtime_error if it cannot be opened.
FrameSequence read_trace_file(const std::string& path);

/// Writes "<type> <size>" lines.
void write_trace(std::ostream& out, const FrameSequence& frames);

}  // namespace rtsmooth::trace
