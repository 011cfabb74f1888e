// In-memory span recorder for the traced run.
//
// The benchmark opens a span around every call it makes into a layer
// (each setup step, coloring, probe and load rung). Spans stay in memory
// and are written once, at the end, as Chrome trace-event JSON (load the
// file in chrome://tracing or Perfetto). A disabled recorder records
// nothing, so the untraced run pays only a branch per call.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "ldc/harness/json.hpp"

namespace perfbench {

struct Span {
  std::uint64_t id = 0;      ///< 1-based; 0 is "no parent"
  std::uint64_t parent = 0;
  std::string name;
  std::uint64_t start_ns = 0;  ///< since the recorder was created
  std::uint64_t end_ns = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Closes its span when it goes out of scope; the span's parent is the
  /// innermost span open when it was created.
  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return index_ + 1; }

   private:
    SpanRecorder& rec_;
    std::size_t index_ = 0;
    bool open_ = false;
  };

  /// A closed span whose bounds were measured elsewhere (the per-mark
  /// slices rebuilt from Trace rows), under `parent`.
  void add_closed(std::string name, std::uint64_t parent,
                  std::uint64_t start_ns, std::uint64_t end_ns);

  std::uint64_t now_ns() const;
  const std::vector<Span>& spans() const { return spans_; }

  /// {"traceEvents":[{"name","ph":"X","ts","dur","pid","tid","args":
  /// {"id","parent"}},...],"displayTimeUnit":"ms","metadata":...}
  ldc::harness::Json to_trace_events(const ldc::harness::Json& metadata) const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< stack of indexes into spans_
};

/// True when every span with a parent lies within its parent's interval
/// and every parent id names an earlier span.
bool spans_nest(const std::vector<Span>& spans);

/// Reads spans back from a trace-event document written by
/// to_trace_events (the round trip the tests check).
std::vector<Span> spans_from_trace_events(const ldc::harness::Json& doc);

}  // namespace perfbench
