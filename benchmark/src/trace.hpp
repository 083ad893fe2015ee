// Spans recorded by the bench around each call it makes into a layer.
//
// A child process times every phase of its pass through Tracer::timed;
// when recording, the tracer also keeps each span (name, start, end,
// parent) in memory and the child hands them to the parent in its result
// document. The parent tags each child's spans with a run id, computes
// self times, and writes everything at exit as one Chrome trace-event file
// (load it in chrome://tracing or https://ui.perfetto.dev).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "json.hpp"
#include "stats.hpp"

namespace avmon::bench {

struct Span {
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int id = 0;
  int parent = -1;  ///< -1 for a top-level span
};

class Tracer {
 public:
  explicit Tracer(bool recording) : recording_(recording) {}

  bool recording() const noexcept { return recording_; }

  /// Runs `fn` inside a span named `name`, nested under the innermost open
  /// span, and returns its duration in seconds. Timing happens either way;
  /// only a recording tracer keeps the span.
  template <class F>
  double timed(const std::string& name, F&& fn) {
    const std::size_t depth = open(name);
    fn();
    return close(depth);
  }

  /// Opens a span that stays open until the matching close(); returns a
  /// handle for close().
  std::size_t open(const std::string& name);
  /// Closes the span `open` returned (and any still open inside it).
  double close(std::size_t handle);

  /// Recorded spans as a JSON array (the child → parent hand-off format).
  Json toJson() const;

 private:
  struct Open {
    std::string name;
    std::int64_t startNs;
    int id;
  };
  bool recording_;
  int nextId_ = 0;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
};

std::vector<Span> spansFromJson(const Json& array);

/// Self time per span name, in seconds: each span's duration minus the part
/// of it its children cover, summed over spans of the same name.
std::map<std::string, double> selfTimes(const std::vector<Span>& spans);

/// One child's spans, tagged for the trace file.
struct TracedRun {
  int runId = 0;
  std::string label;
  std::vector<Span> spans;
};

/// Chrome trace-event document ("X" complete events, one pid per run).
Json chromeTrace(const std::vector<TracedRun>& runs);

}  // namespace avmon::bench
