#include "trace.hpp"

#include <algorithm>
#include <limits>

namespace avmon::bench {

std::size_t Tracer::open(const std::string& name) {
  stack_.push_back(Open{name, nowNs(), nextId_++});
  return stack_.size() - 1;
}

double Tracer::close(std::size_t handle) {
  const std::int64_t end = nowNs();
  double seconds = 0.0;
  while (stack_.size() > handle) {
    const Open top = stack_.back();
    stack_.pop_back();
    seconds = secondsBetween(top.startNs, end);
    if (recording_) {
      const int parent = stack_.empty() ? -1 : stack_.back().id;
      spans_.push_back(Span{top.name, top.startNs, end, top.id, parent});
    }
  }
  return seconds;
}

Json Tracer::toJson() const {
  Json out = Json::array();
  for (const Span& span : spans_) {
    Json s = Json::object();
    s.set("name", span.name);
    s.set("start_ns", static_cast<double>(span.startNs));
    s.set("end_ns", static_cast<double>(span.endNs));
    s.set("id", span.id);
    s.set("parent", span.parent);
    out.push(std::move(s));
  }
  return out;
}

std::vector<Span> spansFromJson(const Json& array) {
  std::vector<Span> spans;
  for (const Json& s : array.items()) {
    spans.push_back(Span{s.at("name").asString(),
                         static_cast<std::int64_t>(s.at("start_ns").asNumber()),
                         static_cast<std::int64_t>(s.at("end_ns").asNumber()),
                         static_cast<int>(s.at("id").asNumber()),
                         static_cast<int>(s.at("parent").asNumber())});
  }
  return spans;
}

std::map<std::string, double> selfTimes(const std::vector<Span>& spans) {
  std::map<int, std::int64_t> covered;  // span id -> ns covered by children
  for (const Span& s : spans) {
    if (s.parent >= 0) covered[s.parent] += s.endNs - s.startNs;
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    const std::int64_t self =
        std::max<std::int64_t>(0, s.endNs - s.startNs - covered[s.id]);
    out[s.name] += static_cast<double>(self) * 1e-9;
  }
  return out;
}

Json chromeTrace(const std::vector<TracedRun>& runs) {
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const TracedRun& run : runs) {
    for (const Span& s : run.spans) origin = std::min(origin, s.startNs);
  }
  Json events = Json::array();
  for (const TracedRun& run : runs) {
    Json meta = Json::object();
    meta.set("name", "process_name");
    meta.set("ph", "M");
    meta.set("pid", run.runId);
    Json metaArgs = Json::object();
    metaArgs.set("name", run.label);
    meta.set("args", std::move(metaArgs));
    events.push(std::move(meta));
    for (const Span& s : run.spans) {
      Json e = Json::object();
      e.set("name", s.name);
      e.set("cat", "avmon_bench");
      e.set("ph", "X");
      e.set("ts", static_cast<double>(s.startNs - origin) * 1e-3);
      e.set("dur", static_cast<double>(s.endNs - s.startNs) * 1e-3);
      e.set("pid", run.runId);
      e.set("tid", 1);
      Json args = Json::object();
      args.set("span", s.id);
      args.set("parent", s.parent);
      args.set("run", run.runId);
      e.set("args", std::move(args));
      events.push(std::move(e));
    }
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

}  // namespace avmon::bench
