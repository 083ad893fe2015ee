#include "trace/availability_trace.hpp"

#include <algorithm>
#include <string>

namespace avmon::trace {

bool NodeTrace::upAt(SimTime t) const noexcept {
  // Sessions are sorted; find the first session ending after t.
  const auto it = std::upper_bound(
      sessions.begin(), sessions.end(), t,
      [](SimTime v, const Interval& s) { return v < s.end; });
  return it != sessions.end() && it->contains(t);
}

double NodeTrace::availability(SimTime from, SimTime to) const noexcept {
  if (to <= from) return 0.0;
  SimDuration up = 0;
  for (const Interval& s : sessions) {
    const SimTime lo = std::max(from, s.start);
    const SimTime hi = std::min(to, s.end);
    if (hi > lo) up += hi - lo;
  }
  return static_cast<double>(up) / static_cast<double>(to - from);
}

std::optional<SimTime> NodeTrace::firstJoin() const noexcept {
  if (sessions.empty()) return std::nullopt;
  return sessions.front().start;
}

SimDuration NodeTrace::totalUpTime() const noexcept {
  SimDuration up = 0;
  for (const Interval& s : sessions) up += s.length();
  return up;
}

std::size_t AvailabilityTrace::aliveCount(SimTime t) const noexcept {
  std::size_t n = 0;
  for (const NodeTrace& node : nodes_) n += node.upAt(t) ? 1 : 0;
  return n;
}

double AvailabilityTrace::meanAliveCount(SimTime from, SimTime to,
                                         SimDuration step) const {
  if (to <= from || step <= 0) return 0.0;
  double sum = 0.0;
  std::size_t samples = 0;
  for (SimTime t = from; t < to; t += step) {
    sum += static_cast<double>(aliveCount(t));
    ++samples;
  }
  return samples == 0 ? 0.0 : sum / static_cast<double>(samples);
}

std::size_t AvailabilityTrace::bornBy(SimTime t) const noexcept {
  std::size_t n = 0;
  for (const NodeTrace& node : nodes_) n += node.birth <= t ? 1 : 0;
  return n;
}

double AvailabilityTrace::meanAvailability(SimTime from, SimTime to) const {
  if (nodes_.empty()) return 0.0;
  double sum = 0.0;
  std::size_t counted = 0;
  for (const NodeTrace& node : nodes_) {
    const SimTime start = std::max(from, node.birth);
    const SimTime end = node.death ? std::min(to, *node.death) : to;
    if (end <= start) continue;
    sum += node.availability(start, end);
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

void AvailabilityTrace::quantize(SimDuration grain) {
  if (grain <= 0) return;
  for (NodeTrace& node : nodes_) {
    for (Interval& s : node.sessions) {
      s.start = (s.start / grain) * grain;
      s.end = ((s.end + grain - 1) / grain) * grain;
    }
    // Rounding can create overlaps between neighbors; merge them.
    std::vector<Interval> merged;
    merged.reserve(node.sessions.size());
    for (const Interval& s : node.sessions) {
      if (!merged.empty() && s.start <= merged.back().end) {
        merged.back().end = std::max(merged.back().end, s.end);
      } else {
        merged.push_back(s);
      }
    }
    node.sessions = std::move(merged);
    node.birth = std::min(node.birth, node.sessions.empty()
                                          ? node.birth
                                          : node.sessions.front().start);
    if (node.death && !node.sessions.empty()) {
      node.death = std::max(*node.death, node.sessions.back().end);
    }
  }
}

bool NodeTrace::validate(std::string* why) const {
  const auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  SimTime prevEnd = birth;
  for (const Interval& s : sessions) {
    if (s.end <= s.start)
      return fail("empty or inverted session at node " + id.toString());
    if (s.start < prevEnd)
      return fail("overlapping/unsorted sessions at node " + id.toString());
    if (s.start < birth)
      return fail("session before birth at node " + id.toString());
    if (death && s.end > *death)
      return fail("session after death at node " + id.toString());
    prevEnd = s.end;
  }
  return true;
}

bool AvailabilityTrace::validate(std::string* why) const {
  for (const NodeTrace& node : nodes_) {
    if (!node.validate(why)) return false;
  }
  return true;
}

}  // namespace avmon::trace
