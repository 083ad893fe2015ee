// Built-in reducers. Each is a worked example of the determinism rules in
// reducer.hpp: state is integer counters and sketch-library types only, so
// merges are exact and partition-independent by construction.
#include "experiments/streaming/reducer.hpp"

#include <cmath>

#include "common/time.hpp"

namespace avmon::experiments::streaming {

namespace {

/// "summary": the MetricSet-compatible end-of-run reduction — one
/// StreamedMetric per paper metric, fed by the final node scan. Registers
/// no windowed columns, so summary-only scenarios pay nothing per window.
class SummaryReducer final : public Reducer {
 public:
  std::string name() const override { return "summary"; }

  std::unique_ptr<Reducer> fork() const override {
    return std::make_unique<SummaryReducer>();
  }

  void onNode(const NodeProbe& probe) override {
    if (probe.discoverySeconds) agg_.discoverySeconds.add(*probe.discoverySeconds);
    if (probe.discovery2Seconds) {
      agg_.discovery2Seconds.add(*probe.discovery2Seconds);
    }
    if (probe.discovery3Seconds) {
      agg_.discovery3Seconds.add(*probe.discovery3Seconds);
    }
    if (probe.memoryEntries) agg_.memoryEntries.add(*probe.memoryEntries);
    if (probe.outgoingBytesPerSecond) {
      agg_.outgoingBytesPerSecond.add(*probe.outgoingBytesPerSecond);
    }
    if (probe.uselessPingsPerMinute) {
      agg_.uselessPingsPerMinute.add(*probe.uselessPingsPerMinute);
    }
    if (probe.computationsPerSecond) {
      agg_.computationsPerSecond.add(*probe.computationsPerSecond);
    }
    if (probe.accuracy) {
      agg_.accuracyAbsError.add(
          std::fabs(probe.accuracy->estimated - probe.accuracy->actual));
    }
    if (probe.joined) {
      ++agg_.joined;
      if (probe.discoverySeconds) ++agg_.found;
    }
  }

  void mergeFrom(const Reducer& other) override {
    const auto& o = dynamic_cast<const SummaryReducer&>(other);
    agg_.discoverySeconds.merge(o.agg_.discoverySeconds);
    agg_.discovery2Seconds.merge(o.agg_.discovery2Seconds);
    agg_.discovery3Seconds.merge(o.agg_.discovery3Seconds);
    agg_.memoryEntries.merge(o.agg_.memoryEntries);
    agg_.outgoingBytesPerSecond.merge(o.agg_.outgoingBytesPerSecond);
    agg_.uselessPingsPerMinute.merge(o.agg_.uselessPingsPerMinute);
    agg_.computationsPerSecond.merge(o.agg_.computationsPerSecond);
    agg_.accuracyAbsError.merge(o.agg_.accuracyAbsError);
    agg_.joined += o.agg_.joined;
    agg_.found += o.agg_.found;
  }

  void finish(StreamedSummary& out) const override { out = agg_; }

  std::size_t stateBytes() const override {
    return sizeof(*this) - sizeof(StreamedSummary) +
           agg_.discoverySeconds.stateBytes() +
           agg_.discovery2Seconds.stateBytes() +
           agg_.discovery3Seconds.stateBytes() + agg_.memoryEntries.stateBytes() +
           agg_.outgoingBytesPerSecond.stateBytes() +
           agg_.uselessPingsPerMinute.stateBytes() +
           agg_.computationsPerSecond.stateBytes() +
           agg_.accuracyAbsError.stateBytes() + 2 * sizeof(std::uint64_t);
  }

 private:
  StreamedSummary agg_;
};

/// "traffic": windowed outgoing bytes/messages (per-shard network totals,
/// differenced at barriers) — the paper's bandwidth metric as a
/// time-series instead of one end-of-run distribution.
class TrafficReducer final : public Reducer {
 public:
  std::string name() const override { return "traffic"; }

  std::unique_ptr<Reducer> fork() const override {
    return std::make_unique<TrafficReducer>();
  }

  void onWindow(const WindowProbe& probe) override {
    windowBytes_ += probe.bytesSentDelta;
    windowMessages_ += probe.messagesSentDelta;
  }

  void mergeFrom(const Reducer& other) override {
    const auto& o = dynamic_cast<const TrafficReducer&>(other);
    windowBytes_ += o.windowBytes_;
    windowMessages_ += o.windowMessages_;
  }

  void emitWindowColumns(WindowRow& row) const override {
    const double seconds = toSeconds(row.windowEnd - row.windowStart);
    row.columns.emplace_back("traffic_bytes",
                             static_cast<double>(windowBytes_));
    row.columns.emplace_back("traffic_messages",
                             static_cast<double>(windowMessages_));
    row.columns.emplace_back(
        "traffic_bytes_per_sec",
        seconds > 0.0 ? static_cast<double>(windowBytes_) / seconds : 0.0);
  }

  void resetWindow() override {
    windowBytes_ = 0;
    windowMessages_ = 0;
  }

  std::size_t stateBytes() const override { return sizeof(*this); }

 private:
  std::uint64_t windowBytes_ = 0;
  std::uint64_t windowMessages_ = 0;
};

/// "discovery": windowed first-monitor discoveries over the measured set
/// (per window and cumulative) — the discovery-delay CDF's time axis,
/// observable while the run is still going.
class DiscoveryReducer final : public Reducer {
 public:
  std::string name() const override { return "discovery"; }

  std::unique_ptr<Reducer> fork() const override {
    return std::make_unique<DiscoveryReducer>();
  }

  void onWindow(const WindowProbe& probe) override {
    windowDiscoveries_ += probe.discoveries;
    totalDiscoveries_ += probe.discoveries;
  }

  void mergeFrom(const Reducer& other) override {
    const auto& o = dynamic_cast<const DiscoveryReducer&>(other);
    windowDiscoveries_ += o.windowDiscoveries_;
    totalDiscoveries_ += o.totalDiscoveries_;
  }

  void emitWindowColumns(WindowRow& row) const override {
    row.columns.emplace_back("discoveries",
                             static_cast<double>(windowDiscoveries_));
    row.columns.emplace_back("discovered_total",
                             static_cast<double>(totalDiscoveries_));
  }

  void resetWindow() override { windowDiscoveries_ = 0; }

  std::size_t stateBytes() const override { return sizeof(*this); }

 private:
  std::uint64_t windowDiscoveries_ = 0;
  std::uint64_t totalDiscoveries_ = 0;
};

/// "resilience": graceful degradation under the scenario's adversary —
/// windowed eclipse gauges over the collusion victims. Emits all-zero
/// columns when no attack is armed, so it is safe to run always. The
/// end-of-run victim rows come from victimOutcomes (experiments/
/// adversary.hpp), not from this reducer.
class ResilienceReducer final : public Reducer {
 public:
  std::string name() const override { return "resilience"; }

  std::unique_ptr<Reducer> fork() const override {
    return std::make_unique<ResilienceReducer>();
  }

  void onWindow(const WindowProbe& probe) override {
    windowVictimsMonitored_ += probe.victimsMonitored;
    windowVictimsEclipsed_ += probe.victimsEclipsed;
  }

  void mergeFrom(const Reducer& other) override {
    const auto& o = dynamic_cast<const ResilienceReducer&>(other);
    windowVictimsMonitored_ += o.windowVictimsMonitored_;
    windowVictimsEclipsed_ += o.windowVictimsEclipsed_;
  }

  void emitWindowColumns(WindowRow& row) const override {
    row.columns.emplace_back("victims_monitored",
                             static_cast<double>(windowVictimsMonitored_));
    row.columns.emplace_back("victims_eclipsed",
                             static_cast<double>(windowVictimsEclipsed_));
  }

  void resetWindow() override {
    windowVictimsMonitored_ = 0;
    windowVictimsEclipsed_ = 0;
  }

  std::size_t stateBytes() const override { return sizeof(*this); }

 private:
  std::uint64_t windowVictimsMonitored_ = 0;
  std::uint64_t windowVictimsEclipsed_ = 0;
};

}  // namespace

std::unique_ptr<Reducer> makeSummaryReducer() {
  return std::make_unique<SummaryReducer>();
}
std::unique_ptr<Reducer> makeTrafficReducer() {
  return std::make_unique<TrafficReducer>();
}
std::unique_ptr<Reducer> makeDiscoveryReducer() {
  return std::make_unique<DiscoveryReducer>();
}
std::unique_ptr<Reducer> makeResilienceReducer() {
  return std::make_unique<ResilienceReducer>();
}

}  // namespace avmon::experiments::streaming
