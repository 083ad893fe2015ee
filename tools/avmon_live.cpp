// avmon_live — multi-process loopback driver for the live-wire lane.
//
// Takes a `transport = udp` spec, regenerates the same availability
// schedule the simulated lane would run (churn::generate over the spec's
// model/seed), then launches one real avmon_node process per scheduled
// node on 127.0.0.1:(udp.port_base + index) and replays the schedule's
// joins and leaves over the out-of-band control plane:
//
//   1. spawn every node process; run a readiness barrier (ControlPing
//      retried until acked) so a slow fork never skews the clock;
//   2. broadcast ControlStart — every process anchors its wall-slaved
//      simulator clock within one ack round-trip of the driver's anchor;
//   3. walk the trace's session boundaries in scaled wall time, sending
//      ControlJoin (bootstrap contact drawn from the currently-alive set,
//      the paper's coarse-view join) and ControlLeave, each retried until
//      acked;
//   4. after the horizon the nodes stop on their own, write their per-node
//      metrics JSON, and exit; the driver reaps them (SIGTERM/SIGKILL for
//      stragglers) and aggregates the reports.
//
// --cross-validate then runs the *same scenario* through the in-process
// ScenarioRunner (transport forced back to sim) and asserts the loopback
// run is statistically consistent with the simulated lane: discovery
// fraction and mean availability |error| within the declared tolerances,
// and zero wire decode failures.
//
// Usage:
//   avmon_live --spec FILE [--json FILE] [--outdir DIR] [--node-bin PATH]
//              [--cross-validate] [--tol-discovery 0.12]
//              [--tol-availability 0.10] [--keep-outputs]
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "churn/churn_model.hpp"
#include "common/node_id.hpp"
#include "common/rng.hpp"
#include "experiments/metrics.hpp"
#include "experiments/scenario.hpp"
#include "experiments/spec.hpp"
#include "net/live_transport.hpp"
#include "net/wall_clock.hpp"
#include "net/wire_codec.hpp"
#include "trace/availability_trace.hpp"

namespace {

using namespace avmon;
using experiments::Scenario;
using experiments::TransportKind;

constexpr std::uint32_t kLoopback = 0x7F000001;

[[noreturn]] void usageAndExit(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --spec FILE [options]\n"
      << "  --spec FILE          a transport = udp spec (see examples/specs/\n"
      << "                       live_*.spec); drives the whole cluster\n"
      << "  --json FILE          write the aggregated metrics JSON here\n"
      << "  --outdir DIR         per-node report directory (default\n"
      << "                       avmon_live_out; cleaned unless --keep-outputs)\n"
      << "  --node-bin PATH      avmon_node binary (default: next to this one)\n"
      << "  --cross-validate     also run the sim lane in-process and require\n"
      << "                       the loopback run to be statistically\n"
      << "                       consistent with it\n"
      << "  --tol-discovery D    max |discovery fraction delta| (default 0.12)\n"
      << "  --tol-availability A max |mean availability error delta|\n"
      << "                       (default 0.10)\n"
      << "  --keep-outputs       keep the per-node JSON files\n";
  std::exit(2);
}

// ---- scheduling ----

struct ReplayEvent {
  SimTime at = 0;
  std::uint32_t index = 0;
  bool join = false;
  bool firstJoin = false;
};

std::vector<ReplayEvent> buildSchedule(const trace::AvailabilityTrace& trace) {
  std::vector<ReplayEvent> events;
  for (std::size_t i = 0; i < trace.nodes().size(); ++i) {
    const trace::NodeTrace& nt = trace.nodes()[i];
    bool first = true;
    for (const trace::Interval& session : nt.sessions) {
      events.push_back({session.start, static_cast<std::uint32_t>(i), true,
                        first});
      first = false;
      if (session.end < trace.horizon()) {
        events.push_back(
            {session.end, static_cast<std::uint32_t>(i), false, false});
      }
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ReplayEvent& a, const ReplayEvent& b) {
                     if (a.at != b.at) return a.at < b.at;
                     if (a.join != b.join) return !a.join;  // leaves first
                     return a.index < b.index;
                   });
  return events;
}

// ---- minimal scraping of the avmon_node report (a format we own) ----

std::optional<double> findNumber(const std::string& text,
                                 const std::string& key, std::size_t from = 0) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = text.find(needle, from);
  if (at == std::string::npos) return std::nullopt;
  try {
    return std::stod(text.substr(at + needle.size()));
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

bool findBool(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = text.find(needle);
  return at != std::string::npos &&
         text.compare(at + needle.size(), 4, "true") == 0;
}

struct NodeReport {
  bool discovered = false;
  double discoveryDelayMs = -1;
  double memoryEntries = 0;
  double decodeFailures = 0;
  double bytesSent = 0;
  /// (target NodeId string, estimate) pairs from the report's targets[].
  std::vector<std::pair<std::string, double>> estimates;
};

std::optional<NodeReport> parseReport(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  if (text.empty()) return std::nullopt;

  NodeReport report;
  report.discovered = findBool(text, "discovered");
  report.discoveryDelayMs = findNumber(text, "discovery_delay_ms").value_or(-1);
  report.memoryEntries = findNumber(text, "memory_entries").value_or(0);
  report.decodeFailures = findNumber(text, "decode_failures").value_or(0);
  report.bytesSent = findNumber(text, "bytes_sent").value_or(0);

  std::size_t at = text.find("\"targets\": [");
  if (at != std::string::npos) {
    const std::string node = "{\"node\": \"";
    while ((at = text.find(node, at)) != std::string::npos) {
      const std::size_t idStart = at + node.size();
      const std::size_t idEnd = text.find('"', idStart);
      if (idEnd == std::string::npos) break;
      const auto estimate = findNumber(text, "estimate", idEnd);
      if (!estimate) break;
      report.estimates.emplace_back(text.substr(idStart, idEnd - idStart),
                                    *estimate);
      at = idEnd;
    }
  }
  return report;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

// ---- reliable control plane (driver side) ----

struct PendingControl {
  NodeId to;
  net::ControlCommand command;
  std::int64_t nextSendMs = 0;
  int sendsLeft = 50;
};

class ControlPlane {
 public:
  explicit ControlPlane(net::LiveTransport& transport) : transport_(transport) {
    transport_.setAckHandler([this](const NodeId&, std::uint64_t seq) {
      pending_.erase(seq);
    });
  }

  void send(const NodeId& to, const net::ControlCommand& command) {
    const std::uint64_t seq = nextSeq_++;
    transport_.sendControl(to, seq, command);
    PendingControl p;
    p.to = to;
    p.command = command;
    p.nextSendMs = net::wallNowMs() + kResendMs;
    pending_.emplace(seq, p);
  }

  /// Polls the socket and retransmits overdue commands. Returns false once
  /// any command has exhausted its sends (an unreachable node).
  bool pump(int waitMs) {
    transport_.poll(waitMs);
    const std::int64_t now = net::wallNowMs();
    for (auto& [seq, p] : pending_) {
      if (p.nextSendMs > now) continue;
      if (p.sendsLeft-- <= 0) return false;
      transport_.sendControl(p.to, seq, p.command);
      p.nextSendMs = now + kResendMs;
    }
    return true;
  }

  bool settled() const { return pending_.empty(); }

  /// Pumps until every outstanding command is acked or `deadlineMs` passes.
  bool settle(std::int64_t deadlineMs) {
    while (!settled()) {
      if (net::wallNowMs() > deadlineMs || !pump(5)) return false;
    }
    return true;
  }

 private:
  static constexpr std::int64_t kResendMs = 100;
  net::LiveTransport& transport_;
  std::uint64_t nextSeq_ = 1;
  std::map<std::uint64_t, PendingControl> pending_;
};

// ---- process management ----

std::string defaultNodeBinary(const char* argv0) {
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  std::string self = len > 0 ? std::string(buf, static_cast<std::size_t>(len))
                             : std::string(argv0);
  const std::size_t slash = self.rfind('/');
  return (slash == std::string::npos ? std::string(".")
                                     : self.substr(0, slash)) +
         "/avmon_node";
}

pid_t spawnNode(const std::string& binary,
                const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(binary.c_str(), argv.data());
    std::perror("avmon_live: execv");
    ::_exit(127);
  }
  return pid;
}

}  // namespace

int main(int argc, char** argv) {
  std::string specPath, jsonPath, outdir = "avmon_live_out";
  std::string nodeBinary = defaultNodeBinary(argv[0]);
  bool crossValidate = false, keepOutputs = false;
  double tolDiscovery = 0.12, tolAvailability = 0.10;

  try {
    experiments::ArgParser args(argc, argv);
    while (args.next()) {
      const std::string& arg = args.flag();
      if (arg == "--spec") specPath = args.value();
      else if (arg == "--json") jsonPath = args.value();
      else if (arg == "--outdir") outdir = args.value();
      else if (arg == "--node-bin") nodeBinary = args.value();
      else if (arg == "--cross-validate") crossValidate = true;
      else if (arg == "--tol-discovery") tolDiscovery = args.valueDouble();
      else if (arg == "--tol-availability") tolAvailability = args.valueDouble();
      else if (arg == "--keep-outputs") keepOutputs = true;
      else args.failUnknown();
    }
    if (specPath.empty()) {
      throw experiments::UsageError("--spec is required");
    }

    std::ifstream specIn(specPath);
    if (!specIn) throw std::runtime_error("cannot read spec: " + specPath);
    std::ostringstream specBuffer;
    specBuffer << specIn.rdbuf();
    const Scenario scenario = Scenario::fromSpec(specBuffer.str());
    scenario.validate();
    if (scenario.transport != TransportKind::kUdp) {
      throw std::invalid_argument(
          "avmon_live drives the live lane only — this spec says "
          "transport = sim (or omits the key); run it through avmon_sim, or "
          "add transport = udp");
    }
    if (scenario.protocol != "avmon") {
      throw std::invalid_argument(
          "the live lane hosts AVMON nodes only (avmon_node); protocol = " +
          scenario.protocol + " runs in the simulated lane");
    }

    // The same schedule the simulated lane would generate for this spec.
    const churn::WorkloadParams workload = experiments::workloadOf(scenario);
    const trace::AvailabilityTrace trace =
        churn::generate(scenario.model, workload);
    const std::size_t effectiveN =
        churn::effectiveStableSize(scenario.model, workload);
    const std::size_t count = trace.nodes().size();
    if (scenario.udp.portBase + count + 1 > 0xFFFF) {
      throw std::invalid_argument(
          "udp.port_base + node count exceeds the port space — lower n or "
          "udp.port_base");
    }

    ::mkdir(outdir.c_str(), 0755);

    const auto liveIdOf = [&](std::uint32_t index) {
      return NodeId(kLoopback, static_cast<std::uint16_t>(
                                   scenario.udp.portBase + index));
    };
    const auto reportPathOf = [&](std::uint32_t index) {
      return outdir + "/node_" + std::to_string(index) + ".json";
    };

    // ---- phase 1: spawn ----
    std::cout << "spawning " << count << " node processes on 127.0.0.1:"
              << scenario.udp.portBase << "+\n";
    std::vector<pid_t> pids(count, -1);
    for (std::uint32_t i = 0; i < count; ++i) {
      std::vector<std::string> nodeArgs = {
          "--index", std::to_string(i),
          "--n", std::to_string(effectiveN),
          "--port-base", std::to_string(scenario.udp.portBase),
          "--seed", std::to_string(scenario.seed),
          "--hash", scenario.hashName,
          "--time-scale", std::to_string(scenario.udp.timeScale),
          "--horizon-ms", std::to_string(scenario.horizon),
          "--retry-max", std::to_string(scenario.udp.retryMax),
          "--backoff-ms", std::to_string(scenario.udp.backoffMs),
          "--backoff-cap-ms", std::to_string(scenario.udp.backoffCapMs),
          "--metrics-out", reportPathOf(i)};
      if (scenario.configOverride) {
        nodeArgs.push_back("--cvs");
        nodeArgs.push_back(std::to_string(scenario.configOverride->cvs));
        nodeArgs.push_back("--k");
        nodeArgs.push_back(std::to_string(scenario.configOverride->k));
      }
      pids[i] = spawnNode(nodeBinary, nodeArgs);
      if (pids[i] < 0) throw std::runtime_error("fork failed");
    }

    net::LiveConfig driverConfig;
    driverConfig.retryMax = scenario.udp.retryMax;
    driverConfig.retryBaseMs = scenario.udp.backoffMs;
    driverConfig.retryCapMs = scenario.udp.backoffCapMs;
    net::LiveTransport transport(driverConfig);
    if (!transport.open(NodeId(
            kLoopback,
            static_cast<std::uint16_t>(scenario.udp.portBase - 1)))) {
      throw std::runtime_error("cannot bind the driver control port " +
                               std::to_string(scenario.udp.portBase - 1));
    }
    ControlPlane control(transport);

    // ---- phase 2: readiness barrier ----
    for (std::uint32_t i = 0; i < count; ++i) {
      control.send(liveIdOf(i), net::ControlPing{});
    }
    if (!control.settle(net::wallNowMs() + 30000)) {
      throw std::runtime_error(
          "readiness barrier failed: some nodes never acked ControlPing "
          "(check for port collisions under " + outdir + ")");
    }
    std::cout << "all " << count << " nodes ready\n";

    // ---- phase 3: anchor + replay ----
    const std::vector<ReplayEvent> schedule = buildSchedule(trace);
    const std::int64_t anchorWallMs = net::wallNowMs();
    for (std::uint32_t i = 0; i < count; ++i) {
      control.send(liveIdOf(i), net::ControlStart{});
    }

    Rng bootstrapRng(scenario.seed ^ 0x11BEED5ULL);
    std::vector<bool> alive(count, false);
    std::vector<std::uint32_t> aliveList;
    std::size_t nextEvent = 0;
    const std::int64_t horizonWallMs =
        anchorWallMs + static_cast<std::int64_t>(
                           static_cast<double>(scenario.horizon) /
                           scenario.udp.timeScale);
    while (nextEvent < schedule.size()) {
      const auto simNow = static_cast<SimTime>(
          static_cast<double>(net::wallNowMs() - anchorWallMs) *
          scenario.udp.timeScale);
      while (nextEvent < schedule.size() &&
             schedule[nextEvent].at <= simNow) {
        const ReplayEvent& e = schedule[nextEvent++];
        if (e.join) {
          // The paper's coarse-view join: bootstrap off any current member.
          NodeId contact = liveIdOf(e.index);  // self = "you are alone"
          if (!aliveList.empty()) {
            contact = liveIdOf(aliveList[bootstrapRng.below(
                aliveList.size())]);
          }
          control.send(liveIdOf(e.index),
                       net::ControlJoin{e.firstJoin, contact});
          if (!alive[e.index]) {
            alive[e.index] = true;
            aliveList.push_back(e.index);
          }
        } else {
          control.send(liveIdOf(e.index), net::ControlLeave{});
          if (alive[e.index]) {
            alive[e.index] = false;
            aliveList.erase(
                std::find(aliveList.begin(), aliveList.end(), e.index));
          }
        }
      }
      if (!control.pump(2)) {
        throw std::runtime_error("a node stopped acking control commands");
      }
    }
    if (!control.settle(horizonWallMs + 10000)) {
      throw std::runtime_error("schedule replay never fully acked");
    }
    std::cout << "replayed " << schedule.size() << " schedule events\n";

    // ---- phase 4: horizon + reap ----
    while (net::wallNowMs() < horizonWallMs) transport.poll(20);
    std::size_t exitedCleanly = 0;
    const std::int64_t reapDeadline = net::wallNowMs() + 15000;
    std::vector<bool> reaped(count, false);
    std::size_t remaining = count;
    bool killed = false;
    while (remaining > 0) {
      int status = 0;
      const pid_t pid = ::waitpid(-1, &status, WNOHANG);
      if (pid > 0) {
        for (std::uint32_t i = 0; i < count; ++i) {
          if (pids[i] != pid || reaped[i]) continue;
          reaped[i] = true;
          remaining -= 1;
          if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            exitedCleanly += 1;
          }
          break;
        }
        continue;
      }
      if (net::wallNowMs() > reapDeadline) {
        if (killed) break;
        killed = true;
        for (std::uint32_t i = 0; i < count; ++i) {
          if (!reaped[i]) ::kill(pids[i], SIGKILL);
        }
        continue;
      }
      if (!killed && net::wallNowMs() > reapDeadline - 10000) {
        for (std::uint32_t i = 0; i < count; ++i) {
          if (!reaped[i]) ::kill(pids[i], SIGTERM);
        }
      }
      transport.poll(20);
    }
    std::cout << exitedCleanly << "/" << count << " nodes exited cleanly\n";

    // ---- phase 5: aggregate ----
    std::size_t reports = 0, measuredCount = 0, measuredDiscovered = 0;
    double decodeFailures = 0, bytesSent = 0;
    std::vector<double> delays, memory, availabilityErrors;
    std::map<std::string, std::uint32_t> indexOfId;
    for (std::uint32_t i = 0; i < count; ++i) {
      indexOfId[liveIdOf(i).toString()] = i;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto report = parseReport(reportPathOf(i));
      if (!keepOutputs) std::remove(reportPathOf(i).c_str());
      if (!report) continue;
      reports += 1;
      decodeFailures += report->decodeFailures;
      bytesSent += report->bytesSent;
      memory.push_back(report->memoryEntries);
      if (experiments::inMeasuredSet(scenario, trace.nodes()[i])) {
        measuredCount += 1;
        if (report->discovered) {
          measuredDiscovered += 1;
          delays.push_back(report->discoveryDelayMs);
        }
      }
      for (const auto& [idText, estimate] : report->estimates) {
        const auto it = indexOfId.find(idText);
        if (it == indexOfId.end()) continue;
        const trace::NodeTrace& nt = trace.nodes()[it->second];
        const double actual =
            nt.availability(nt.birth, static_cast<SimTime>(scenario.horizon));
        availabilityErrors.push_back(std::fabs(estimate - actual));
      }
    }
    if (!keepOutputs) ::rmdir(outdir.c_str());
    const double liveDiscovery =
        measuredCount == 0 ? 0.0
                           : static_cast<double>(measuredDiscovered) /
                                 static_cast<double>(measuredCount);
    const double liveAvailError = mean(availabilityErrors);

    std::cout << "live lane: discovery " << measuredDiscovered << "/"
              << measuredCount << " = " << liveDiscovery
              << ", mean availability |error| " << liveAvailError
              << " over " << availabilityErrors.size() << " estimates, "
              << static_cast<std::uint64_t>(decodeFailures)
              << " decode failures\n";

    // ---- phase 6: cross-validation against the simulated lane ----
    bool pass = true;
    double simDiscovery = 0.0, simAvailError = 0.0;
    if (crossValidate) {
      Scenario simScenario = scenario;
      simScenario.transport = TransportKind::kSim;
      simScenario.udp = experiments::UdpSpec{};
      experiments::ScenarioRunner runner(simScenario);
      runner.run();
      const experiments::MetricSet sim = experiments::collectMetrics(runner);
      simDiscovery = sim.discoveredFraction;
      simAvailError = sim.accuracyMeanAbsError().value_or(0.0);

      const double discoveryDelta = std::fabs(liveDiscovery - simDiscovery);
      const double availDelta = std::fabs(liveAvailError - simAvailError);
      std::cout << "sim lane:  discovery " << simDiscovery
                << ", mean availability |error| " << simAvailError << "\n"
                << "deltas: discovery " << discoveryDelta << " (tolerance "
                << tolDiscovery << "), availability " << availDelta
                << " (tolerance " << tolAvailability << ")\n";
      if (discoveryDelta > tolDiscovery) {
        std::cerr << "FAIL: discovery fraction drifted beyond tolerance\n";
        pass = false;
      }
      if (availDelta > tolAvailability) {
        std::cerr << "FAIL: availability error drifted beyond tolerance\n";
        pass = false;
      }
      if (decodeFailures > 0) {
        std::cerr << "FAIL: wire decode failures on loopback must be zero\n";
        pass = false;
      }
      if (reports != count) {
        std::cerr << "FAIL: only " << reports << "/" << count
                  << " node reports were written\n";
        pass = false;
      }
      std::cout << (pass ? "cross-validation PASS\n"
                         : "cross-validation FAIL\n");
    }

    if (!jsonPath.empty()) {
      std::ofstream out(jsonPath);
      if (!out) throw std::runtime_error("cannot write " + jsonPath);
      out << "{\n"
          << "  \"spec\": \"" << specPath << "\",\n"
          << "  \"n_processes\": " << count << ",\n"
          << "  \"exited_cleanly\": " << exitedCleanly << ",\n"
          << "  \"reports\": " << reports << ",\n"
          << "  \"live\": {\"discovery_fraction\": " << liveDiscovery
          << ", \"mean_discovery_delay_ms\": " << mean(delays)
          << ", \"mean_availability_error\": " << liveAvailError
          << ", \"mean_memory_entries\": " << mean(memory)
          << ", \"decode_failures\": "
          << static_cast<std::uint64_t>(decodeFailures)
          << ", \"bytes_sent\": " << static_cast<std::uint64_t>(bytesSent)
          << "}";
      if (crossValidate) {
        out << ",\n  \"sim\": {\"discovery_fraction\": " << simDiscovery
            << ", \"mean_availability_error\": " << simAvailError << "},\n"
            << "  \"cross_validation\": {\"tolerance_discovery\": "
            << tolDiscovery << ", \"tolerance_availability\": "
            << tolAvailability << ", \"pass\": " << (pass ? "true" : "false")
            << "}";
      }
      out << "\n}\n";
      std::cout << "wrote " << jsonPath << "\n";
    }
    return pass ? 0 : 1;
  } catch (const experiments::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n\n";
    usageAndExit(argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
