#include "experiments/metrics.hpp"

#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/format_double.hpp"
#include "experiments/adversary.hpp"
#include "experiments/protocol.hpp"
#include "experiments/spec.hpp"
#include "experiments/streaming/collector.hpp"
#include "stats/table_printer.hpp"

namespace avmon::experiments {

namespace {

struct MetricStats {
  double mean = 0.0, stddev = 0.0, p50 = 0.0, p99 = 0.0;
  std::size_t count = 0;
};

MetricStats statsOf(const streaming::StreamedMetric& m) {
  MetricStats out;
  out.mean = m.stats.mean();
  out.stddev = m.stats.stddev();
  out.p50 = m.sketch.quantile(0.5);
  out.p99 = m.sketch.quantile(0.99);
  out.count = m.stats.count();
  return out;
}

/// The rows every table-shaped writer reports, in one place so the
/// summary and comparison views can never drift apart.
struct NamedMetric {
  const char* name;
  const streaming::StreamedMetric streaming::StreamedSummary::*metric;
};

constexpr NamedMetric kMetrics[] = {
    {"first-monitor discovery (s)",
     &streaming::StreamedSummary::discoverySeconds},
    {"memory entries", &streaming::StreamedSummary::memoryEntries},
    {"outgoing Bps", &streaming::StreamedSummary::outgoingBytesPerSecond},
    {"useless pings/min", &streaming::StreamedSummary::uselessPingsPerMinute},
    {"computations/s", &streaming::StreamedSummary::computationsPerSecond},
};

MetricStats statsOf(const MetricSet& set, const NamedMetric& metric) {
  return statsOf(set.summary().*(metric.metric));
}

void writeTextFile(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  if (!f) {
    throw std::runtime_error("metrics: cannot open " + path +
                             " for writing");
  }
  f << content;
  f.flush();
  f.close();
  // A full disk or vanished directory must be an error, not a silently
  // truncated file — this is the failure the old avmon_sim CSV writer
  // swallowed in the ofstream destructor.
  if (f.fail()) {
    throw std::runtime_error("metrics: write to " + path +
                             " failed (file may be truncated)");
  }
}

std::string csvOfSamples(const char* header,
                         const std::vector<double>& values) {
  std::ostringstream out;
  out << header << "\n";
  for (double v : values) out << v << "\n";
  return out.str();
}

void appendJsonStats(std::ostringstream& out, const char* key,
                     const MetricStats& s) {
  // Shortest round-tripping decimals (common/format_double.hpp): the JSON
  // artifact reparses to exactly the doubles the run produced.
  out << "    \"" << key << "\": {\"mean\": " << formatDouble(s.mean)
      << ", \"stddev\": " << formatDouble(s.stddev)
      << ", \"p50\": " << formatDouble(s.p50)
      << ", \"p99\": " << formatDouble(s.p99) << ", \"count\": " << s.count
      << "}";
}

// "0.5" -> "q0_5": a configured quantile's JSON key.
std::string quantileKeyOf(double phi) {
  std::string key = "q" + formatDouble(phi);
  for (char& c : key) {
    if (c == '.') c = '_';
  }
  return key;
}

std::string jsonKeyOf(const char* name) {
  // "first-monitor discovery (s)" -> "first_monitor_discovery_s"
  std::string key;
  for (const char* p = name; *p != '\0'; ++p) {
    const char c = *p;
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      key += c;
    } else if (c >= 'A' && c <= 'Z') {
      key += static_cast<char>(c - 'A' + 'a');
    } else if (!key.empty() && key.back() != '_') {
      key += '_';
    }
  }
  while (!key.empty() && key.back() == '_') key.pop_back();
  return key;
}

}  // namespace

std::string MetricSet::label() const {
  std::ostringstream out;
  out << protocol << " " << model << " N=" << effectiveN << " seed=" << seed;
  if (dropProbability > 0) out << " drop=" << dropProbability;
  if (rpcFailProbability > 0) out << " rpcfail=" << rpcFailProbability;
  if (collusion > 0) out << " C=" << collusion;
  if (overreportFraction > 0) out << " over=" << overreportFraction;
  if (forgetfulFraction > 0) out << " forget=" << forgetfulFraction;
  return out.str();
}

std::string MetricSet::fileLabel() const {
  std::ostringstream out;
  out << protocol << "-" << model << "-n" << effectiveN << "-s" << seed;
  if (dropProbability > 0) out << "-d" << dropProbability;
  if (rpcFailProbability > 0) out << "-rf" << rpcFailProbability;
  if (collusion > 0) out << "-c" << collusion;
  if (overreportFraction > 0) out << "-ov" << overreportFraction;
  if (forgetfulFraction > 0) out << "-fg" << forgetfulFraction;
  std::string s = out.str();
  for (char& c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!ok) c = '_';
  }
  return s;
}

std::optional<double> MetricSet::accuracyMeanAbsError() const {
  const streaming::OnlineStats& stats = summary().accuracyAbsError.stats;
  if (stats.count() == 0) return std::nullopt;
  return stats.mean();
}

std::size_t MetricSet::accuracyNodeCount() const {
  return static_cast<std::size_t>(summary().accuracyAbsError.stats.count());
}

MetricSet collectMetrics(const ScenarioRunner& runner) {
  const Scenario& s = runner.scenario();
  MetricSet out;
  out.protocol = s.protocol;
  out.model = churn::modelName(s.model);
  out.hashName = s.hashName;
  out.effectiveN = runner.effectiveN();
  out.cvs = runner.config().cvs;
  out.k = runner.config().k;
  out.protocolPeriodSeconds = toSeconds(runner.config().protocolPeriod);
  out.seed = s.seed;
  out.shards = s.shards;
  out.horizonSeconds = toSeconds(s.horizon);
  out.warmupSeconds = toSeconds(s.warmup);
  out.dropProbability = s.messageDropProbability;
  out.rpcFailProbability = s.rpcFailProbability;
  out.collusion = s.attack.collusion;
  out.overreportFraction = s.overreportFraction;
  out.forgetfulFraction = s.attack.forgetfulFraction;

  // Graceful-degradation probes: evaluated against the protocol's final
  // state (the resolved victim list is tiny, so this is not an O(N)
  // materialization).
  const ResolvedAdversary& adversary = runner.adversary();
  if (!adversary.victims.empty()) {
    const std::vector<VictimOutcome> outcomes =
        victimOutcomes(runner.protocol(), adversary, runner.schedule());
    double errSum = 0.0;
    std::size_t reporting = 0;
    for (const VictimOutcome& o : outcomes) {
      ++out.victimCount;
      if (o.eclipsed) ++out.eclipsedCount;
      if (o.estimateAbsError) {
        errSum += *o.estimateAbsError;
        ++reporting;
      }
    }
    if (reporting > 0) {
      out.victimMeanAbsError = errSum / static_cast<double>(reporting);
    }
  }

  // The per-shard banks already hold everything the writers need: the
  // snapshot's metric state is O(sketch bins + window rows), not O(N).
  const streaming::StreamingCollector& collector = runner.streamingCollector();
  out.streamed = collector.summary();
  out.windows = collector.windows();
  out.streamedQuantiles = s.metrics.quantiles;
  out.discoveredFraction = out.streamed->discoveredFraction();
  out.metricStateBytes = collector.stateBytes();
  return out;
}

MetricSet collectSamples(const ScenarioRunner& runner) {
  MetricSet out = collectMetrics(runner);
  // Measured-set metrics, in trace order.
  for (const NodeId& id : runner.measuredIds()) {
    const streaming::NodeProbe probe = streaming::probeNode(runner, id);
    if (probe.discoverySeconds) {
      out.discoverySeconds.push_back(*probe.discoverySeconds);
    }
    if (probe.computationsPerSecond) {
      out.computationsPerSecond.push_back(*probe.computationsPerSecond);
    }
    if (probe.accuracy) out.accuracy.push_back(*probe.accuracy);
  }
  // Whole-population metrics, in forEachNode order.
  const Protocol& protocol = runner.protocol();
  protocol.forEachNode([&](const NodeId& id) {
    const streaming::NodeProbe probe = streaming::probeNode(runner, id);
    if (probe.memoryEntries) out.memoryEntries.push_back(*probe.memoryEntries);
    if (probe.outgoingBytesPerSecond) {
      out.outgoingBytesPerSecond.push_back(*probe.outgoingBytesPerSecond);
    }
    if (probe.uselessPingsPerMinute) {
      out.uselessPingsPerMinute.push_back(*probe.uselessPingsPerMinute);
    }
  });
  for (const trace::NodeTrace& nt : runner.schedule().nodes()) {
    MetricSet::PerNodeRow row;
    row.id = nt.id;
    const sim::TrafficCounters traffic = runner.trafficOf(nt.id);
    row.bytesSent = traffic.bytesSent;
    row.messagesSent = traffic.messagesSent;
    row.memoryEntries = protocol.memoryEntries(nt.id);
    row.hashChecks = protocol.hashChecks(nt.id);
    row.uselessPings = protocol.uselessPings(nt.id);
    if (const auto d = protocol.discoveryDelay(nt.id, 1)) {
      row.discoverySeconds = toSeconds(*d);
    }
    out.perNode.push_back(row);
  }
  return out;
}

std::size_t printVerdicts(const std::vector<Expectation>& expectations,
                          const std::vector<MetricSet>& runs,
                          std::ostream& out) {
  stats::TablePrinter table("expectations");
  table.setHeader(
      {"point", "run", "expectation", "measured", "bound", "verdict"});
  std::size_t failed = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const MetricSet& run = runs[i];
    const analysis::ClosedFormPoint point{run.effectiveN, run.cvs, run.k,
                                          run.protocolPeriodSeconds};
    for (const Expectation& e : expectations) {
      const std::optional<double> measured = e.measuredOn(run.summary());
      const double bound = e.boundAt(point);
      const bool pass = measured && e.holds(*measured, bound);
      if (!pass) ++failed;
      std::ostringstream boundText;
      boundText << stats::TablePrinter::num(bound, 4);
      if (e.op == Expectation::Op::kNear) {
        boundText << " \xC2\xB1 " << e.tolerance
                  << (e.relativeTolerance ? "%" : "");
      }
      table.addRow({std::to_string(i + 1) + "/" + std::to_string(runs.size()),
                    run.label(), e.text,
                    measured ? stats::TablePrinter::num(*measured, 4)
                             : std::string("n/a"),
                    boundText.str(), pass ? "PASS" : "FAIL"});
    }
  }
  table.print(out);
  out << failed << " of " << runs.size() * expectations.size()
      << " expectations failed\n";
  return failed;
}

void printSummaryTables(const std::vector<MetricSet>& runs,
                        std::ostream& out) {
  for (const MetricSet& set : runs) {
    stats::TablePrinter table("scenario summary: " + set.label());
    table.setHeader({"metric", "mean", "stddev", "p50", "p99", "n"});
    for (const NamedMetric& metric : kMetrics) {
      const MetricStats s = statsOf(set, metric);
      table.addRow({metric.name, stats::TablePrinter::num(s.mean, 2),
                    stats::TablePrinter::num(s.stddev, 2),
                    stats::TablePrinter::num(s.p50, 2),
                    stats::TablePrinter::num(s.p99, 2),
                    std::to_string(s.count)});
    }
    table.print(out);
    out << "discovered fraction (>=1 monitor): "
        << stats::TablePrinter::num(set.discoveredFraction, 4) << "\n";
    if (const auto err = set.accuracyMeanAbsError()) {
      out << "availability estimate mean |error|: "
          << stats::TablePrinter::num(*err, 4) << " ("
          << set.accuracyNodeCount() << " nodes)\n";
    } else {
      out << "availability estimate mean |error|: n/a\n";
    }
    if (set.victimCount > 0) {
      out << "collusion victims eclipsed: " << set.eclipsedCount << "/"
          << set.victimCount << "\n";
      out << "victim estimate mean |error|: "
          << (set.victimMeanAbsError
                  ? stats::TablePrinter::num(*set.victimMeanAbsError, 4)
                  : std::string("n/a"))
          << "\n";
    }
    out << "\n";
  }

  // Two or more runs: the head-to-head view, one column per run. This is
  // the paper's comparison-table shape (Table 1 measured, not analytic).
  if (runs.size() >= 2) {
    stats::TablePrinter table("protocol comparison (column = run)");
    std::vector<std::string> header = {"metric"};
    for (const MetricSet& set : runs) header.push_back(set.label());
    table.setHeader(std::move(header));
    for (const NamedMetric& metric : kMetrics) {
      for (const char* stat : {"mean", "p99"}) {
        std::vector<std::string> row = {std::string(metric.name) + " " + stat};
        for (const MetricSet& set : runs) {
          const MetricStats s = statsOf(set, metric);
          row.push_back(stats::TablePrinter::num(
              std::string(stat) == "mean" ? s.mean : s.p99, 2));
        }
        table.addRow(std::move(row));
      }
    }
    std::vector<std::string> discovered = {"discovered fraction"};
    std::vector<std::string> accuracyRow = {"estimate mean |error|"};
    for (const MetricSet& set : runs) {
      discovered.push_back(
          stats::TablePrinter::num(set.discoveredFraction, 4));
      const auto err = set.accuracyMeanAbsError();
      accuracyRow.push_back(err ? stats::TablePrinter::num(*err, 4)
                                : std::string("n/a"));
    }
    table.addRow(std::move(discovered));
    table.addRow(std::move(accuracyRow));
    // Degradation rows appear only when some run faced an adversary: the
    // side-by-side then reads as "how much worse under attack".
    bool anyVictims = false;
    for (const MetricSet& set : runs) anyVictims |= set.victimCount > 0;
    if (anyVictims) {
      std::vector<std::string> eclipsedRow = {"victims eclipsed"};
      std::vector<std::string> victimErrRow = {"victim mean |error|"};
      for (const MetricSet& set : runs) {
        eclipsedRow.push_back(set.victimCount > 0
                                  ? std::to_string(set.eclipsedCount) + "/" +
                                        std::to_string(set.victimCount)
                                  : std::string("n/a"));
        victimErrRow.push_back(
            set.victimMeanAbsError
                ? stats::TablePrinter::num(*set.victimMeanAbsError, 4)
                : std::string("n/a"));
      }
      table.addRow(std::move(eclipsedRow));
      table.addRow(std::move(victimErrRow));
    }
    table.print(out);
  }

  out.flush();
  if (!out) {
    throw std::runtime_error("printSummaryTables: output stream failed");
  }
}

std::vector<std::string> writeCsvFiles(const std::string& prefix,
                                       const std::vector<MetricSet>& runs) {
  // Every run is checked before any file is written, so a sweep with one
  // row-less set leaves no partial output behind. A run always has at
  // least one trace node, so empty perNode means the rows were never
  // collected.
  for (const MetricSet& set : runs) {
    if (set.perNode.empty()) {
      throw std::invalid_argument(
          "writeCsvFiles: run '" + set.label() +
          "' carries no per-sample rows — build it with collectSamples");
    }
  }
  std::vector<std::string> written;
  for (const MetricSet& set : runs) {
    // Single-run sweeps keep the historical avmon_sim file names; multi-
    // run sweeps get one set of files per run, keyed by its label.
    const std::string base =
        runs.size() == 1 ? prefix : prefix + "." + set.fileLabel();

    const auto emit = [&](const std::string& suffix,
                          const std::string& content) {
      const std::string path = base + suffix;
      writeTextFile(path, content);
      written.push_back(path);
    };

    emit(".discovery.csv",
         csvOfSamples("discovery_seconds", set.discoverySeconds));
    emit(".memory.csv", csvOfSamples("memory_entries", set.memoryEntries));
    emit(".bandwidth.csv",
         csvOfSamples("outgoing_bps", set.outgoingBytesPerSecond));

    std::ostringstream perNode;
    perNode << "node,bytes_sent,messages_sent,memory_entries,hash_checks,"
               "useless_pings,discovery_seconds\n";
    for (const MetricSet::PerNodeRow& row : set.perNode) {
      perNode << row.id.toString() << "," << row.bytesSent << ","
              << row.messagesSent << "," << row.memoryEntries << ","
              << row.hashChecks << "," << row.uselessPings << ","
              << row.discoverySeconds << "\n";
    }
    emit(".pernode.csv", perNode.str());

    // Windowed time-series from the streaming pipeline: one row per metric
    // window, columns in the scenario's metrics.reducers order.
    if (!set.windows.empty()) {
      std::ostringstream windowsCsv;
      windowsCsv << "window_start_s,window_end_s";
      for (const auto& [name, value] : set.windows.front().columns) {
        (void)value;
        windowsCsv << "," << name;
      }
      windowsCsv << "\n";
      for (const streaming::WindowRow& row : set.windows) {
        windowsCsv << formatDouble(toSeconds(row.windowStart)) << ","
                   << formatDouble(toSeconds(row.windowEnd));
        for (const auto& [name, value] : row.columns) {
          (void)name;
          windowsCsv << "," << formatDouble(value);
        }
        windowsCsv << "\n";
      }
      emit(".windows.csv", windowsCsv.str());
    }
  }
  return written;
}

void writeJson(const std::string& path, const std::vector<MetricSet>& runs) {
  std::ostringstream out;
  out << "[\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const MetricSet& set = runs[i];
    out << "  {\n";
    out << "    \"protocol\": \"" << set.protocol << "\",\n";
    out << "    \"model\": \"" << set.model << "\",\n";
    out << "    \"hash\": \"" << set.hashName << "\",\n";
    out << "    \"n\": " << set.effectiveN << ",\n";
    out << "    \"seed\": " << set.seed << ",\n";
    out << "    \"shards\": " << set.shards << ",\n";
    out << "    \"horizon_seconds\": " << formatDouble(set.horizonSeconds)
        << ",\n";
    out << "    \"warmup_seconds\": " << formatDouble(set.warmupSeconds)
        << ",\n";
    out << "    \"drop_probability\": " << formatDouble(set.dropProbability)
        << ",\n";
    out << "    \"rpc_fail_probability\": "
        << formatDouble(set.rpcFailProbability) << ",\n";
    out << "    \"collusion\": " << set.collusion << ",\n";
    out << "    \"overreport_fraction\": "
        << formatDouble(set.overreportFraction) << ",\n";
    out << "    \"forgetful_fraction\": "
        << formatDouble(set.forgetfulFraction) << ",\n";
    out << "    \"victims\": " << set.victimCount << ",\n";
    out << "    \"victims_eclipsed\": " << set.eclipsedCount << ",\n";
    out << "    \"victim_mean_abs_error\": "
        << (set.victimMeanAbsError ? formatDouble(*set.victimMeanAbsError)
                                   : std::string("null"))
        << ",\n";
    for (const NamedMetric& metric : kMetrics) {
      appendJsonStats(out, jsonKeyOf(metric.name).c_str(),
                      statsOf(set, metric));
      out << ",\n";
    }
    out << "    \"metric_state_bytes\": " << set.metricStateBytes << ",\n";
    // The configured quantiles for every summary metric, straight from
    // each sketch (p50/p99 above are the fixed table columns).
    out << "    \"quantiles\": {";
    bool firstMetric = true;
    for (const NamedMetric& metric : kMetrics) {
      const streaming::StreamedMetric& m = set.summary().*(metric.metric);
      out << (firstMetric ? "" : ", ") << "\"" << jsonKeyOf(metric.name)
          << "\": {";
      for (std::size_t q = 0; q < set.streamedQuantiles.size(); ++q) {
        const double phi = set.streamedQuantiles[q];
        out << (q == 0 ? "" : ", ") << "\"" << quantileKeyOf(phi)
            << "\": " << formatDouble(m.sketch.quantile(phi));
      }
      out << "}";
      firstMetric = false;
    }
    out << "},\n";
    out << "    \"windows\": [";
    for (std::size_t w = 0; w < set.windows.size(); ++w) {
      const streaming::WindowRow& row = set.windows[w];
      out << (w == 0 ? "" : ", ") << "{\"window_start_s\": "
          << formatDouble(toSeconds(row.windowStart))
          << ", \"window_end_s\": " << formatDouble(toSeconds(row.windowEnd));
      for (const auto& [name, value] : row.columns) {
        out << ", \"" << name << "\": " << formatDouble(value);
      }
      out << "}";
    }
    out << "],\n";
    out << "    \"discovered_fraction\": "
        << formatDouble(set.discoveredFraction) << ",\n";
    const auto accuracyErr = set.accuracyMeanAbsError();
    out << "    \"accuracy_mean_abs_error\": "
        << (accuracyErr ? formatDouble(*accuracyErr) : std::string("null"))
        << ",\n";
    out << "    \"accuracy_nodes\": " << set.accuracyNodeCount() << "\n";
    out << "  }" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "]\n";
  writeTextFile(path, out.str());
}

}  // namespace avmon::experiments
