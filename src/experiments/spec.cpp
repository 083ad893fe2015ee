#include "experiments/spec.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/parse_int.hpp"

namespace avmon::experiments {

namespace {

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

std::vector<std::string> splitList(const std::string& value) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(value);
  while (std::getline(in, item, ',')) out.push_back(trim(item));
  if (out.empty()) out.push_back("");
  return out;
}

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("spec line " + std::to_string(line) + ": " +
                              what);
}

bool parseBool(const std::string& v, std::size_t line) {
  if (v == "true" || v == "1" || v == "on" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "off" || v == "no") return false;
  fail(line, "expected a boolean (true/false), got '" + v + "'");
}

// Reads `v` as a finite real number spanning the whole string.
bool readFiniteDouble(const std::string& v, double& out) {
  if (v.empty() || std::isspace(static_cast<unsigned char>(v[0]))) {
    return false;
  }
  try {
    std::size_t used = 0;
    out = std::stod(v, &used);
    return used == v.size() && std::isfinite(out);
  } catch (const std::exception&) {
    return false;
  }
}

// An unsigned integer of type T no larger than `max` (readUInt's rule).
template <typename T>
T parseUInt(const std::string& v, std::size_t line,
            std::uint64_t max = static_cast<std::uint64_t>(
                std::numeric_limits<T>::max())) {
  std::uint64_t x = 0;
  const std::string error = readUInt(v, max, x);
  if (!error.empty()) fail(line, error);
  return static_cast<T>(x);
}

// Whole minutes as SimDuration milliseconds, bounded so the product cannot
// overflow.
SimDuration parseMinutes(const std::string& v, std::size_t line) {
  constexpr std::uint64_t kMaxMinutes =
      std::numeric_limits<SimDuration>::max() / kMinute;
  return parseUInt<SimDuration>(v, line, kMaxMinutes) * kMinute;
}

double parseDouble(const std::string& v, std::size_t line) {
  double x = 0;
  if (!readFiniteDouble(v, x)) {
    fail(line, "expected a finite number, got '" + v + "'");
  }
  return x;
}

// Splits a multi-entry value on `sep`, trimming each piece. Unlike
// splitList, an empty value yields no entries.
std::vector<std::string> splitEntries(const std::string& value, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(value);
  while (std::getline(in, item, sep)) {
    const std::string t = trim(item);
    if (!t.empty()) out.push_back(t);
  }
  return out;
}

// Splits one colon-separated fault entry into exactly `count` fields.
std::vector<std::string> splitFields(const std::string& entry,
                                     std::size_t count, std::size_t line,
                                     const char* shape) {
  const std::vector<std::string> fields = splitEntries(entry, ':');
  if (fields.size() != count) {
    fail(line, std::string("expected '") + shape + "', got '" + entry + "'");
  }
  return fields;
}

// Fault-plan times are written in seconds (the spec's human unit);
// internally everything is SimTime milliseconds.
SimTime parseSeconds(const std::string& v, std::size_t line) {
  const double seconds = parseDouble(v, line);
  if (seconds < 0) fail(line, "expected a non-negative time in seconds");
  // 2^63 ms is the first value SimTime cannot hold; check before rounding.
  constexpr double kLimitMs = 0x1p63;
  if (!(seconds * kSecond < kLimitMs)) {
    fail(line, "'" + v + "' seconds is out of range (below " +
                   formatDouble(kLimitMs / kSecond) + ")");
  }
  return static_cast<SimTime>(std::llround(seconds * kSecond));
}

avmon::ShufflePolicy parseShuffle(const std::string& v, std::size_t line) {
  if (v == "union-sample" || v == "union_sample")
    return avmon::ShufflePolicy::kUnionSample;
  if (v == "swap") return avmon::ShufflePolicy::kSwap;
  fail(line, "expected shuffle = union-sample|swap, got '" + v + "'");
}

MeasuredSet parseMeasured(const std::string& v, std::size_t line) {
  if (v == "auto") return MeasuredSet::kAuto;
  if (v == "control") return MeasuredSet::kControlGroup;
  if (v == "born_after_warmup") return MeasuredSet::kBornAfterWarmup;
  if (v == "all") return MeasuredSet::kAll;
  fail(line, "expected measured = auto|control|born_after_warmup|all, got '" +
                 v + "'");
}

TransportKind parseTransport(const std::string& v, std::size_t line) {
  if (v == "sim") return TransportKind::kSim;
  if (v == "udp") return TransportKind::kUdp;
  fail(line, "expected transport = sim|udp, got '" + v + "'");
}

const char* transportName(TransportKind t) {
  switch (t) {
    case TransportKind::kSim: return "sim";
    case TransportKind::kUdp: return "udp";
  }
  return "sim";
}

const char* measuredName(MeasuredSet m) {
  switch (m) {
    case MeasuredSet::kAuto: return "auto";
    case MeasuredSet::kControlGroup: return "control";
    case MeasuredSet::kBornAfterWarmup: return "born_after_warmup";
    case MeasuredSet::kAll: return "all";
  }
  return "auto";
}

// The cvs/k keys park their raw values in a placeholder override (both 0
// until set); expand() resolves it per point through cvsKOverride once the
// point's model and n are known.
AvmonConfig& rawCvsK(Scenario& s) {
  if (!s.configOverride) {
    AvmonConfig raw;
    raw.cvs = 0;
    raw.k = 0;
    s.configOverride = raw;
  }
  return *s.configOverride;
}

/// One spec key: how one value applies to a Scenario. kKeys' order is the
/// sweep nesting order, outermost first.
struct KeyRule {
  const char* name;
  void (*apply)(Scenario& s, const std::string& value, std::size_t line);
  /// The comma list is one value, not a sweep.
  bool wholeList = false;
};

const KeyRule kKeys[] = {
    {"protocol",
     [](Scenario& s, const std::string& v, std::size_t line) {
       if (v.empty()) fail(line, "empty protocol name");
       s.protocol = v;
     }},
    {"model",
     [](Scenario& s, const std::string& v, std::size_t line) {
       try {
         s.model = churn::modelFromName(v);
       } catch (const std::invalid_argument& e) {
         fail(line, e.what());
       }
     }},
    {"n",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.stableSize = parseUInt<std::size_t>(v, line);
     }},
    {"seed",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.seed = parseUInt<std::uint64_t>(v, line);
     }},
    {"drop",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.messageDropProbability = parseDouble(v, line);
     }},
    {"overreport",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.overreportFraction = parseDouble(v, line);
     }},
    {"horizon_min",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.horizon = parseMinutes(v, line);
     }},
    {"horizon_ms",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.horizon = parseUInt<SimDuration>(v, line);
     }},
    {"warmup_min",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.warmup = parseMinutes(v, line);
     }},
    {"warmup_ms",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.warmup = parseUInt<SimTime>(v, line);
     }},
    {"control_fraction",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.controlFraction = parseDouble(v, line);
     }},
    {"hash",
     [](Scenario& s, const std::string& v, std::size_t) { s.hashName = v; }},
    {"cvs",
     [](Scenario& s, const std::string& v, std::size_t line) {
       rawCvsK(s).cvs = parseUInt<std::size_t>(v, line);
     }},
    {"k",
     [](Scenario& s, const std::string& v, std::size_t line) {
       rawCvsK(s).k = parseUInt<unsigned>(v, line);
     }},
    {"pr2",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.pr2 = parseBool(v, line);
     }},
    {"forgetful",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.forgetful = parseBool(v, line);
     }},
    {"forgetful_ewma",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.forgetfulEwma = parseBool(v, line);
     }},
    {"rpc_fail",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.rpcFailProbability = parseDouble(v, line);
     }},
    {"measured",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.measured = parseMeasured(v, line);
     }},
    {"shards",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.shards = parseUInt<unsigned>(v, line);
     }},
    {"shuffle",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.shuffle = parseShuffle(v, line);
     }},
    {"notify_dedup_max",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.notifyDedupMax = parseUInt<std::uint32_t>(v, line);
     }},
    {"history",
     [](Scenario& s, const std::string& v, std::size_t line) {
       if (v.empty()) fail(line, "empty history name");
       s.history = v;
     }},
    {"history_param",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.historyParam = parseDouble(v, line);
     }},
    {"transport",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.transport = parseTransport(v, line);
     }},
    {"udp.port_base",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.udp.portBase = parseUInt<std::uint16_t>(v, line);
     }},
    {"udp.retry_max",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.udp.retryMax = parseUInt<std::uint32_t>(v, line);
     }},
    {"udp.backoff_ms",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.udp.backoffMs = parseUInt<std::uint32_t>(v, line);
     }},
    {"udp.backoff_cap_ms",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.udp.backoffCapMs = parseUInt<std::uint32_t>(v, line);
     }},
    {"udp.time_scale",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.udp.timeScale = parseDouble(v, line);
     }},
    {"metrics.window",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.metrics.window = parseSeconds(v, line);
     }},
    {"metrics.reducers",
     [](Scenario& s, const std::string& v, std::size_t line) {
       for (const std::string& name : splitList(v)) {
         if (name.empty()) fail(line, "empty reducer name");
         s.metrics.reducers.push_back(name);
       }
     },
     true},
    {"metrics.quantiles",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.metrics.quantiles.clear();
       for (const std::string& phi : splitList(v)) {
         s.metrics.quantiles.push_back(parseDouble(phi, line));
       }
     },
     true},
    {"faults.partition",
     [](Scenario& s, const std::string& v, std::size_t line) {
       for (const std::string& entry : splitEntries(v, ';')) {
         const auto f = splitFields(entry, 3, line, "t0:t1:groups");
         sim::PartitionWindow w;
         w.start = parseSeconds(f[0], line);
         w.end = parseSeconds(f[1], line);
         w.groups = parseUInt<std::uint32_t>(f[2], line);
         s.faults.partitions.push_back(w);
       }
     }},
    {"faults.burst",
     [](Scenario& s, const std::string& v, std::size_t line) {
       for (const std::string& entry : splitEntries(v, ';')) {
         const auto f = splitFields(entry, 3, line, "t:duration:fraction");
         sim::BurstSpec b;
         b.at = parseSeconds(f[0], line);
         b.duration = parseSeconds(f[1], line);
         b.fraction = parseDouble(f[2], line);
         s.faults.bursts.push_back(b);
       }
     }},
    {"faults.latency",
     [](Scenario& s, const std::string& v, std::size_t line) {
       for (const std::string& entry : splitEntries(v, ';')) {
         const auto f = splitFields(entry, 4, line, "t0:t1:min_ms:max_ms");
         sim::LatencyWindow w;
         w.start = parseSeconds(f[0], line);
         w.end = parseSeconds(f[1], line);
         w.minLatency = parseUInt<SimDuration>(f[2], line);
         w.maxLatency = parseUInt<SimDuration>(f[3], line);
         s.faults.latencyWindows.push_back(w);
       }
     }},
    {"faults.geo",
     [](Scenario& s, const std::string& v, std::size_t line) {
       const auto f = splitFields(
           v, 5, line,
           "regions:intra_min_ms:intra_max_ms:inter_min_ms:inter_max_ms");
       s.faults.geo.regions = parseUInt<std::uint32_t>(f[0], line);
       s.faults.geo.intraMin = parseUInt<SimDuration>(f[1], line);
       s.faults.geo.intraMax = parseUInt<SimDuration>(f[2], line);
       s.faults.geo.interMin = parseUInt<SimDuration>(f[3], line);
       s.faults.geo.interMax = parseUInt<SimDuration>(f[4], line);
     }},
    {"attack.collusion",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.attack.collusion = parseUInt<std::uint32_t>(v, line);
     }},
    {"attack.victims",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.attack.victims = parseUInt<std::uint32_t>(v, line);
     }},
    {"attack.forgetful",
     [](Scenario& s, const std::string& v, std::size_t line) {
       s.attack.forgetfulFraction = parseDouble(v, line);
     }},
};

constexpr std::size_t kKeyCount = sizeof(kKeys) / sizeof(kKeys[0]);

std::size_t ruleOf(const std::string& key, std::size_t line) {
  for (std::size_t i = 0; i < kKeyCount; ++i) {
    if (key == kKeys[i].name) return i;
  }
  fail(line, "unknown key '" + key + "'");
}

// ---- expect.<metric>.<stat> <op> <bound> ----

struct ExpectMetric {
  const char* name;
  const streaming::StreamedMetric streaming::StreamedSummary::*metric;
};

// discovered_fraction (no sketch) is the entry with a null metric.
constexpr ExpectMetric kExpectMetrics[] = {
    {"discovery_s", &streaming::StreamedSummary::discoverySeconds},
    {"discovery2_s", &streaming::StreamedSummary::discovery2Seconds},
    {"discovery3_s", &streaming::StreamedSummary::discovery3Seconds},
    {"memory_entries", &streaming::StreamedSummary::memoryEntries},
    {"outgoing_bps", &streaming::StreamedSummary::outgoingBytesPerSecond},
    {"useless_pings_per_min",
     &streaming::StreamedSummary::uselessPingsPerMinute},
    {"computations_per_s", &streaming::StreamedSummary::computationsPerSecond},
    {"accuracy_abs_error", &streaming::StreamedSummary::accuracyAbsError},
    {"discovered_fraction", nullptr},
};

constexpr char kExpectPrefix[] = "expect.";
constexpr std::size_t kExpectPrefixLength = sizeof(kExpectPrefix) - 1;
constexpr char kPlusMinus[] = "\xC2\xB1";  // UTF-8 "±"

Expectation parseExpectation(const std::string& text, std::size_t line) {
  Expectation e;
  e.text = text;
  e.line = line;

  // expect.<metric>.<stat>: the metric holds no dot, the stat may (p99.85).
  const std::size_t lhsEnd = text.find_first_of(" \t<>=~!");
  const std::string lhs = text.substr(0, lhsEnd);
  const std::string target = lhs.substr(kExpectPrefixLength);
  const std::size_t dot = target.find('.');
  if (dot == std::string::npos) {
    fail(line, "expected 'expect.<metric>.<stat> <op> <bound>', got '" +
                   text + "'");
  }
  const std::string metricName = target.substr(0, dot);
  const std::string statName = target.substr(dot + 1);
  const ExpectMetric* metric = nullptr;
  std::string known;
  for (const ExpectMetric& m : kExpectMetrics) {
    if (metricName == m.name) metric = &m;
    known += (known.empty() ? "" : ", ") + std::string(m.name);
  }
  if (metric == nullptr) {
    fail(line, "unknown metric '" + metricName + "' (known: " + known + ")");
  }
  e.metric = metric->metric;

  if (statName == "mean") e.stat = Expectation::Stat::kMean;
  else if (statName == "stddev") e.stat = Expectation::Stat::kStddev;
  else if (statName == "min") e.stat = Expectation::Stat::kMin;
  else if (statName == "max") e.stat = Expectation::Stat::kMax;
  else if (statName == "count") e.stat = Expectation::Stat::kCount;
  else {
    const char* digits = statName.c_str() + 1;
    char* end = nullptr;
    const double percent =
        statName.size() > 1 && statName[0] == 'p' &&
                std::isdigit(static_cast<unsigned char>(*digits))
            ? std::strtod(digits, &end)
            : -1.0;
    if (end != statName.c_str() + statName.size() ||
        !(percent > 0.0 && percent < 100.0)) {
      fail(line, "unknown statistic '" + statName +
                     "' (expected mean, stddev, min, max, count or "
                     "p<percent> in (0, 100))");
    }
    e.stat = Expectation::Stat::kQuantile;
    e.phi = percent / 100.0;
  }
  if (e.metric == nullptr && e.stat != Expectation::Stat::kMean &&
      e.stat != Expectation::Stat::kCount) {
    fail(line, "discovered_fraction has only the statistics mean and count");
  }

  // <op>: the run of operator characters after the target.
  std::size_t p = lhsEnd == std::string::npos ? text.size() : lhsEnd;
  while (p < text.size() && (text[p] == ' ' || text[p] == '\t')) ++p;
  std::size_t q = p;
  while (q < text.size() && std::string("<>=~!").find(text[q]) !=
                                std::string::npos) {
    ++q;
  }
  const std::string op = text.substr(p, q - p);
  if (op == "<") e.op = Expectation::Op::kLess;
  else if (op == "<=") e.op = Expectation::Op::kLessEqual;
  else if (op == ">") e.op = Expectation::Op::kGreater;
  else if (op == ">=") e.op = Expectation::Op::kGreaterEqual;
  else if (op == "~") e.op = Expectation::Op::kNear;
  else {
    fail(line, "unknown operator '" + op +
                   "' (expected <, <=, >, >= or ~ with a ± tolerance)");
  }

  // <bound> [± <tolerance>[%]]
  std::string bound = trim(text.substr(q));
  const std::size_t pm = bound.find(kPlusMinus);
  if (e.op == Expectation::Op::kNear) {
    if (pm == std::string::npos) {
      fail(line, "'~' needs a tolerance: '~ <bound> ± x' or '± x%'");
    }
    std::string tolerance = trim(bound.substr(pm + sizeof(kPlusMinus) - 1));
    if (!tolerance.empty() && tolerance.back() == '%') {
      e.relativeTolerance = true;
      tolerance.pop_back();
    }
    e.tolerance = parseDouble(trim(tolerance), line);
    if (e.tolerance < 0) fail(line, "the tolerance must be >= 0");
    bound = trim(bound.substr(0, pm));
  } else if (pm != std::string::npos) {
    fail(line, "a ± tolerance belongs to '~' only");
  }
  const std::string closedPrefix = "closed:";
  if (bound.compare(0, closedPrefix.size(), closedPrefix) == 0) {
    const std::string name = bound.substr(closedPrefix.size());
    e.closed = analysis::findClosedForm(name);
    if (e.closed == nullptr) {
      fail(line, "unknown closed form '" + name +
                     "' (known: " + analysis::closedFormNames() + ")");
    }
  } else {
    e.bound = parseDouble(bound, line);
  }
  return e;
}

}  // namespace

std::optional<double> Expectation::measuredOn(
    const streaming::StreamedSummary& summary) const {
  if (metric == nullptr) {  // discovered_fraction
    if (stat == Stat::kCount) return static_cast<double>(summary.joined);
    if (summary.joined == 0) return std::nullopt;
    return summary.discoveredFraction();
  }
  const streaming::StreamedMetric& m = summary.*metric;
  if (stat == Stat::kCount) return static_cast<double>(m.stats.count());
  if (m.stats.count() == 0) return std::nullopt;
  switch (stat) {
    case Stat::kMean: return m.stats.mean();
    case Stat::kStddev: return m.stats.stddev();
    case Stat::kMin: return m.stats.min();
    case Stat::kMax: return m.stats.max();
    case Stat::kQuantile: return m.sketch.quantile(phi);
    case Stat::kCount: break;
  }
  return std::nullopt;
}

double Expectation::boundAt(const analysis::ClosedFormPoint& point) const {
  return closed != nullptr ? closed->eval(point) : bound;
}

bool Expectation::holds(double measured, double boundValue) const {
  switch (op) {
    case Op::kLess: return measured < boundValue;
    case Op::kLessEqual: return measured <= boundValue;
    case Op::kGreater: return measured > boundValue;
    case Op::kGreaterEqual: return measured >= boundValue;
    case Op::kNear: {
      const double slack = relativeTolerance
                               ? tolerance / 100.0 * std::fabs(boundValue)
                               : tolerance;
      return std::fabs(measured - boundValue) <= slack;
    }
  }
  return false;
}

std::optional<AvmonConfig> cvsKOverride(churn::Model model, std::size_t n,
                                        std::size_t cvs, unsigned k) {
  if (cvs == 0 && k == 0) return std::nullopt;
  churn::WorkloadParams wp;
  wp.stableSize = n;
  AvmonConfig cfg =
      AvmonConfig::paperDefaults(churn::effectiveStableSize(model, wp));
  if (cvs != 0) cfg.cvs = cvs;
  if (k != 0) cfg.k = k;
  return cfg;
}

SweepSpec SweepSpec::parse(const std::string& text) {
  SweepSpec spec;
  bool warmupSet = false, shortHorizon = false;
  std::istringstream in(text);
  std::string rawLine;
  std::size_t lineNo = 0;
  while (std::getline(in, rawLine)) {
    ++lineNo;
    const std::size_t comment = rawLine.find('#');
    if (comment != std::string::npos) rawLine.resize(comment);
    const std::string line = trim(rawLine);
    if (line.empty()) continue;
    if (line.compare(0, kExpectPrefixLength, kExpectPrefix) == 0) {
      spec.expectations.push_back(parseExpectation(line, lineNo));
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      fail(lineNo, "expected 'key = value', got '" + line + "'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) fail(lineNo, "empty key");
    const std::size_t rule = ruleOf(key, lineNo);
    for (const Axis& prior : spec.axes) {
      if (prior.rule == rule) fail(lineNo, "duplicate key '" + key + "'");
    }
    Axis axis;
    axis.rule = rule;
    axis.line = lineNo;
    axis.values = kKeys[rule].wholeList ? std::vector<std::string>{value}
                                        : splitList(value);
    // Apply every value once now, so a malformed one fails with its line
    // number before any point is expanded.
    for (const std::string& v : axis.values) {
      Scenario probe;
      kKeys[rule].apply(probe, v, lineNo);
      shortHorizon |= probe.warmup >= probe.horizon;
    }
    warmupSet |= key == "warmup_min" || key == "warmup_ms";
    spec.axes.push_back(std::move(axis));
  }

  // A spec that shortens the horizon below the default warm-up almost
  // certainly forgot warmup_min; say so instead of failing validation with
  // the defaults' numbers.
  if (shortHorizon && !warmupSet) {
    throw std::invalid_argument(
        "spec: horizon is shorter than the default 60 min warm-up — set "
        "warmup_min (or warmup_ms) too");
  }

  // Nesting order is key-table order, whatever order the lines came in.
  std::sort(spec.axes.begin(), spec.axes.end(),
            [](const Axis& a, const Axis& b) { return a.rule < b.rule; });
  return spec;
}

SweepSpec SweepSpec::parseFile(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read spec file: " + path);
  std::ostringstream buffer;
  buffer << f.rdbuf();
  return parse(buffer.str());
}

std::size_t SweepSpec::pointCount() const {
  std::size_t count = 1;
  for (const Axis& axis : axes) count *= axis.values.size();
  return count;
}

std::vector<Scenario> SweepSpec::expand() const {
  const std::size_t count = pointCount();
  std::vector<Scenario> out;
  out.reserve(count);
  std::vector<std::size_t> digit(axes.size(), 0);
  for (std::size_t point = 0; point < count; ++point) {
    Scenario s;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      kKeys[axes[a].rule].apply(s, axes[a].values[digit[a]], axes[a].line);
    }
    if (s.configOverride) {
      // Each point gets its own paper baseline for its model and n, with
      // the spec's nonzero cvs/k pinned.
      s.configOverride = cvsKOverride(s.model, s.stableSize,
                                      s.configOverride->cvs,
                                      s.configOverride->k);
    }
    out.push_back(std::move(s));
    // Odometer: the innermost axis turns fastest.
    for (std::size_t a = axes.size(); a-- > 0;) {
      if (++digit[a] < axes[a].values.size()) break;
      digit[a] = 0;
    }
  }
  return out;
}

Scenario Scenario::fromSpec(const std::string& text) {
  const SweepSpec spec = SweepSpec::parse(text);
  if (!spec.expectations.empty()) {
    const Expectation& first = spec.expectations.front();
    fail(first.line, "Scenario::fromSpec runs one scenario and checks no "
                     "expectations — '" + first.text +
                     "' needs avmon_sim (SweepSpec::parse)");
  }
  if (spec.pointCount() != 1) {
    throw std::invalid_argument(
        "Scenario::fromSpec: spec expands to " +
        std::to_string(spec.pointCount()) +
        " scenarios (list-valued keys) — use SweepSpec::parse for sweeps");
  }
  return spec.expand().front();
}

std::string Scenario::toSpec() const {
  std::ostringstream out;
  out << "protocol = " << protocol << "\n";
  out << "model = " << churn::modelName(model) << "\n";
  out << "n = " << stableSize << "\n";
  if (horizon % kMinute == 0) {
    out << "horizon_min = " << horizon / kMinute << "\n";
  } else {
    out << "horizon_ms = " << horizon << "\n";
  }
  if (warmup % kMinute == 0) {
    out << "warmup_min = " << warmup / kMinute << "\n";
  } else {
    out << "warmup_ms = " << warmup << "\n";
  }
  out << "control_fraction = " << formatDouble(controlFraction) << "\n";
  out << "seed = " << seed << "\n";
  out << "hash = " << hashName << "\n";
  // The spec grammar represents the cvs/k overrides (the avmon_sim knobs);
  // 0 = paper default. Other AvmonConfig fields are not spec-addressable.
  out << "cvs = " << (configOverride ? configOverride->cvs : 0) << "\n";
  out << "k = " << (configOverride ? configOverride->k : 0) << "\n";
  out << "pr2 = " << (pr2 ? "true" : "false") << "\n";
  out << "forgetful = " << (forgetful ? "true" : "false") << "\n";
  out << "forgetful_ewma = " << (forgetfulEwma ? "true" : "false") << "\n";
  out << "overreport = " << formatDouble(overreportFraction) << "\n";
  out << "drop = " << formatDouble(messageDropProbability) << "\n";
  out << "rpc_fail = " << formatDouble(rpcFailProbability) << "\n";
  out << "measured = " << measuredName(measured) << "\n";
  out << "shards = " << shards << "\n";
  // The transport/udp.* keys are emitted only when they differ from the
  // sim-lane defaults, so every pre-live spec's canonical form is
  // byte-unchanged.
  if (transport != TransportKind::kSim) {
    out << "transport = " << transportName(transport) << "\n";
  }
  if (udp.portBase != UdpSpec{}.portBase) {
    out << "udp.port_base = " << udp.portBase << "\n";
  }
  if (udp.retryMax != UdpSpec{}.retryMax) {
    out << "udp.retry_max = " << udp.retryMax << "\n";
  }
  if (udp.backoffMs != UdpSpec{}.backoffMs) {
    out << "udp.backoff_ms = " << udp.backoffMs << "\n";
  }
  if (udp.backoffCapMs != UdpSpec{}.backoffCapMs) {
    out << "udp.backoff_cap_ms = " << udp.backoffCapMs << "\n";
  }
  if (udp.timeScale != UdpSpec{}.timeScale) {
    out << "udp.time_scale = " << formatDouble(udp.timeScale) << "\n";
  }
  // Metrics keys are emitted only when they differ from the defaults, so a
  // spec that sets none serializes without them.
  if (metrics.window > 0) {
    out << "metrics.window = " << formatDouble(toSeconds(metrics.window))
        << "\n";
  }
  if (!metrics.reducers.empty()) {
    out << "metrics.reducers = ";
    for (std::size_t i = 0; i < metrics.reducers.size(); ++i) {
      out << (i == 0 ? "" : ", ") << metrics.reducers[i];
    }
    out << "\n";
  }
  if (metrics.quantiles != StreamingMetricsSpec{}.quantiles) {
    out << "metrics.quantiles = ";
    for (std::size_t i = 0; i < metrics.quantiles.size(); ++i) {
      out << (i == 0 ? "" : ", ") << formatDouble(metrics.quantiles[i]);
    }
    out << "\n";
  }
  // Fault/attack/deep-knob keys are likewise emitted only when armed, so
  // every pre-existing spec's canonical form is byte-unchanged.
  if (shuffle.has_value()) {
    out << "shuffle = " << avmon::shufflePolicyName(*shuffle) << "\n";
  }
  if (notifyDedupMax.has_value()) {
    out << "notify_dedup_max = " << *notifyDedupMax << "\n";
  }
  if (history.has_value()) {
    out << "history = " << *history << "\n";
  }
  if (historyParam.has_value()) {
    out << "history_param = " << formatDouble(*historyParam) << "\n";
  }
  if (!faults.partitions.empty()) {
    out << "faults.partition = ";
    for (std::size_t i = 0; i < faults.partitions.size(); ++i) {
      const sim::PartitionWindow& w = faults.partitions[i];
      out << (i == 0 ? "" : "; ") << formatDouble(toSeconds(w.start)) << ":"
          << formatDouble(toSeconds(w.end)) << ":" << w.groups;
    }
    out << "\n";
  }
  if (!faults.bursts.empty()) {
    out << "faults.burst = ";
    for (std::size_t i = 0; i < faults.bursts.size(); ++i) {
      const sim::BurstSpec& b = faults.bursts[i];
      out << (i == 0 ? "" : "; ") << formatDouble(toSeconds(b.at)) << ":"
          << formatDouble(toSeconds(b.duration)) << ":"
          << formatDouble(b.fraction);
    }
    out << "\n";
  }
  if (!faults.latencyWindows.empty()) {
    out << "faults.latency = ";
    for (std::size_t i = 0; i < faults.latencyWindows.size(); ++i) {
      const sim::LatencyWindow& w = faults.latencyWindows[i];
      out << (i == 0 ? "" : "; ") << formatDouble(toSeconds(w.start)) << ":"
          << formatDouble(toSeconds(w.end)) << ":" << w.minLatency << ":"
          << w.maxLatency;
    }
    out << "\n";
  }
  if (faults.geo.regions != 0) {
    out << "faults.geo = " << faults.geo.regions << ":" << faults.geo.intraMin
        << ":" << faults.geo.intraMax << ":" << faults.geo.interMin << ":"
        << faults.geo.interMax << "\n";
  }
  if (attack.collusion != 0) {
    out << "attack.collusion = " << attack.collusion << "\n";
  }
  if (attack.victims != 0) {
    out << "attack.victims = " << attack.victims << "\n";
  }
  if (attack.forgetfulFraction != 0.0) {
    out << "attack.forgetful = " << formatDouble(attack.forgetfulFraction)
        << "\n";
  }
  return out.str();
}

// ---- ArgParser ----

bool ArgParser::next() {
  if (next_ >= argc_) return false;
  flag_ = argv_[next_++];
  return true;
}

std::string ArgParser::value() {
  if (next_ >= argc_) {
    throw UsageError("missing value for " + flag_);
  }
  return argv_[next_++];
}

std::uint64_t ArgParser::valueU64(std::uint64_t max) {
  const std::string v = value();
  std::uint64_t x = 0;
  const std::string error = readUInt(v, max, x);
  if (!error.empty()) throw UsageError("bad value for " + flag_ + ": " + error);
  return x;
}

std::size_t ArgParser::valueSize() {
  return static_cast<std::size_t>(
      valueU64(std::numeric_limits<std::size_t>::max()));
}

unsigned ArgParser::valueUnsigned() {
  return static_cast<unsigned>(valueU64(std::numeric_limits<unsigned>::max()));
}

long ArgParser::valueLong() {
  const std::string v = value();
  std::int64_t x = 0;
  const std::string error = readInt(v, x);
  if (!error.empty()) throw UsageError("bad value for " + flag_ + ": " + error);
  return x;
}

double ArgParser::valueDouble() {
  const std::string v = value();
  double x = 0;
  if (!readFiniteDouble(v, x)) {
    throw UsageError("bad value for " + flag_ +
                     ": expected a finite number, got '" + v + "'");
  }
  return x;
}

void ArgParser::failUnknown() const {
  throw UsageError("unknown option: " + flag_);
}

}  // namespace avmon::experiments
