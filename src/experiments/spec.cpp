#include "experiments/spec.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

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

std::uint64_t parseU64(const std::string& v, std::size_t line) {
  try {
    std::size_t used = 0;
    const unsigned long long x = std::stoull(v, &used);
    if (used != v.size()) throw std::invalid_argument(v);
    return x;
  } catch (const std::exception&) {
    fail(line, "expected an unsigned integer, got '" + v + "'");
  }
}

double parseDouble(const std::string& v, std::size_t line) {
  try {
    std::size_t used = 0;
    const double x = std::stod(v, &used);
    if (used != v.size()) throw std::invalid_argument(v);
    return x;
  } catch (const std::exception&) {
    fail(line, "expected a number, got '" + v + "'");
  }
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

}  // namespace

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
  Scenario& base = spec.base;
  std::vector<std::string> seen;

  std::size_t cvs = 0;
  unsigned k = 0;
  bool horizonSet = false, warmupSet = false;

  std::istringstream in(text);
  std::string rawLine;
  std::size_t lineNo = 0;
  while (std::getline(in, rawLine)) {
    ++lineNo;
    const std::size_t comment = rawLine.find('#');
    if (comment != std::string::npos) rawLine.resize(comment);
    const std::string line = trim(rawLine);
    if (line.empty()) continue;

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      fail(lineNo, "expected 'key = value', got '" + line + "'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) fail(lineNo, "empty key");
    for (const std::string& prior : seen) {
      if (prior == key) fail(lineNo, "duplicate key '" + key + "'");
    }
    seen.push_back(key);

    if (key == "protocol") {
      for (const std::string& v : splitList(value)) {
        if (v.empty()) fail(lineNo, "empty protocol name");
        spec.protocols.push_back(v);
      }
    } else if (key == "model") {
      for (const std::string& v : splitList(value)) {
        try {
          spec.models.push_back(churn::modelFromName(v));
        } catch (const std::invalid_argument& e) {
          fail(lineNo, e.what());
        }
      }
    } else if (key == "n") {
      for (const std::string& v : splitList(value)) {
        spec.sizes.push_back(
            static_cast<std::size_t>(parseU64(v, lineNo)));
      }
    } else if (key == "seed") {
      for (const std::string& v : splitList(value)) {
        spec.seeds.push_back(parseU64(v, lineNo));
      }
    } else if (key == "drop") {
      for (const std::string& v : splitList(value)) {
        spec.drops.push_back(parseDouble(v, lineNo));
      }
    } else if (key == "horizon_min") {
      base.horizon = static_cast<SimDuration>(parseU64(value, lineNo)) *
                     kMinute;
      horizonSet = true;
    } else if (key == "horizon_ms") {
      base.horizon = static_cast<SimDuration>(parseU64(value, lineNo));
      horizonSet = true;
    } else if (key == "warmup_min") {
      base.warmup = static_cast<SimTime>(parseU64(value, lineNo)) * kMinute;
      warmupSet = true;
    } else if (key == "warmup_ms") {
      base.warmup = static_cast<SimTime>(parseU64(value, lineNo));
      warmupSet = true;
    } else if (key == "control_fraction") {
      base.controlFraction = parseDouble(value, lineNo);
    } else if (key == "hash") {
      base.hashName = value;
    } else if (key == "cvs") {
      cvs = static_cast<std::size_t>(parseU64(value, lineNo));
    } else if (key == "k") {
      k = static_cast<unsigned>(parseU64(value, lineNo));
    } else if (key == "pr2") {
      base.pr2 = parseBool(value, lineNo);
    } else if (key == "forgetful") {
      base.forgetful = parseBool(value, lineNo);
    } else if (key == "forgetful_ewma") {
      base.forgetfulEwma = parseBool(value, lineNo);
    } else if (key == "overreport") {
      base.overreportFraction = parseDouble(value, lineNo);
    } else if (key == "rpc_fail") {
      base.rpcFailProbability = parseDouble(value, lineNo);
    } else if (key == "measured") {
      base.measured = parseMeasured(value, lineNo);
    } else if (key == "shards") {
      base.shards = static_cast<unsigned>(parseU64(value, lineNo));
    } else if (key == "shuffle") {
      base.shuffle = parseShuffle(value, lineNo);
    } else if (key == "notify_dedup_max") {
      base.notifyDedupMax = static_cast<std::uint32_t>(parseU64(value, lineNo));
    } else if (key == "history") {
      if (value.empty()) fail(lineNo, "empty history name");
      base.history = value;
    } else if (key == "history_param") {
      base.historyParam = parseDouble(value, lineNo);
    } else if (key == "faults.partition") {
      for (const std::string& entry : splitEntries(value, ';')) {
        const auto f = splitFields(entry, 3, lineNo, "t0:t1:groups");
        sim::PartitionWindow w;
        w.start = parseSeconds(f[0], lineNo);
        w.end = parseSeconds(f[1], lineNo);
        w.groups = static_cast<std::uint32_t>(parseU64(f[2], lineNo));
        base.faults.partitions.push_back(w);
      }
    } else if (key == "faults.burst") {
      for (const std::string& entry : splitEntries(value, ';')) {
        const auto f = splitFields(entry, 3, lineNo, "t:duration:fraction");
        sim::BurstSpec b;
        b.at = parseSeconds(f[0], lineNo);
        b.duration = parseSeconds(f[1], lineNo);
        b.fraction = parseDouble(f[2], lineNo);
        base.faults.bursts.push_back(b);
      }
    } else if (key == "faults.latency") {
      for (const std::string& entry : splitEntries(value, ';')) {
        const auto f = splitFields(entry, 4, lineNo, "t0:t1:min_ms:max_ms");
        sim::LatencyWindow w;
        w.start = parseSeconds(f[0], lineNo);
        w.end = parseSeconds(f[1], lineNo);
        w.minLatency = static_cast<SimDuration>(parseU64(f[2], lineNo));
        w.maxLatency = static_cast<SimDuration>(parseU64(f[3], lineNo));
        base.faults.latencyWindows.push_back(w);
      }
    } else if (key == "faults.geo") {
      const auto f = splitFields(
          value, 5, lineNo, "regions:intra_min_ms:intra_max_ms:inter_min_ms:inter_max_ms");
      base.faults.geo.regions = static_cast<std::uint32_t>(parseU64(f[0], lineNo));
      base.faults.geo.intraMin = static_cast<SimDuration>(parseU64(f[1], lineNo));
      base.faults.geo.intraMax = static_cast<SimDuration>(parseU64(f[2], lineNo));
      base.faults.geo.interMin = static_cast<SimDuration>(parseU64(f[3], lineNo));
      base.faults.geo.interMax = static_cast<SimDuration>(parseU64(f[4], lineNo));
    } else if (key == "attack.collusion") {
      base.attack.collusion = static_cast<std::uint32_t>(parseU64(value, lineNo));
    } else if (key == "attack.victims") {
      base.attack.victims = static_cast<std::uint32_t>(parseU64(value, lineNo));
    } else if (key == "attack.forgetful") {
      base.attack.forgetfulFraction = parseDouble(value, lineNo);
    } else if (key == "attack.overreport") {
      for (const std::string& v : splitList(value)) {
        spec.overreports.push_back(parseDouble(v, lineNo));
      }
    } else if (key == "transport") {
      base.transport = parseTransport(value, lineNo);
    } else if (key == "udp.port_base") {
      const std::uint64_t port = parseU64(value, lineNo);
      if (port > 0xFFFF) fail(lineNo, "udp.port_base must fit a UDP port");
      base.udp.portBase = static_cast<std::uint16_t>(port);
    } else if (key == "udp.retry_max") {
      base.udp.retryMax = static_cast<std::uint32_t>(parseU64(value, lineNo));
    } else if (key == "udp.backoff_ms") {
      base.udp.backoffMs = static_cast<std::uint32_t>(parseU64(value, lineNo));
    } else if (key == "udp.backoff_cap_ms") {
      base.udp.backoffCapMs =
          static_cast<std::uint32_t>(parseU64(value, lineNo));
    } else if (key == "udp.time_scale") {
      base.udp.timeScale = parseDouble(value, lineNo);
    } else if (key == "metrics.window") {
      const double seconds = parseDouble(value, lineNo);
      if (seconds < 0) fail(lineNo, "metrics.window must be >= 0 seconds");
      base.metrics.window =
          static_cast<SimDuration>(std::llround(seconds * kSecond));
    } else if (key == "metrics.reducers") {
      for (const std::string& v : splitList(value)) {
        if (v.empty()) fail(lineNo, "empty reducer name");
        base.metrics.reducers.push_back(v);
      }
    } else if (key == "metrics.quantiles") {
      base.metrics.quantiles.clear();
      for (const std::string& v : splitList(value)) {
        base.metrics.quantiles.push_back(parseDouble(v, lineNo));
      }
    } else {
      fail(lineNo, "unknown key '" + key + "'");
    }
  }

  if (horizonSet && !warmupSet && base.warmup >= base.horizon) {
    // A spec that shortens the horizon below the default warm-up almost
    // certainly forgot warmup_min; say so instead of failing validation
    // with the defaults' numbers.
    throw std::invalid_argument(
        "spec: horizon is shorter than the default 60 min warm-up — set "
        "warmup_min (or warmup_ms) too");
  }

  // The scalar `overreport` and the sweep axis `attack.overreport` both
  // set overreportFraction — a spec naming both is ambiguous.
  if (!spec.overreports.empty()) {
    for (const std::string& prior : seen) {
      if (prior == "overreport") {
        throw std::invalid_argument(
            "spec: 'overreport' (scalar) and 'attack.overreport' (sweep "
            "axis) both set the over-reporting fraction — use one");
      }
    }
  }

  // Absent axes are singletons of the base's value: expand() is always the
  // full six-way cross product.
  if (spec.protocols.empty()) spec.protocols.push_back(base.protocol);
  if (spec.models.empty()) spec.models.push_back(base.model);
  if (spec.sizes.empty()) spec.sizes.push_back(base.stableSize);
  if (spec.seeds.empty()) spec.seeds.push_back(base.seed);
  if (spec.drops.empty()) spec.drops.push_back(base.messageDropProbability);
  if (spec.overreports.empty())
    spec.overreports.push_back(base.overreportFraction);

  // The cvs/k keys: nonzero pins the value, everything else keeps paper
  // defaults. The override is resolved per expanded scenario in expand()
  // so each size gets its own paper baseline.
  spec.base.configOverride.reset();
  if (cvs != 0 || k != 0) {
    // Stash the raw overrides in a config built later; encode via the
    // first size now and fix up per point in expand().
    AvmonConfig cfg;  // placeholder; expand() rebuilds per size
    cfg.cvs = cvs;
    cfg.k = k;
    spec.base.configOverride = cfg;
  }

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
  return protocols.size() * models.size() * sizes.size() * seeds.size() *
         drops.size() * overreports.size();
}

std::vector<Scenario> SweepSpec::expand() const {
  std::vector<Scenario> out;
  out.reserve(pointCount());
  for (const std::string& protocol : protocols) {
    for (const churn::Model model : models) {
      for (const std::size_t n : sizes) {
        for (const std::uint64_t seed : seeds) {
          for (const double drop : drops) {
            for (const double overreport : overreports) {
              Scenario s = base;
              s.protocol = protocol;
              s.model = model;
              s.stableSize = n;
              s.seed = seed;
              s.messageDropProbability = drop;
              s.overreportFraction = overreport;
              if (base.configOverride) {
                // Re-derive per point: each swept size gets its own paper
                // baseline with the spec's nonzero knobs pinned.
                s.configOverride = cvsKOverride(model, n,
                                                base.configOverride->cvs,
                                                base.configOverride->k);
              }
              out.push_back(std::move(s));
            }
          }
        }
      }
    }
  }
  return out;
}

Scenario Scenario::fromSpec(const std::string& text) {
  const SweepSpec spec = SweepSpec::parse(text);
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

std::uint64_t ArgParser::valueU64() {
  const std::string v = value();
  try {
    return std::stoull(v);
  } catch (const std::exception&) {
    throw UsageError("bad value for " + flag_ + ": " + v);
  }
}

std::size_t ArgParser::valueSize() {
  return static_cast<std::size_t>(valueU64());
}

unsigned ArgParser::valueUnsigned() {
  return static_cast<unsigned>(valueU64());
}

long ArgParser::valueLong() {
  const std::string v = value();
  try {
    return std::stol(v);
  } catch (const std::exception&) {
    throw UsageError("bad value for " + flag_ + ": " + v);
  }
}

double ArgParser::valueDouble() {
  const std::string v = value();
  try {
    return std::stod(v);
  } catch (const std::exception&) {
    throw UsageError("bad value for " + flag_ + ": " + v);
  }
}

void ArgParser::failUnknown() const {
  throw UsageError("unknown option: " + flag_);
}

}  // namespace avmon::experiments
