#include "workload.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace avmon::bench {

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

/// The key of a `key = value` spec line, or "" for comments/blank lines.
std::string keyOf(const std::string& line) {
  const std::string code = trim(line.substr(0, line.find('#')));
  const auto eq = code.find('=');
  return eq == std::string::npos ? "" : trim(code.substr(0, eq));
}

std::string valueOf(const std::string& line) {
  const std::string code = line.substr(0, line.find('#'));
  return trim(code.substr(code.find('=') + 1));
}

/// Comma-separated seed list of the spec file's `seed` line.
std::vector<std::uint64_t> fileSeeds(const std::string& specFile) {
  std::istringstream in(readFile(specFile));
  std::string line;
  while (std::getline(in, line)) {
    if (keyOf(line) != "seed") continue;
    std::vector<std::uint64_t> seeds;
    std::istringstream values(valueOf(line));
    std::string item;
    while (std::getline(values, item, ',')) {
      seeds.push_back(std::stoull(trim(item)));
    }
    return seeds;
  }
  throw std::runtime_error(specFile + " has no seed key");
}

MetricDecl metricFrom(const Json& entry, bool withBound) {
  MetricDecl m;
  m.name = entry.at("name").asString();
  m.unit = entry.at("unit").asString();
  m.lowerIsBetter = entry.at("better").asString() == "lower";
  if (withBound) m.bound = entry.at("bound").asNumber();
  return m;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"stat_dense", {{"n", "300"}, {"horizon_min", "5"}, {"warmup_min", "2"}}},
      {"churn_md5", {{"n", "200"}, {"horizon_min", "20"}, {"warmup_min", "8"}}},
      {"sharded_faults",
       {{"n", "150"}, {"horizon_min", "20"}, {"warmup_min", "5"},
        {"faults.latency", "600:780:30:300"},
        {"faults.partition", "900:1080:2"}}},
      {"wide_sparse",
       {{"n", "20000"}, {"horizon_min", "3"}, {"warmup_min", "1"}}},
      {"baseline_sweep",
       {{"n", "100"}, {"horizon_min", "20"}, {"warmup_min", "8"}}},
  };
  return all;
}

const Workload& workloadNamed(const std::string& name) {
  std::string known;
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
    known += (known.empty() ? "" : ", ") + w.name;
  }
  throw std::invalid_argument("unknown workload '" + name + "' (known: " +
                              known + ")");
}

std::string specFileOf(const Workload& workload) {
  return std::string(AVMON_BENCH_DIR) + "/workloads/" + workload.name +
         ".spec";
}

std::uint64_t defaultSeed(const std::string& specFile) {
  return fileSeeds(specFile).front();
}

std::string specText(const Workload& workload, const std::string& specFile,
                     std::uint64_t seed, Preset preset) {
  const std::size_t seedCount = fileSeeds(specFile).size();
  std::istringstream in(readFile(specFile));
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    const std::string key = keyOf(line);
    if (key == "seed") {
      out << "seed = ";
      for (std::size_t i = 0; i < seedCount; ++i) {
        out << (i > 0 ? ", " : "") << seed + i;
      }
      out << '\n';
      continue;
    }
    if (preset == Preset::kSmoke) {
      bool replaced = false;
      for (const auto& [k, v] : workload.smoke) {
        if (k == key) {
          out << k << " = " << v << '\n';
          replaced = true;
        }
      }
      if (replaced) continue;
    }
    out << line << '\n';
  }
  return out.str();
}

std::optional<std::string> pinnedFingerprint(const std::string& workload,
                                             std::uint64_t seed) {
  std::istringstream in(
      readFile(std::string(AVMON_BENCH_DIR) + "/workloads/fingerprints.txt"));
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line.substr(0, line.find('#')));
    std::string name, fingerprint;
    std::uint64_t pinnedSeed = 0;
    if (fields >> name >> pinnedSeed >> fingerprint && name == workload &&
        pinnedSeed == seed) {
      return fingerprint;
    }
  }
  return std::nullopt;
}

Manifest loadManifest() {
  const Json doc = Json::parse(
      readFile(std::string(AVMON_BENCH_DIR) + "/../BENCHMARK.json"));
  Manifest manifest;
  for (const Json& entry : doc.at("end_to_end").items()) {
    manifest.endToEnd.push_back(metricFrom(entry, true));
  }
  for (const Json& entry : doc.at("per_layer").items()) {
    manifest.perLayer.push_back(metricFrom(entry, false));
  }
  return manifest;
}

}  // namespace avmon::bench
