#include "harness.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace avmon::bench {
namespace {

constexpr double kChildTimeoutS = 150.0;
// Workload mode starts no child that would end past this point, so one
// invocation ends within three minutes.
constexpr double kInvocationBudgetS = 150.0;
constexpr int kMinReps = 3;

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << '\n';
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------------

struct ChildRun {
  bool ok = false;
  std::string error;
  Json doc;                ///< the child's result document (when ok)
  double peakRssMb = 0.0;  ///< getrusage max RSS of the child process
  double processS = 0.0;   ///< fork to reap
};

/// Re-executes this binary as `avmon_bench --child <workload> <flags>`,
/// feeds it the spec text on stdin, and reaps it. One child at a time.
ChildRun spawnChild(const std::string& workload,
                    const std::vector<std::string>& flags,
                    const std::string& specText) {
  int in[2];
  int out[2];
  if (pipe2(in, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  if (pipe2(out, O_CLOEXEC) != 0) {
    close(in[0]);
    close(in[1]);
    throw std::runtime_error("pipe failed");
  }
  std::vector<std::string> args = {"avmon_bench", "--child", workload};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const std::int64_t start = nowNs();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    dup2(in[0], STDIN_FILENO);
    dup2(out[1], STDOUT_FILENO);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(in[0]);
  close(out[1]);
  const char* cursor = specText.data();
  std::size_t left = specText.size();
  while (left > 0) {
    const ssize_t n = write(in[1], cursor, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // the child died early; its status says why
    cursor += n;
    left -= static_cast<std::size_t>(n);
  }
  close(in[1]);

  std::string text;
  bool timedOut = false;
  for (;;) {
    const double remaining = kChildTimeoutS - secondsBetween(start, nowNs());
    if (remaining <= 0) {
      timedOut = true;
      kill(pid, SIGKILL);
      break;
    }
    pollfd pfd{out[0], POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(remaining * 1000) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char buf[65536];
    const ssize_t n = read(out[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(out[0]);

  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  ChildRun run;
  run.processS = secondsBetween(start, nowNs());
  run.peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  if (timedOut) {
    run.error = "timed out after " + std::to_string(kChildTimeoutS) + " s";
    return run;
  }
  if (!WIFEXITED(status)) {
    run.error = "killed by signal " + std::to_string(WTERMSIG(status));
    return run;
  }
  const auto lineEnd = text.find_last_not_of("\n");
  const auto lineStart =
      lineEnd == std::string::npos ? 0 : text.find_last_of('\n', lineEnd) + 1;
  try {
    run.doc = Json::parse(text.substr(lineStart));
  } catch (const std::exception& e) {
    run.error = "exit " + std::to_string(WEXITSTATUS(status)) +
                ", unreadable result (" + e.what() + ")";
    return run;
  }
  if (const Json* error = run.doc.find("error")) {
    run.error = error->asString();
  } else if (WEXITSTATUS(status) != 0) {
    run.error = "exit " + std::to_string(WEXITSTATUS(status));
  } else {
    run.ok = true;
  }
  return run;
}

std::vector<std::string> withPreset(std::vector<std::string> flags,
                                    Preset preset) {
  if (preset == Preset::kSmoke) {
    flags.push_back("--preset");
    flags.push_back("smoke");
  }
  return flags;
}

double timeOf(const ChildRun& run, const char* key) {
  return run.doc.at("times").at(key).asNumber();
}

/// Samples of each end-to-end metric, one per successful pass.
using Samples = std::map<std::string, std::vector<double>>;

/// End-to-end samples of one successful untraced pass.
std::map<std::string, double> endToEndOf(const ChildRun& run) {
  return {{"wall_s", timeOf(run, "wall_s")},
          {"setup_s", timeOf(run, "setup_s")},
          {"run_s", timeOf(run, "run_s")},
          {"peak_rss_mb", run.peakRssMb}};
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// Every pass of one workload and seed must produce the same fingerprint:
/// the pinned one when benchmark/workloads/fingerprints.txt has it, the
/// first pass's otherwise. A pass that throws, crashes, simulates nothing
/// or disagrees counts as failed.
struct OutputCheck {
  std::optional<std::string> pin;
  std::string expected;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> problems;

  void observe(const ChildRun& run, const std::string& what) {
    ++attempted;
    std::string problem;
    if (!run.ok) {
      problem = run.error;
    } else if (run.doc.at("counters").at("sim.events").asNumber() <= 0) {
      problem = "no simulator events";
    } else {
      const std::string& fp = run.doc.at("fingerprint").asString();
      if (expected.empty()) expected = pin.value_or(fp);
      if (fp != expected) problem = "fingerprint " + fp + " != " + expected;
    }
    if (!problem.empty()) {
      ++failed;
      problems.push_back(what + ": " + problem);
    }
  }
  bool correct() const noexcept { return failed == 0; }
};

// ---------------------------------------------------------------------------
// Traced pass and the per-layer metrics
// ---------------------------------------------------------------------------

struct TracePass {
  ChildRun traced;
  ChildRun alt;  ///< the other shard count (1 <-> 4)
  /// wall_s and peak RSS of untraced passes that run the way the traced
  /// one does (serially, for a sweep).
  std::vector<double> untracedWall, untracedRss;
  std::map<std::string, double> layers;
  std::map<std::string, double> selfS;
};

double number(const Json& obj, const std::string& key) {
  return obj.at(key).asNumber();
}

/// Per-layer metrics from the traced child, the other-shard-count child
/// and the untraced passes of one trace pass.
std::map<std::string, double> layerMetrics(const TracePass& t) {
  const Json& doc = t.traced.doc;
  const Json& times = doc.at("times");
  const Json& counters = doc.at("counters");
  std::map<std::string, double> v;
  for (const auto& [name, value] : counters.members()) {
    v[name] = value.asNumber();
  }
  for (const auto& [name, value] : doc.at("probes").members()) {
    v[name] = value.asNumber();
  }
  const double runS = number(times, "run_s");
  const double cpuS = number(times, "run_cpu_s");
  const double events = v["sim.events"];
  const double windows = v["sim.windows"];
  const double checks = v["avmon.hash_checks"];
  v["sim.events_per_window"] = events / windows;
  v["sim.ns_per_event"] = runS / events * 1e9;
  v["run.cpu_s"] = cpuS;
  v["run.cpu_per_wall"] = cpuS / runS;

  const double shards = number(doc, "shards");
  const double windowNs = shards >= 4   ? v["sim.window_ns.s4"]
                          : shards >= 2 ? v["sim.window_ns.s2"]
                                        : v["sim.window_ns.s1"];
  v["sim.barrier_wall_share"] = windows * windowNs * 1e-9 / runS;
  const double avmonRun = number(doc.at("protocol_run_s"), "avmon");
  const double altRun = number(t.alt.doc.at("protocol_run_s"), "avmon");
  v["sim.shard_speedup"] = shards == 1 ? avmonRun / altRun : altRun / avmonRun;

  const double sent = v["net.delivered"] + v["net.lost"];
  v["net.lost_ratio"] = sent > 0 ? v["net.lost"] / sent : 0.0;
  v["avmon.checks_per_event"] = checks / events;
  v["selector.share_lo"] = checks * v["selector.memo_hit_ns"] * 1e-9 / cpuS;
  v["selector.share_hi"] = checks * v["selector.memo_thrash_ns"] * 1e-9 / cpuS;

  v["metrics.collect_s"] = number(times, "collect_s");
  v["churn.generate_s"] = number(times, "generate_s");
  v["scenario.build_s"] =
      number(times, "setup_s") - number(times, "generate_s");
  v["spec.parse_us"] = number(times, "parse_s") * 1e6;

  v["run.bytes_per_node"] =
      median(t.untracedRss) * 1048576.0 / number(doc, "nodes");
  // Traced and untraced passes share the four phase spans, so the
  // ratio of their sums is the cost of recording spans.
  v["trace.overhead"] = number(times, "wall_s") / median(t.untracedWall);

  if (number(doc, "scenarios") > 1) {
    for (const auto& [protocol, seconds] : doc.at("protocol_run_s").members()) {
      v["sweep.run_s." + protocol] = seconds.asNumber();
    }
  }
  return v;
}

/// Traced pass, then the pass at the other shard count (whose fingerprint
/// must match: shard counts change wall time only), then the untraced
/// serial passes that give trace.overhead its denominator. A single
/// scenario runs the same with or without --serial, so when `timed` holds
/// the samples of untraced passes already run, they serve; otherwise
/// untraced serial passes run until `seconds` since `start` (at least one).
TracePass runTracePass(const std::string& workload, const std::string& text,
                       Preset preset, OutputCheck& check, std::int64_t start,
                       double seconds, const Samples* timed) {
  TracePass t;
  t.traced = spawnChild(workload, withPreset({"--traced"}, preset), text);
  check.observe(t.traced, "traced pass");
  const bool oneShard =
      !t.traced.ok || number(t.traced.doc, "shards") == 1;
  const std::string altShards = oneShard ? "4" : "1";
  t.alt = spawnChild(workload, {"--serial", "--shards", altShards}, text);
  check.observe(t.alt, "pass at " + altShards + " shard(s)");
  const bool single = t.traced.ok && number(t.traced.doc, "scenarios") == 1;
  if (single && timed != nullptr && timed->count("wall_s") > 0) {
    t.untracedWall = timed->at("wall_s");
    t.untracedRss = timed->at("peak_rss_mb");
  } else {
    std::vector<double> processS;
    for (;;) {
      const ChildRun run = spawnChild(workload, {"--serial"}, text);
      check.observe(run, "untraced serial pass");
      if (!run.ok) break;
      processS.push_back(run.processS);
      t.untracedWall.push_back(timeOf(run, "wall_s"));
      t.untracedRss.push_back(run.peakRssMb);
      if (secondsBetween(start, nowNs()) + median(processS) > seconds) break;
    }
  }

  if (t.traced.ok && t.alt.ok && !t.untracedWall.empty()) {
    t.layers = layerMetrics(t);
    t.selfS = selfTimes(spansFromJson(t.traced.doc.at("spans")));
  }
  return t;
}

std::vector<TracedRun> tracedRuns(
    const std::vector<std::pair<std::string, const TracePass*>>& passes) {
  std::vector<TracedRun> runs;
  for (const auto& [label, pass] : passes) {
    if (!pass->traced.ok) continue;
    runs.push_back(TracedRun{static_cast<int>(runs.size()) + 1, label,
                             spansFromJson(pass->traced.doc.at("spans"))});
  }
  return runs;
}

void printProblems(const std::string& workload, const OutputCheck& check) {
  for (const std::string& p : check.problems) {
    std::fprintf(stderr, "avmon_bench: %s: %s\n", workload.c_str(), p.c_str());
  }
}

Json metricValue(double value, const std::string& unit) {
  Json m = Json::object();
  m.set("value", value);
  m.set("unit", unit);
  return m;
}

// ---------------------------------------------------------------------------
// Suite report helpers
// ---------------------------------------------------------------------------

std::string loadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  in >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

std::string utcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

Json stamp(const RunOptions& options) {
  Json s = Json::object();
  s.set("git", AVMON_BENCH_GIT);
  s.set("build_type", AVMON_BENCH_BUILD_TYPE);
  s.set("compiler", AVMON_BENCH_COMPILER);
  s.set("nproc", std::max(1u, std::thread::hardware_concurrency()));
  s.set("loadavg_at_end", loadAverage());
  s.set("date", utcNow());
  s.set("preset", options.preset == Preset::kSmoke ? "smoke" : "default");
  s.set("reps", options.reps);
  return s;
}

Json row(const std::string& workload, const std::string& metric,
         const std::string& unit, const std::vector<double>& values) {
  const Quartiles q = quartiles(values);
  Json r = Json::object();
  r.set("workload", workload);
  r.set("metric", metric);
  r.set("unit", unit);
  r.set("median", q.median);
  r.set("q1", q.q1);
  r.set("q3", q.q3);
  r.set("n", q.n);
  Json all = Json::array();
  for (const double v : values) all.push(v);
  r.set("values", std::move(all));
  return r;
}

double absoluteFloor(const std::string& metric) {
  // Below these sizes a difference is noise on any host: set-up of the
  // small workloads takes milliseconds, and RSS moves by allocator pages.
  if (metric == "setup_s") return 0.02;
  if (metric == "peak_rss_mb") return 8.0;
  return 0.0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

int runWorkloadMode(const std::string& name, const RunOptions& options) {
  const Manifest manifest = loadManifest();
  const Workload& workload = workloadNamed(name);
  const std::string file =
      options.specPath.empty() ? specFileOf(workload) : options.specPath;
  const std::uint64_t seed = options.seed.value_or(defaultSeed(file));
  const std::string text = specText(workload, file, seed, options.preset);
  OutputCheck check;
  if (options.preset == Preset::kDefault && options.specPath.empty()) {
    check.pin = pinnedFingerprint(name, seed);
  }
  const double seconds = std::min(options.seconds, kInvocationBudgetS);
  const std::int64_t start = nowNs();

  // When every pass fails there are no metrics, but the result line is
  // still printed: it is what records the failure.
  Json metrics = Json::object();
  if (options.tracePath.empty()) {
    Samples samples;
    std::vector<double> processS;
    for (;;) {
      const ChildRun run =
          spawnChild(name, withPreset({}, options.preset), text);
      check.observe(run, "rep " + std::to_string(check.attempted + 1));
      processS.push_back(run.processS);
      if (run.ok) {
        for (const auto& [metric, value] : endToEndOf(run)) {
          samples[metric].push_back(value);
        }
      }
      const double next = secondsBetween(start, nowNs()) + median(processS);
      if (check.attempted >= kMinReps && (next > seconds || samples.empty())) {
        break;
      }
      if (next > kInvocationBudgetS) break;
    }
    printProblems(name, check);
    for (const MetricDecl& decl : manifest.endToEnd) {
      if (samples.empty()) break;
      const auto it = samples.find(decl.name);
      if (it == samples.end()) {
        throw std::runtime_error("BENCHMARK.json names end-to-end metric '" +
                                 decl.name + "' the bench does not measure");
      }
      const Quartiles q = quartiles(it->second);
      std::printf("%-16s %-14s %14.6g %-6s (q1 %.6g, q3 %.6g, n=%zu)\n",
                  name.c_str(), decl.name.c_str(), q.median, decl.unit.c_str(),
                  q.q1, q.q3, q.n);
      metrics.set(decl.name, metricValue(q.median, decl.unit));
    }
  } else {
    const TracePass pass = runTracePass(name, text, options.preset, check,
                                        start, seconds, nullptr);
    printProblems(name, check);
    for (const MetricDecl& decl : manifest.perLayer) {
      if (pass.layers.empty()) break;
      const auto it = pass.layers.find(decl.name);
      if (it == pass.layers.end()) {
        throw std::runtime_error("BENCHMARK.json names per-layer metric '" +
                                 decl.name + "' the bench does not measure");
      }
      std::printf("%-16s %-30s %14.6g %s\n", name.c_str(), decl.name.c_str(),
                  it->second, decl.unit.c_str());
      metrics.set(decl.name, metricValue(it->second, decl.unit));
    }
    for (const auto& [span, self] : pass.selfS) {
      std::printf("%-16s self %-25s %14.6g s\n", name.c_str(), span.c_str(),
                  self);
    }
    writeFile(options.tracePath,
              chromeTrace(tracedRuns({{name + " traced", &pass}})).dump());
  }

  Json result = Json::object();
  result.set("correct", check.correct());
  result.set("attempted", check.attempted);
  result.set("failed", check.failed);
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return check.correct() ? 0 : 1;
}

int runSuite(const RunOptions& options) {
  const Manifest manifest = loadManifest();
  struct Entry {
    const Workload* workload;
    std::uint64_t seed;
    std::string text;
    OutputCheck check;
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> sweepTail, sweepCpuPerWall;
    TracePass trace;
  };
  std::vector<Entry> entries;
  for (const Workload& w : workloads()) {
    const std::string file = specFileOf(w);
    Entry e{&w, options.seed.value_or(defaultSeed(file)), "", {}, {}, {}, {},
            {}};
    e.text = specText(w, file, e.seed, options.preset);
    if (options.preset == Preset::kDefault) {
      e.check.pin = pinnedFingerprint(w.name, e.seed);
    }
    entries.push_back(std::move(e));
  }

  // Timed passes, interleaved across workloads so slow drift on the host
  // spreads over all of them instead of landing on one.
  for (int rep = 0; rep < options.reps; ++rep) {
    for (Entry& e : entries) {
      const std::string& name = e.workload->name;
      const ChildRun run =
          spawnChild(name, withPreset({}, options.preset), e.text);
      e.check.observe(run, "rep " + std::to_string(rep + 1));
      if (!run.ok) continue;
      for (const auto& [metric, value] : endToEndOf(run)) {
        e.samples[metric].push_back(value);
      }
      if (const Json* sweep = run.doc.find("sweep")) {
        e.sweepTail.push_back(number(*sweep, "tail_s"));
        e.sweepCpuPerWall.push_back(number(*sweep, "cpu_per_wall"));
      }
      std::fprintf(stderr, "rep %d/%d %-16s wall %.3f s\n", rep + 1,
                   options.reps, name.c_str(), timeOf(run, "wall_s"));
    }
  }
  for (Entry& e : entries) {
    e.trace = runTracePass(e.workload->name, e.text, options.preset, e.check,
                           nowNs(), 0.0, &e.samples);
    std::fprintf(stderr, "traced %-16s\n", e.workload->name.c_str());
  }

  Json rows = Json::array();
  Json layers = Json::object();
  Json self = Json::object();
  Json fingerprints = Json::object();
  bool allCorrect = true;
  std::printf("%-16s %-14s %-9s %12s %12s %12s %4s\n", "workload", "metric",
              "unit", "median", "q1", "q3", "n");
  for (Entry& e : entries) {
    const std::string& name = e.workload->name;
    for (const MetricDecl& decl : manifest.endToEnd) {
      const std::vector<double>& values = e.samples[decl.name];
      const Quartiles q = quartiles(values);
      std::printf("%-16s %-14s %-9s %12.6g %12.6g %12.6g %4zu\n", name.c_str(),
                  decl.name.c_str(), decl.unit.c_str(), q.median, q.q1, q.q3,
                  q.n);
      rows.push(row(name, decl.name, decl.unit, values));
    }
    const double failRatio =
        e.check.attempted == 0
            ? 0.0
            : static_cast<double>(e.check.failed) / e.check.attempted;
    std::printf("%-16s %-14s %-9s %12.6g %12s %12s %4d\n", name.c_str(),
                "fail_ratio", "fraction", failRatio, "", "", e.check.attempted);
    rows.push(row(name, "fail_ratio", "fraction", {failRatio}));

    Json l = Json::object();
    for (const MetricDecl& decl : manifest.perLayer) {
      const auto it = e.trace.layers.find(decl.name);
      if (it != e.trace.layers.end()) {
        l.set(decl.name, metricValue(it->second, decl.unit));
      }
    }
    // Sweep-only rows: they exist on baseline_sweep alone, so BENCHMARK.json
    // (whose per-layer metrics every workload reports) does not list them.
    for (const auto& [metric, value] : e.trace.layers) {
      if (metric.rfind("sweep.", 0) == 0) {
        l.set(metric, metricValue(value, "s"));
      }
    }
    if (!e.sweepTail.empty()) {
      l.set("sweep.tail_s", metricValue(median(e.sweepTail), "s"));
      l.set("sweep.cpu_per_wall",
            metricValue(median(e.sweepCpuPerWall), "ratio"));
    }
    layers.set(name, std::move(l));
    Json s = Json::object();
    for (const auto& [span, seconds] : e.trace.selfS) s.set(span, seconds);
    self.set(name, std::move(s));
    fingerprints.set(name, e.check.expected);
    allCorrect = allCorrect && e.check.correct();
    printProblems(name, e.check);
  }

  for (const auto& [name, l] : layers.members()) {
    std::printf("\n# %s per-layer (traced pass)\n", name.c_str());
    for (const auto& [metric, value] : l.members()) {
      std::printf("  %-30s %14.6g %s\n", metric.c_str(),
                  number(value, "value"), value.at("unit").asString().c_str());
    }
    std::printf("  self time by span:\n");
    for (const auto& [span, seconds] : self.at(name).members()) {
      std::printf("    %-28s %12.6f s\n", span.c_str(), seconds.asNumber());
    }
  }

  Json report = Json::object();
  report.set("stamp", stamp(options));
  report.set("correct", allCorrect);
  report.set("fingerprints", std::move(fingerprints));
  report.set("rows", std::move(rows));
  report.set("layers", std::move(layers));
  report.set("self_s", std::move(self));
  if (!options.outPath.empty()) {
    writeFile(options.outPath, report.dump(1));
    std::printf("\nwrote %s\n", options.outPath.c_str());
  }
  if (!options.tracePath.empty()) {
    std::vector<std::pair<std::string, const TracePass*>> passes;
    for (const Entry& e : entries) {
      passes.emplace_back(e.workload->name + " traced", &e.trace);
    }
    writeFile(options.tracePath, chromeTrace(tracedRuns(passes)).dump());
    std::printf("wrote %s\n", options.tracePath.c_str());
  }
  std::printf("outputs %s\n", allCorrect ? "correct" : "INCORRECT");
  return allCorrect ? 0 : 1;
}

int compareResults(const std::string& basePath, const std::string& headPath) {
  const Manifest manifest = loadManifest();
  const Json base = Json::parse(readFile(basePath));
  const Json head = Json::parse(readFile(headPath));
  std::map<std::pair<std::string, std::string>, const Json*> baseRows;
  for (const Json& r : base.at("rows").items()) {
    baseRows[{r.at("workload").asString(), r.at("metric").asString()}] = &r;
  }

  bool regression = false;
  std::printf("%-16s %-12s %12s %12s %12s  %s\n", "workload", "metric", "base",
              "head", "allowed", "verdict");
  for (const Json& h : head.at("rows").items()) {
    const std::string workload = h.at("workload").asString();
    const std::string metric = h.at("metric").asString();
    const auto found = baseRows.find({workload, metric});
    if (found == baseRows.end()) {
      std::printf("%-16s %-12s %12s  not in base\n", workload.c_str(),
                  metric.c_str(), "");
      continue;
    }
    const Json& b = *found->second;
    const double bm = number(b, "median");
    const double hm = number(h, "median");
    std::string verdict;
    double allowed = 0.0;
    if (metric == "fail_ratio") {
      verdict = hm > bm ? "REGRESSION" : "same";
    } else {
      const MetricDecl* decl = nullptr;
      for (const MetricDecl& d : manifest.endToEnd) {
        if (d.name == metric) decl = &d;
      }
      if (decl == nullptr) continue;
      allowed = std::max(decl->bound * std::fabs(bm), absoluteFloor(metric));
      const double worse = decl->lowerIsBetter ? hm - bm : bm - hm;
      const double spread = std::max(number(b, "q3") - number(b, "q1"),
                                     number(h, "q3") - number(h, "q1"));
      if (spread > allowed) {
        verdict = "unresolved";
      } else if (worse > allowed) {
        verdict = "REGRESSION";
      } else {
        verdict = worse < -allowed ? "better" : "same";
      }
    }
    regression = regression || verdict == "REGRESSION";
    std::printf("%-16s %-12s %12.6g %12.6g %12.6g  %s\n", workload.c_str(),
                metric.c_str(), bm, hm, allowed, verdict.c_str());
  }
  return regression ? 1 : 0;
}

}  // namespace avmon::bench
