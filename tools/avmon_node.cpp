// avmon_node — one real AVMON node as an operating-system process.
//
// Hosts a single AvmonNode behind a net::LiveTransport bound to
// 127.0.0.1:(port_base + index) — in the live lane the NodeId IS the UDP
// socket address. Wall-clock time, scaled by --time-scale, drives the same
// simulator-scheduled protocol code as the simulated lane; joins/leaves
// arrive from the avmon_live driver over the control plane. On SIGTERM (or
// when the sim-time horizon elapses) the process writes its per-node
// metrics JSON to --metrics-out and exits 0.
//
// Usage:
//   avmon_node --index I --n N [--port-base 42000] [--seed 1]
//              [--cvs 0] [--k 0] [--hash splitmix64] [--time-scale 60]
//              [--horizon-ms 0] [--retry-max 4] [--backoff-ms 50]
//              [--backoff-cap-ms 800] [--metrics-out FILE]
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "avmon/config.hpp"
#include "common/node_id.hpp"
#include "experiments/spec.hpp"
#include "net/node_runtime.hpp"

namespace {

volatile std::sig_atomic_t gStop = 0;

void onSignal(int) { gStop = 1; }

[[noreturn]] void usageAndExit(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --index I --n N [options]\n"
      << "  --index I         cluster position; binds port_base + I\n"
      << "  --n N             system size the config is derived for\n"
      << "  --port-base P     first node port (default 42000)\n"
      << "  --seed S          cluster seed; each index forks its own stream\n"
      << "  --cvs C           coarse-view override (0 = paper default)\n"
      << "  --k K             pinging-set override (0 = paper default)\n"
      << "  --hash H          md5|sha1|splitmix64 (default splitmix64)\n"
      << "  --time-scale X    simulated ms per wall ms (default 60)\n"
      << "  --horizon-ms T    stop after T sim ms (0 = run until SIGTERM)\n"
      << "  --retry-max R     RPC send attempts (default 4)\n"
      << "  --backoff-ms B    first-attempt timeout (default 50)\n"
      << "  --backoff-cap-ms C  backoff ceiling (default 800)\n"
      << "  --metrics-out F   final per-node JSON report (default stdout)\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace avmon;

  constexpr std::uint64_t kMaxMs = std::numeric_limits<std::int64_t>::max();
  std::uint32_t index = 0;
  std::size_t n = 0;
  std::uint16_t portBase = 42000;
  std::size_t cvs = 0;
  unsigned k = 0;
  net::NodeRuntimeOptions options;
  std::string metricsOut;

  try {
    experiments::ArgParser args(argc, argv);
    while (args.next()) {
      const std::string& arg = args.flag();
      if (arg == "--index") index = static_cast<std::uint32_t>(args.valueU64(0xFFFF));
      else if (arg == "--n") n = args.valueSize();
      else if (arg == "--port-base") portBase = static_cast<std::uint16_t>(args.valueU64(0xFFFF));
      else if (arg == "--seed") options.seed = args.valueU64();
      else if (arg == "--cvs") cvs = args.valueSize();
      else if (arg == "--k") k = args.valueUnsigned();
      else if (arg == "--hash") options.hashName = args.value();
      else if (arg == "--time-scale") options.timeScale = args.valueDouble();
      else if (arg == "--horizon-ms") options.horizon = static_cast<SimDuration>(args.valueU64(kMaxMs));
      else if (arg == "--retry-max") options.live.retryMax = static_cast<std::uint32_t>(args.valueU64(0xFFFFFFFF));
      else if (arg == "--backoff-ms") options.live.retryBaseMs = static_cast<std::int64_t>(args.valueU64(kMaxMs));
      else if (arg == "--backoff-cap-ms") options.live.retryCapMs = static_cast<std::int64_t>(args.valueU64(kMaxMs));
      else if (arg == "--metrics-out") metricsOut = args.value();
      else args.failUnknown();
    }
    if (n == 0) {
      throw experiments::UsageError("--n is required (config derivation)");
    }
    if (portBase + index > 0xFFFF) {
      throw experiments::UsageError(
          "--port-base + --index must be at most 65535, got " +
          std::to_string(portBase + index));
    }

    options.index = index;
    options.self = NodeId(0x7F000001, static_cast<std::uint16_t>(portBase + index));
    options.config = AvmonConfig::paperDefaults(n);
    if (cvs != 0) options.config.cvs = cvs;
    if (k != 0) options.config.k = k;
    options.config.validate();

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    net::NodeRuntime runtime(std::move(options));
    if (!runtime.open()) {
      std::cerr << "avmon_node: cannot bind "
                << NodeId(0x7F000001,
                          static_cast<std::uint16_t>(portBase + index))
                       .toString()
                << "\n";
      return 1;
    }
    const int rc = runtime.run(&gStop);

    if (metricsOut.empty()) {
      runtime.writeMetricsJson(std::cout);
    } else {
      std::ofstream out(metricsOut);
      if (!out) {
        std::cerr << "avmon_node: cannot write " << metricsOut << "\n";
        return 1;
      }
      runtime.writeMetricsJson(out);
    }
    return rc;
  } catch (const experiments::UsageError& e) {
    std::cerr << "error: " << e.what() << "\n\n";
    usageAndExit(argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
