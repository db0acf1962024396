// Live-traffic replay under churn: the packet-level view of incremental
// specialization. Forwarding threads replay realistic traffic mixes through
// sim::Interpreter against versioned program snapshots while the control
// plane concurrently broadcasts fuzzed churn through a FleetController under
// fault injection. The exhibit answers the question the update-throughput
// benches cannot: what do packets experience while the control plane churns,
// degrades, and recovers?
//
// Hard gates (exit 1): any post-hoc oracle misroute (a served packet whose
// specialized verdict differs from the original program under the
// device-visible config), any forwarding error, any scenario that fails to
// re-converge, and any stale packet after convergence (unbounded staleness).
// SLO numbers — staleness in updates and microseconds, verdict-to-install
// lag — are measurements of the real interleaving, reported per window.
//
// Modes:
//   bench_live_replay           three deep scenarios, >= 1M packets total,
//                               including a sustained outage + recovery
//   bench_live_replay matrix    the nightly churn matrix on top: traffic
//                               mixes x fault plans x 4 programs, shallow
//   bench_live_replay quick     CI smoke: the deep scenarios at ~1% depth

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "net/mix.h"
#include "net/workloads.h"
#include "obs/bench_report.h"
#include "obs/obs.h"
#include "replay/replay.h"

namespace {

namespace p4 = flay::p4;
namespace net = flay::net;
namespace obs = flay::obs;
namespace ctrl = flay::controller;
namespace replay = flay::replay;

struct Scenario {
  std::string name;
  std::string program;
  net::TrafficMix mix = net::TrafficMix::kHeavyHitter;
  std::string faultPlan;  // "" = none
  size_t devices = 2;
  size_t packets = 100000;
  size_t updates = 100;
  double churnRate = 0;
};

replay::ReplayOptions optionsFor(const Scenario& s, size_t scale) {
  replay::ReplayOptions ropts;
  ropts.devices = s.devices;
  ropts.packets = std::max<size_t>(s.packets / scale, 2000);
  ropts.updates = s.updates;
  ropts.churnRate = s.churnRate;
  ropts.mix = s.mix;
  ropts.jobs = 2;
  ropts.seed = 42;
  if (!s.faultPlan.empty()) ropts.faultPlan = ctrl::FaultPlan::parse(s.faultPlan);
  // Recovery must outlast the builtin outage (100 failed installs): keep the
  // re-admission backoff tight and the post-churn budget generous so a
  // recovered device is demonstrably re-converged, not timed out.
  ropts.recovery.backoffBaseMicros = 200;
  ropts.recovery.backoffMaxMicros = 5000;
  ropts.maxRecoveryRounds = 20000;
  ropts.controller.specializer.jobs = 1;
  ropts.deviceCompiler.searchIterations = 64;
  return ropts;
}

/// Runs one scenario, prints its block, folds its metrics into `metrics`
/// under "<name>." and its gate failures into `failures`.
replay::ReplayReport runScenario(
    const Scenario& s, size_t scale,
    std::vector<std::pair<std::string, double>>& metrics,
    std::vector<std::string>& failures) {
  p4::CheckedProgram checked =
      p4::loadProgramFromFile(net::programPath(s.program));
  replay::LiveReplayHarness harness(checked, optionsFor(s, scale));
  replay::ReplayReport report = harness.run();

  std::printf("--- %s (%s, mix=%s, plan=%s)\n%s\n", s.name.c_str(),
              s.program.c_str(), net::mixName(s.mix),
              s.faultPlan.empty() ? "none" : s.faultPlan.c_str(),
              replay::describeReport(report).c_str());
  for (const auto& [key, value] : replay::reportMetrics(report)) {
    metrics.emplace_back(s.name + "." + key, value);
  }
  for (const std::string& g : report.gateFailures) {
    failures.push_back(s.name + ": " + g);
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  bool matrix = false;
  size_t scale = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "matrix") == 0) {
      matrix = true;
    } else if (std::strcmp(argv[i], "quick") == 0) {
      scale = 100;
    } else {
      std::fprintf(stderr, "usage: bench_live_replay [matrix] [quick]\n");
      return 2;
    }
  }

  // The three deep scenarios. Packet floors sum past 1M at scale=1, and the
  // outage scenario drives a full degrade -> pinned-forwarding -> recover ->
  // re-converge arc while packets keep flowing.
  std::vector<Scenario> deep = {
      {"steady_churn", "scion", net::TrafficMix::kHeavyHitter, "", 4, 500000,
       160, 0},
      {"outage_recovery", "scion", net::TrafficMix::kTunnel, "outage=2+100",
       2, 300000, 120, 0},
      {"flaky_install", "dash", net::TrafficMix::kPortScan,
       "flaky=0.3,seed=7", 2, 300000, 120, 0},
  };

  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> failures;
  uint64_t totalPackets = 0;
  for (const Scenario& s : deep) {
    totalPackets += runScenario(s, scale, metrics, failures).totalPackets;
  }

  if (matrix) {
    // Nightly churn matrix: every mix x a fault-plan spread x the four
    // measurement-literature programs, shallow per cell. Cell depth is a
    // deliberate bound (the deep scenarios above carry the volume); the cell
    // count itself is exhaustive over the cross product.
    std::vector<std::string> plans = {"", "flaky=0.3,seed=7", "outage=2+40"};
    std::vector<std::string> programs = {"scion", "dash", "middleblock",
                                         "beaucoup"};
    size_t cells = 0;
    for (const std::string& program : programs) {
      for (net::TrafficMix mix : net::allMixes()) {
        for (const std::string& plan : plans) {
          Scenario cell;
          cell.name = "matrix." + program + "." + net::mixName(mix) + "." +
                      (plan.empty() ? "none"
                                    : plan.substr(0, plan.find_first_of("=,")));
          cell.program = program;
          cell.mix = mix;
          cell.faultPlan = plan;
          cell.devices = 2;
          cell.packets = 20000;
          cell.updates = 48;
          totalPackets += runScenario(cell, scale, metrics, failures).totalPackets;
          ++cells;
        }
      }
    }
    metrics.emplace_back("matrix.cells", static_cast<double>(cells));
  }

  metrics.emplace_back("total_packets", static_cast<double>(totalPackets));
  metrics.emplace_back("gate_failures", static_cast<double>(failures.size()));
  obs::writeBenchReport("live_replay", metrics);

  if (!failures.empty()) {
    std::fprintf(stderr, "\nbench_live_replay: FAILED — %zu gate violation(s)\n",
                 failures.size());
    for (const std::string& f : failures) {
      std::fprintf(stderr, "  %s\n", f.c_str());
    }
    return 1;
  }
  std::printf("\nbench_live_replay: all gates passed (%llu packets)\n",
              static_cast<unsigned long long>(totalPackets));
  return 0;
}
