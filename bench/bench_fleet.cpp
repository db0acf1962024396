// Fleet-controller throughput: how does aggregate update throughput scale
// with the device count and the drain concurrency?
//
// The workload models the regime real multi-device control planes live in:
// every recompile ends in an install RPC to the switch driver that blocks
// its caller for a few milliseconds (FaultPlan slow=...), so a serial
// controller spends most of its wall clock waiting on one device at a time.
// The fleet controller overlaps the installs across devices.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "net/fuzzer.h"
#include "net/workloads.h"
#include "obs/bench_report.h"
#include "obs/obs.h"
#include "support/stopwatch.h"

namespace {

namespace p4 = flay::p4;
namespace net = flay::net;
namespace obs = flay::obs;
namespace ctrl = flay::controller;
namespace fleet = flay::fleet;
namespace runtime = flay::runtime;

constexpr size_t kUpdates = 40;
constexpr uint64_t kSeed = 42;
constexpr int kReps = 3;
// A realistic install RPC to a switch driver is single-digit milliseconds.
constexpr const char* kSlowPlan = "slow=4000";

struct RunResult {
  double seconds = 0;
  double throughput = 0;  // aggregate applied updates per second (drain)
  uint64_t applied = 0;
};

RunResult runFleet(const p4::CheckedProgram& checked,
                   const std::vector<runtime::Update>& script, size_t devices,
                   size_t jobs) {
  fleet::FleetOptions fopts;
  fopts.devices = devices;
  fopts.jobs = jobs;
  fopts.faultPlan = ctrl::FaultPlan::parse(kSlowPlan);
  fopts.deviceCompiler.searchIterations = 64;
  fleet::FleetController fc(checked, fopts);

  // Throughput is over the update stream only (bring-up is a per-device
  // constant, reported by fleet.device_init_us instead).
  flay::support::Stopwatch drainTimer;
  for (const auto& u : script) fc.broadcast(u);
  fc.drain();

  RunResult r;
  r.seconds = drainTimer.elapsedSeconds();
  for (size_t i = 0; i < fc.deviceCount(); ++i) {
    r.applied += fc.status(i).applied;
  }
  r.throughput = r.seconds > 0 ? r.applied / r.seconds : 0;
  return r;
}

RunResult medianRun(const p4::CheckedProgram& checked,
                    const std::vector<runtime::Update>& script, size_t devices,
                    size_t jobs) {
  std::vector<RunResult> runs;
  for (int i = 0; i < kReps; ++i) {
    runs.push_back(runFleet(checked, script, devices, jobs));
  }
  std::sort(runs.begin(), runs.end(),
            [](const RunResult& a, const RunResult& b) {
              return a.seconds < b.seconds;
            });
  return runs[runs.size() / 2];
}

}  // namespace

int main() {
  p4::CheckedProgram checked =
      p4::loadProgramFromFile(net::programPath("scion"));
  std::vector<runtime::Update> script =
      net::fuzzUpdateSequence(checked, kUpdates, kSeed);

  std::printf("fleet controller, %zu-update broadcast stream, %s per "
              "install (median of %d)\n\n",
              script.size(), kSlowPlan, kReps);

  // --- Aggregate throughput vs device count at jobs=8. --------------------
  std::vector<std::pair<std::string, double>> metrics;
  std::printf("device scaling (jobs=8):\n");
  double base = 0, top = 0;
  for (size_t devices : {1, 2, 4, 8}) {
    RunResult r = medianRun(checked, script, devices, 8);
    if (devices == 1) base = r.throughput;
    if (devices == 8) top = r.throughput;
    std::printf("  devices=%zu: %8.1f updates/s (%.2f s, %llu applied)\n",
                devices, r.throughput, r.seconds,
                static_cast<unsigned long long>(r.applied));
    metrics.emplace_back("throughput_d" + std::to_string(devices) + "_j8",
                         r.throughput);
  }
  double scaling = base > 0 ? top / base : 0;
  std::printf("  1 -> 8 devices: %.2fx aggregate throughput\n\n", scaling);
  metrics.emplace_back("scaling_1_to_8_devices", scaling);

  // --- Throughput vs drain concurrency at 8 devices. ----------------------
  std::printf("drain concurrency (8 devices):\n");
  double serial8 = 0, parallel8 = 0;
  for (size_t jobs : {1, 2, 4, 8}) {
    RunResult r = medianRun(checked, script, 8, jobs);
    if (jobs == 1) serial8 = r.throughput;
    if (jobs == 8) parallel8 = r.throughput;
    std::printf("  jobs=%zu:    %8.1f updates/s (%.2f s)\n", jobs,
                r.throughput, r.seconds);
    metrics.emplace_back("throughput_d8_j" + std::to_string(jobs),
                         r.throughput);
  }
  std::printf("  jobs 1 -> 8: %.2fx (slow installs overlap)\n\n",
              serial8 > 0 ? parallel8 / serial8 : 0);
  metrics.emplace_back("jobs_speedup_d8",
                       serial8 > 0 ? parallel8 / serial8 : 0);

  obs::writeBenchReport("fleet", metrics);
  return 0;
}
