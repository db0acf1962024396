#ifndef FLAY_REPLAY_REPLAY_H
#define FLAY_REPLAY_REPLAY_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "controller/fault_plan.h"
#include "fleet/fleet.h"
#include "net/mix.h"

namespace flay::replay {

/// Knobs of one live replay. The packet/update workloads are deterministic
/// in the seed; the *interleaving* of packets against control-plane churn is
/// real concurrency, so SLO numbers (staleness, lag) are measurements, not
/// reproducible constants. The correctness gates — post-hoc oracle
/// equivalence of every published version, zero staleness after convergence
/// — hold at every interleaving.
struct ReplayOptions {
  size_t devices = 2;
  /// Minimum packets forwarded fleet-wide. Forwarding threads keep running
  /// until churn, convergence, and the cooldown are also done, so the actual
  /// total is >= this.
  size_t packets = 100000;
  /// Fuzzed churn updates broadcast to every device.
  size_t updates = 200;
  /// Broadcast pacing in updates/second (0 = as fast as the fleet drains).
  double churnRate = 0;
  /// Broadcasts between drain + tryRecoverAll cycles.
  size_t drainEvery = 8;
  net::TrafficMix mix = net::TrafficMix::kHeavyHitter;
  controller::FaultPlan faultPlan;
  /// Fleet drain concurrency (the harness's forwarding threads are extra).
  size_t jobs = 2;
  /// Per-device fleet queue capacity (0 = unbounded).
  size_t queueCapacity = 0;
  uint64_t seed = 1;
  /// SLO window length in packets, per device.
  size_t windowPackets = 8192;
  /// Post-hoc oracle sampling: the first few packets served by every
  /// published version plus every N-th packet are re-executed
  /// original-vs-specialized after the version retires.
  size_t oracleSampleEvery = 512;
  size_t oracleSamplesPerVersionMin = 2;
  size_t oracleSamplesPerVersionMax = 64;
  /// Packets each converged device must forward after convergence (these
  /// gate staleness == 0).
  size_t cooldownPackets = 2048;
  /// Bound on post-churn tryRecoverAll rounds before declaring the fleet
  /// unconverged.
  size_t maxRecoveryRounds = 200;
  fleet::RecoveryPolicy recovery;
  /// Base per-device controller options. tryRecoverEvery is forced to 0 so
  /// quarantine re-admission goes through the fleet's RecoveryPolicy and the
  /// recovery metrics are well-defined.
  controller::ControllerOptions controller;
  tofino::CompilerOptions deviceCompiler;
};

/// Per-window packet SLOs (windows are windowPackets long, per device).
struct WindowStats {
  uint64_t packets = 0;
  uint64_t stalePackets = 0;
  uint64_t maxStalenessUpdates = 0;
  uint64_t maxStalenessMicros = 0;
  uint64_t degradedPackets = 0;
  uint64_t policyDrops = 0;
};

struct DeviceReplayStats {
  std::string name;
  uint64_t packets = 0;
  uint64_t stalePackets = 0;
  uint64_t maxStalenessUpdates = 0;
  uint64_t maxStalenessMicros = 0;
  /// Packets served by a version published while the controller was
  /// degraded (pinned program) — they kept flowing, which is the point.
  uint64_t degradedPackets = 0;
  /// Packets the program's own policy dropped (not an SLO failure).
  uint64_t policyDrops = 0;
  uint64_t versionsAdopted = 0;
  uint64_t oracleSamples = 0;
  uint64_t misroutes = 0;
  uint64_t recoveries = 0;
  uint64_t maxRecoveryMicros = 0;
  uint64_t committed = 0;
  uint64_t deviceVisible = 0;
  uint64_t droppedUpdates = 0;
  uint64_t readmissionAttempts = 0;
  bool converged = false;
  bool failed = false;
  uint64_t postConvergencePackets = 0;
  uint64_t postConvergenceStale = 0;
  std::vector<WindowStats> windows;
  std::string firstMisroute;   // human-readable, empty when clean
  std::string forwardingError;  // interpreter exception text, empty when clean
};

struct LagStats {
  uint64_t count = 0;
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
};

struct ReplayReport {
  /// Every hard gate passed: zero oracle misroutes, zero forwarding errors,
  /// fleet converged, zero stale packets after convergence.
  bool ok = false;
  std::vector<std::string> gateFailures;

  uint64_t totalPackets = 0;
  uint64_t stalePackets = 0;
  uint64_t maxStalenessUpdates = 0;
  uint64_t maxStalenessMicros = 0;
  uint64_t degradedPackets = 0;
  uint64_t policyDrops = 0;
  uint64_t misroutes = 0;
  uint64_t oracleSamples = 0;
  uint64_t droppedUpdates = 0;
  uint64_t postConvergenceStale = 0;
  uint64_t readmissionAttempts = 0;
  uint64_t readmissions = 0;
  uint64_t recoveries = 0;
  uint64_t maxRecoveryMicros = 0;
  bool fleetConverged = false;
  uint64_t updatesBroadcast = 0;
  uint64_t wallMicros = 0;
  double packetsPerSecond = 0;
  /// Verdict-ready -> device-visible, fleet-wide (microseconds).
  LagStats installLagUs;
  LagStats stalenessUpdates;
  LagStats stalenessUs;
  std::vector<DeviceReplayStats> devices;
};

/// Drives sim::Interpreter forwarding threads (one per device, each serving
/// a TrafficMixer stream against the device's current ProgramVersion
/// snapshot) concurrent with fuzzed control-plane churn broadcast through a
/// FleetController under a FaultPlan. Every packet is epoch-stamped (the
/// update epoch it should see vs the version that served it) into per-window
/// SLO metrics; every published version is post-hoc oracle-replayed
/// (original program vs installed specialization on sampled packets).
class LiveReplayHarness {
 public:
  /// `checked` must outlive the harness.
  LiveReplayHarness(const p4::CheckedProgram& checked, ReplayOptions options);

  ReplayReport run();

 private:
  const p4::CheckedProgram& checked_;
  ReplayOptions options_;
};

/// Flattens a report into BENCH metric rows (aggregates plus per-window
/// series), ready for obs::writeBenchReport.
std::vector<std::pair<std::string, double>> reportMetrics(
    const ReplayReport& report);

/// Multi-line human-readable summary (one block per device).
std::string describeReport(const ReplayReport& report);

}  // namespace flay::replay

#endif  // FLAY_REPLAY_REPLAY_H
