#ifndef FLAY_CONTROLLER_FAULT_PLAN_H
#define FLAY_CONTROLLER_FAULT_PLAN_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace flay::controller {

/// Injectable device faults, generalizing flay::MigrationTestHooks from a
/// single specializer defect to the whole device-interaction surface the
/// fault-tolerant controller must survive: compile rejections, transient and
/// sustained install failures, and slow installs. All injection is
/// deterministic for a fixed seed, so every oracle/crashtest run is
/// reproducible from its command line.
struct FaultPlan {
  /// Reject the first N program-compile attempts ("does not fit").
  uint32_t rejectFirstCompiles = 0;
  /// Probability in [0,1] that any later compile is rejected.
  double compileRejectProbability = 0.0;
  /// Fail the first N program-install attempts with a transient error.
  uint32_t failFirstInstalls = 0;
  /// Probability in [0,1] that any later install transiently fails.
  double installFailProbability = 0.0;
  /// Sustained outage: installs numbered [outageStart, outageStart+outageLength)
  /// all fail — long enough outages exhaust the retry budget and force the
  /// controller into degraded mode until tryRecover() succeeds.
  uint32_t outageStart = 0;
  uint32_t outageLength = 0;
  /// Simulated install latency, reported in InstallResult::latencyMicros.
  uint64_t slowInstallMicros = 0;
  /// Seed for the probabilistic faults above.
  uint64_t seed = 1;

  /// Parses a comma-separated spec, e.g.
  ///   "reject-first=1,fail-first=2,flaky=0.3,outage=4+6,slow=500,seed=7"
  /// Unknown keys or malformed values throw std::invalid_argument.
  static FaultPlan parse(std::string_view spec);
  /// Renders back to the parse() syntax (canonical form).
  std::string toString() const;

  /// The named plans the nightly fault-injection matrix and the oracle's
  /// fault mode iterate over: none, transient, flaky, reject-compile,
  /// outage, slow.
  static std::vector<std::pair<std::string, FaultPlan>> builtinPlans();
};

}  // namespace flay::controller

#endif  // FLAY_CONTROLLER_FAULT_PLAN_H
