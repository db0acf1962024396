#ifndef FLAY_PERFBENCH_WORKLOADS_H
#define FLAY_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "net/fuzzer.h"
#include "net/mix.h"
#include "runtime/device_config.h"
#include "tofino/model.h"

namespace perfbench {

enum class WorkloadKind { kChurnSwitch, kRespecScion, kFibForward };

/// "churn_switch" | "respec_scion" | "fib_forward"; nullopt otherwise.
std::optional<WorkloadKind> parseWorkload(const std::string& name);
const char* workloadName(WorkloadKind kind);

/// Fixed shape of one workload: which bundled program it drives, how many
/// packets are forwarded between two updates, and the traffic mix.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kChurnSwitch;
  std::string program;
  size_t packetsPerUpdate = 1;
  /// Of those, how many are generated afresh against the config the update
  /// left; the rest are drawn from the packets of recent updates.
  size_t freshPacketsPerUpdate = 1;
  /// Timed updates per --seconds: roughly the rate this workload runs at on
  /// a 4-core x86 VM, so that a run takes about --seconds there.
  double updatesPerSecond = 100;
  flay::net::TrafficMix mix = flay::net::TrafficMix::kUniform;
  /// Pipeline of the simulated device the controller installs onto.
  flay::tofino::PipelineModel pipeline;
};
WorkloadSpec workloadSpec(WorkloadKind kind);

/// Seeded, deterministic control-plane stream for one workload. Every update
/// it hands out has already been applied to a private replaying DeviceConfig,
/// so it is valid for any config that saw the same stream in the same order
/// (ids of deletes are the ids that replay assigns). Same seed, same stream.
class UpdateGenerator {
 public:
  /// `checked` must outlive the generator.
  UpdateGenerator(const flay::p4::CheckedProgram& checked, WorkloadKind kind,
                  uint64_t seed);

  /// The set-up stream, applied through FaultTolerantController::applyBulk.
  std::vector<flay::runtime::Update> preload();
  /// The next timed update.
  flay::runtime::Update next();

  /// Installed entries per table after everything handed out so far.
  std::map<std::string, size_t> entriesPerTable() const;
  /// The config after everything handed out so far: what the device holds
  /// once it has applied the same stream.
  const flay::runtime::DeviceConfig& config() const { return replay_; }

 private:
  /// Entry-count band a table is churned within: inserts below `lo`,
  /// deletes above `hi`, a coin flip in between.
  struct Band {
    std::string table;
    size_t lo = 0;
    size_t hi = 0;
    double weight = 1;
  };

  /// Validates `u` against the replay config; false when it does not apply.
  bool accept(const flay::runtime::Update& u);
  bool tryInsert(const std::string& table);
  bool tryDelete(const std::string& table);
  bool tryFlipDefault(const std::string& table);
  /// One band-churn step on a table drawn by weight.
  void churnStep();
  const Band& pickBand();

  WorkloadKind kind_;
  uint64_t seed_;
  flay::runtime::DeviceConfig replay_;
  flay::net::EntryFuzzer fuzzer_;
  std::mt19937_64 rng_;
  /// Ids of installed entries per table, in no particular order.
  std::map<std::string, std::vector<uint64_t>> ids_;
  std::vector<Band> bands_;
  /// Updates generated but not yet handed out.
  std::vector<flay::runtime::Update> pending_;
  /// fib_forward: next index into net::bulkRouteUpdate's stream.
  size_t nextRoute_ = 0;
};

}  // namespace perfbench

#endif  // FLAY_PERFBENCH_WORKLOADS_H
