#ifndef FLAY_ORACLE_ORACLE_H
#define FLAY_ORACLE_ORACLE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "controller/fault_plan.h"
#include "flay/engine.h"
#include "flay/specializer.h"
#include "net/fuzzer.h"
#include "sim/packet.h"

namespace flay::oracle {

/// Knobs of one differential-oracle run. The (seed, updates, packets) triple
/// fully determines the fuzzed update script and every probe workload, so a
/// run — and any shrunk subset of it — replays exactly from a command line.
/// Every probe compares the observable output, the post-pipeline field
/// store, and register/counter/meter state.
struct OracleOptions {
  size_t updates = 100;  // length of the fuzzed update script
  size_t packets = 32;   // probe packets per equivalence check
  uint64_t seed = 1;
  bool shrink = true;    // minimize update script + packet on divergence

  /// Fault injection: forward to migrateConfig's test hooks so tests and CI
  /// can prove the oracle catches a specializer that drops an entry.
  enum class Sabotage { kNone, kDropMigratedEntry };
  Sabotage sabotage = Sabotage::kNone;

  /// Replay only these indices of the generated script (nullopt = the whole
  /// script; an empty list = no updates, probing the initial specialization
  /// only). Produced by the shrinker; settable from `flayc difftest
  /// --replay-updates`.
  std::optional<std::vector<size_t>> replayUpdates;
  /// When non-empty, every probe consists of exactly this packet instead of
  /// the fuzzed workload (replaying a shrunk counterexample).
  std::vector<uint8_t> probePacketOverride;
  uint32_t probeIngressPort = 0;

  /// When set, the replay drives a FaultTolerantController backed by a
  /// SimulatedDevice injecting this plan's faults (retries, degradation,
  /// recovery) instead of a bare FlayService. Probes then assert the
  /// degradation invariant: the device's (program, config) pair stays
  /// packet-equivalent to the original program under the device-visible
  /// config, across every retry, pin, and recovery the plan provokes.
  std::optional<controller::FaultPlan> faultPlan;

  flay::FlayOptions flayOptions;
  flay::SpecializerOptions specializerOptions;
};

/// First observed behavioral difference between the original program and its
/// specialization.
struct Divergence {
  /// Number of script updates applied when the divergence fired (0 = the
  /// initial specialization of the starting config already diverges).
  size_t updateStep = 0;
  /// True when the last applied update was judged semantics-preserving —
  /// i.e. the incremental verdict itself is implicated, not just the
  /// specializer.
  bool afterPreservingUpdate = false;
  /// Last update applied before the divergence (empty at step 0).
  std::string lastUpdate;
  size_t packetIndex = 0;
  std::vector<uint8_t> packetBytes;
  uint32_t ingressPort = 0;
  /// What differed: "parserAccepted", "dropped", "egressPort",
  /// "outputBytes", "field:<canonical>", or "extern:<cell>".
  std::string aspect;
  std::string original;     // rendered value on the original program
  std::string specialized;  // rendered value on the specialized program
  /// Position within the replayed subset of the last processed update
  /// (SIZE_MAX when the initial specialization already diverges). The
  /// shrinker truncates the script here before minimizing.
  size_t subsetPos = SIZE_MAX;

  std::string describe() const;
};

struct OracleReport {
  bool equivalent = true;
  size_t updatesApplied = 0;
  size_t updatesRejected = 0;
  size_t packetsCompared = 0;
  size_t preservingChecks = 0;   // probes after semantics-preserving verdicts
  size_t respecializations = 0;  // forced full respecializations
  /// Fault mode only: probe steps taken while the controller was degraded
  /// (device pinned to the last good program), and install/compile retries
  /// the fault plan provoked.
  size_t degradedSteps = 0;
  size_t faultRetries = 0;
  std::optional<Divergence> divergence;

  // Filled by the shrinker when a divergence was found and shrinking is on.
  std::vector<size_t> shrunkUpdates;       // minimal script indices
  std::vector<uint8_t> shrunkPacketBytes;  // minimized packet ([] = none)
  uint32_t shrunkIngressPort = 0;
  /// Replayable `flayc difftest ...` command reproducing the shrunk case.
  std::string reproCommand;
};

/// The specialize-then-simulate differential oracle (tentpole of the test
/// subsystem): replays a fuzzed control-plane update script through a
/// FlayService and, after every update, checks that the interpreter's
/// behavior on the original program matches the specialized one on a probe
/// workload. Updates judged semantics-preserving keep the current
/// specialized program (only the config is migrated — the paper's "forward
/// straight to the device" path); updates judged semantics-changing force a
/// full respecialization first. Any mismatch is a bug in the specializer,
/// the digest-based verdict, or the interpreter — exactly the silent-failure
/// class the paper's value proposition depends on.
class DifferentialOracle {
 public:
  /// `checked` must outlive the oracle. `programPath` is only used to render
  /// the replayable repro command.
  DifferentialOracle(const p4::CheckedProgram& checked, OracleOptions options,
                     std::string programPath = "<prog.p4l>");

  /// Runs the full metamorphic replay; shrinks on divergence when enabled.
  OracleReport run();

  /// The fuzzed update script the run replays (generated deterministically
  /// from the seed at construction).
  const std::vector<runtime::Update>& script() const { return script_; }

 private:
  struct SpecializedSide {
    std::unique_ptr<p4::CheckedProgram> checked;
    std::unique_ptr<runtime::DeviceConfig> config;
  };

  /// Replays `subset` (indices into script_) from a fresh service; returns
  /// the first divergence, or nullopt when equivalent. `packetOverride`
  /// replaces every probe workload with one fixed packet. Dispatches to
  /// replayWithFaults() when options_.faultPlan is set.
  std::optional<Divergence> replay(const std::vector<size_t>& subset,
                                   const sim::Packet* packetOverride,
                                   OracleReport* report);
  /// Fault-mode replay: same script, but through a FaultTolerantController
  /// with an injected-fault device; probes compare the original program
  /// under the device-visible config against the device's pinned program.
  std::optional<Divergence> replayWithFaults(const std::vector<size_t>& subset,
                                             const sim::Packet* packetOverride,
                                             OracleReport* report);

  SpecializedSide respecialize(flay::FlayService& service);
  void migrate(flay::FlayService& service, SpecializedSide& side);
  /// Compares the original program under `origConfig` against `specChecked`
  /// under `specConfig` on a fuzzed (or overridden) probe workload.
  std::optional<Divergence> probe(const runtime::DeviceConfig& origConfig,
                                  const p4::CheckedProgram& specChecked,
                                  const runtime::DeviceConfig& specConfig,
                                  size_t updateStep,
                                  const sim::Packet* packetOverride,
                                  OracleReport* report);

  void shrink(OracleReport& report);
  std::string buildReproCommand(const OracleReport& report) const;

  const p4::CheckedProgram& checked_;
  OracleOptions options_;
  std::string programPath_;
  std::vector<runtime::Update> script_;
};

/// Incremental-vs-scratch consistency check: snapshots every program point's
/// specialized expression, forces a from-scratch respecialization of the
/// same config, and reports points whose expression differs. A mismatch
/// means some incremental update verdict left stale analysis state — the
/// cheap engine-level cousin of the full differential oracle, used by
/// `flayc fuzz` to turn its stats run into a pass/fail check.
struct ConsistencyReport {
  bool consistent = true;
  std::vector<uint32_t> mismatchedPoints;
};
ConsistencyReport checkIncrementalConsistency(flay::FlayService& service);

}  // namespace flay::oracle

#endif  // FLAY_ORACLE_ORACLE_H
