#ifndef FLAY_CONTROLLER_CONTROLLER_H
#define FLAY_CONTROLLER_CONTROLLER_H

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "controller/device.h"
#include "controller/wal.h"
#include "flay/engine.h"
#include "flay/specializer.h"
#include "ifc/ifc.h"
#include "support/stopwatch.h"

namespace flay::controller {

struct ControllerOptions {
  /// Directory for the write-ahead journal and checkpoints; "" disables
  /// persistence (the controller is then purely in-memory).
  std::string stateDir;
  /// Committed updates between checkpoints (0 = only on checkpointNow()).
  size_t checkpointEvery = 64;
  /// Install/compile attempts beyond the first before giving up and
  /// degrading.
  uint32_t maxInstallRetries = 4;
  /// Exponential backoff between attempts: min(base << attempt, max) plus
  /// jitter in [0, base). Recorded in controller.backoff_us; only actually
  /// slept when sleepOnBackoff (tests keep the schedule observable without
  /// paying it in wall-clock).
  uint64_t backoffBaseMicros = 200;
  uint64_t backoffMaxMicros = 50000;
  bool sleepOnBackoff = false;
  /// While degraded, a recovery (re-specialize + compile + install) is
  /// attempted automatically after this many committed updates (0 = only
  /// on explicit tryRecover()).
  size_t tryRecoverEvery = 8;
  /// Compile-and-install the current program at construction time (and
  /// after crash recovery). Disable for pure journal/replay use.
  bool installInitialProgram = true;
  /// Jitter seed.
  uint64_t seed = 1;
  /// When set, an ifc::IfcEngine is attached to the service: every
  /// committed apply re-verifies the policy's flows on the incremental hot
  /// path, and each flow transitioning into violation is journaled as an
  /// "ifc" audit record.
  std::optional<ifc::IfcPolicy> ifcPolicy;
  flay::FlayOptions flay;
  flay::SpecializerOptions specializer;
};

/// Outcome of one streaming bulk load routed through the controller.
struct BulkApplyResult {
  flay::BulkLoadReport report;
  /// The device kept up with the whole stream (entries forwarded, or one
  /// recompiled program installed at the end).
  bool deviceCurrent = false;
  bool degraded = false;
  size_t retries = 0;
};

/// Device-visibility accounting for one committed step, fired on the
/// applying thread after every committed batch/stream and after every
/// successful recovery. `committed - deviceVisible` is the device's update
/// backlog: the staleness (in updates) any packet it forwards right now
/// experiences. The replay harness turns these events into version-stamped
/// program swaps and verdict-to-install lag samples.
struct EpochEvent {
  uint64_t committed = 0;      ///< committedUpdates() after this step
  uint64_t deviceVisible = 0;  ///< committed updates represented on the device
  /// This step moved deviceVisible forward (forwarded entries or an install).
  bool advanced = false;
  /// Visibility advanced via specialize + compile + install (not forwarding).
  bool viaRecompile = false;
  /// Fired by a successful tryRecover() leaving degraded mode.
  bool recovery = false;
  /// Controller is degraded after this step.
  bool degraded = false;
  /// Verdict-ready -> device-visible for this step; for a recovery, the full
  /// time spent degraded (how long the oldest queued update waited).
  uint64_t installLagMicros = 0;
};
using EpochCallback = std::function<void(const EpochEvent&)>;

struct ApplyResult {
  flay::UpdateVerdict verdict;
  /// The device kept up with this update: either the entries flowed to the
  /// running program, or a recompiled program was installed.
  bool deviceCurrent = false;
  /// Controller is in degraded mode after this update (device pinned to the
  /// last good program; this or earlier updates are queued).
  bool degraded = false;
  /// Install/compile retries spent on this update.
  size_t retries = 0;
};

/// Fault-tolerant wrapper around flay::FlayService implementing the paper's
/// Fig. 2 control loop with the robustness the paper assumes but does not
/// spell out:
///
///  - Transactional batches: every apply is bracketed by a copy-on-write
///    ServiceSnapshot; a mid-batch failure restores the exact pre-batch
///    analysis state (strong exception guarantee).
///  - Write-ahead journal + checkpoints: each transaction is one commit
///    record, durable before the device sees it, so acknowledged updates
///    survive SIGKILL; a restarted controller recovers to the last
///    committed state by loading the newest intact checkpoint and replaying
///    the commit records after it.
///  - Device retry/backoff + graceful degradation: failed compiles/installs
///    are retried with exponential backoff; when retries exhaust, the
///    device stays pinned to the last good specialized program and the
///    controller keeps forwarding updates that are semantics-preserving
///    *for the pinned program*, queueing the rest until recovery succeeds.
///
/// The degradation invariant the differential oracle checks: at all times
/// the device runs a (program, config) pair packet-equivalent to the
/// original program under the device-visible config.
class FaultTolerantController {
 public:
  /// `device` may be null (no device interaction: analysis + WAL only).
  /// If options.stateDir holds a journal from a previous run, the
  /// constructor performs crash recovery before accepting new updates; a
  /// corrupt journal makes it throw std::runtime_error.
  FaultTolerantController(const p4::CheckedProgram& checked, Device* device,
                          ControllerOptions options = {});

  ApplyResult apply(const runtime::Update& update);
  ApplyResult applyBatch(const std::vector<runtime::Update>& updates);

  /// Streams a bulk load through the service's chunked path
  /// (FlayService::applyStream), journaling each chunk as one commit
  /// record and reconciling the device once at the end of the
  /// stream: a single recompile+install if any chunk's verdict demands it,
  /// plain forwarding otherwise. While degraded, the stream is applied to
  /// the authoritative state and queued for the device until recovery.
  /// Unlike applyBatch there is no whole-stream rollback — rejected updates
  /// are skipped (and counted) exactly as a sequential replay would.
  BulkApplyResult applyBulk(const flay::UpdateSource& source,
                            flay::BulkLoadOptions options = {});
  /// Convenience wrapper for an in-memory batch.
  BulkApplyResult applyBulk(const std::vector<runtime::Update>& updates,
                            flay::BulkLoadOptions options = {});

  bool degraded() const { return degraded_; }
  size_t queuedUpdates() const { return queued_.size(); }
  /// Attempts to leave degraded mode by re-specializing against the full
  /// current state and installing the result. True if healthy afterwards.
  bool tryRecover();

  /// The authoritative analysis state (every committed update applied).
  const flay::FlayService& service() const { return *service_; }
  flay::FlayService& service() { return *service_; }

  /// The device-visible control-plane state: equals service().config() when
  /// healthy, lags behind it while degraded.
  const runtime::DeviceConfig& deviceConfig() const;
  /// The program the device is running: the last successfully installed
  /// specialized program, or the original when none was installed yet.
  const p4::CheckedProgram& deviceProgram() const;

  /// Committed updates replayed from the journal during construction.
  uint64_t replayedUpdates() const { return replayedUpdates_; }
  uint64_t committedUpdates() const {
    return committedUpdates_.load(std::memory_order_relaxed);
  }
  /// Committed updates represented on the device right now (equals
  /// committedUpdates() when healthy; lags by the queued backlog while
  /// degraded). Safe to read from any thread.
  uint64_t deviceVisibleUpdates() const {
    return deviceVisibleUpdates_.load(std::memory_order_relaxed);
  }

  /// Observer for device-visibility changes (see EpochEvent). Invoked on
  /// whichever thread applies updates, strictly serialized with the apply
  /// itself — reading deviceProgram()/deviceConfig() inside the callback is
  /// safe. Set before the first apply; not thread-safe against a concurrent
  /// apply.
  void setEpochCallback(EpochCallback cb) { epochCallback_ = std::move(cb); }

  /// Shared handle to the pinned (last installed) program; null when the
  /// device still runs the original. Unlike deviceProgram(), the returned
  /// snapshot stays valid after the next install replaces the pin — this is
  /// what lets forwarding threads keep serving a superseded version.
  std::shared_ptr<const p4::CheckedProgram> pinnedProgram() const {
    return pinned_;
  }

  /// Forces a checkpoint of the current committed state.
  void checkpointNow();

  /// Per-update IFC report of the attached engine; null when
  /// options.ifcPolicy was not set.
  const ifc::IfcReport* lastIfcReport() const {
    return ifc_ != nullptr ? &ifc_->lastReport() : nullptr;
  }
  /// Flow transitions into violation observed (and journaled) so far. A
  /// flow that clears and re-violates counts again.
  uint64_t ifcViolationEvents() const { return ifcViolationEvents_; }

  /// Process-independent digest of the full controller-visible state
  /// (config including entry ids and allocator positions, plus every
  /// specialized program-point expression). Two controllers with equal
  /// digests are in observably identical states — the crashtest compares
  /// this across kill/recover boundaries.
  std::string stateDigest() const;

 private:
  void recoverFromJournal();
  /// Specialize + compile + install with retry/backoff. Updates pinned_ on
  /// success. Returns success; fills *retries.
  bool recompileAndInstall(size_t* retries);
  void enterDegraded(runtime::DeviceConfig deviceCfg,
                     const std::vector<runtime::Update>& updates);
  void queueUpdates(const std::vector<runtime::Update>& updates);
  uint64_t backoffMicros(uint32_t attempt);
  void maybeCheckpoint();
  /// Journals every flow that transitioned into violation since the last
  /// call (no-op without an attached IFC engine).
  void journalIfcViolations();
  /// Builds and dispatches one EpochEvent (and records the install-lag
  /// histogram sample when visibility advanced).
  void fireEpoch(bool advanced, bool viaRecompile, bool recovery,
                 uint64_t lagMicros);

  const p4::CheckedProgram& checked_;
  Device* device_;
  ControllerOptions options_;
  std::unique_ptr<flay::FlayService> service_;
  std::unique_ptr<Journal> journal_;
  /// Last good specialized program on the device; null = original program.
  /// Shared so superseded versions outlive the pin swap (see
  /// pinnedProgram()).
  std::shared_ptr<const p4::CheckedProgram> pinned_;
  /// Device's view of the analysis while degraded: tracks exactly the
  /// updates forwarded to the pinned program, so its verdicts decide
  /// forwardability. Lazily built on first degradation.
  std::unique_ptr<flay::FlayService> deviceView_;
  bool degraded_ = false;
  /// Attached when options.ifcPolicy is set; shares ownership with the
  /// service's analysis list.
  std::shared_ptr<ifc::IfcEngine> ifc_;
  /// Last seen violation state per "label -> sink" flow, for edge-triggered
  /// journaling.
  std::map<std::string, bool> ifcViolating_;
  uint64_t ifcViolationEvents_ = 0;
  std::vector<runtime::Update> queued_;
  std::set<std::string> queuedTargets_;
  std::mt19937_64 jitterRng_;
  uint64_t replayedUpdates_ = 0;
  /// Atomics so fleet status queries and replay forwarding threads can read
  /// the epoch pair while the drain worker applies; only the applying thread
  /// writes.
  std::atomic<uint64_t> committedUpdates_{0};
  std::atomic<uint64_t> deviceVisibleUpdates_{0};
  EpochCallback epochCallback_;
  /// Restarted on entering degraded mode; a recovery's installLagMicros is
  /// this watch's elapsed time.
  support::Stopwatch degradedSince_;
  size_t sinceCheckpoint_ = 0;
  size_t sinceRecoverAttempt_ = 0;
};

}  // namespace flay::controller

#endif  // FLAY_CONTROLLER_CONTROLLER_H
