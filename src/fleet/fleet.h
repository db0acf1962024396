#ifndef FLAY_FLEET_FLEET_H
#define FLAY_FLEET_FLEET_H

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "controller/device.h"
#include "controller/fault_plan.h"
#include "support/thread_pool.h"

namespace flay::fleet {

/// Quarantine re-admission policy for tryRecoverAll(): a degraded member is
/// only re-attempted after an exponential (jittered, capped) backoff since
/// its last failed attempt, so a device stuck in an outage is not hammered
/// with specialize+compile+install work on every poll. The *caller* still
/// decides when to poll (typically once per drain cycle); the fleet decides
/// which members are actually due.
struct RecoveryPolicy {
  /// Backoff after the n-th consecutive failure: support::backoffMicros,
  /// i.e. base doubled n-1 times, saturating at max, plus jitter in
  /// [0, base).
  uint64_t backoffBaseMicros = 500;
  uint64_t backoffMaxMicros = 200000;
  /// Consecutive failed attempts before the fleet stops re-admitting a
  /// member (0 = never give up). The counter resets on success.
  uint32_t maxAttempts = 0;
  /// Clock used for the backoff schedule, in microseconds. Null = wall
  /// clock (support::Stopwatch::nowMicros). Injecting a fake clock makes
  /// the whole re-admission schedule deterministic end-to-end: the jitter
  /// RNG is already seeded per member, so with a scripted clock two runs
  /// attempt recovery at exactly the same points. May be called from pool
  /// workers — a test clock must be thread-safe (e.g. read an atomic).
  std::function<uint64_t()> clock;
};

struct FleetOptions {
  /// Number of managed devices. Each gets a name ("dev0".."devN-1"), its own
  /// SimulatedDevice + FaultTolerantController + FlayService, and — when
  /// stateDirRoot is set — its own journal/checkpoint directory underneath.
  size_t devices = 4;
  /// Concurrent device drains: jobs-1 pool workers plus the draining thread.
  /// 1 = fully serial (no pool is created). Updates within one device are
  /// always applied in order regardless.
  size_t jobs = 1;
  /// Per-device work-queue capacity; enqueue() to a full queue drops the
  /// update (counted in fleet.updates_dropped) instead of blocking, so a
  /// degraded or crashed device can never apply backpressure to the whole
  /// fleet. 0 = unbounded.
  size_t queueCapacity = 0;
  /// Root directory for per-device persistence ("" = in-memory only). A
  /// restart over the same root replays every device's journal — each
  /// device recovers to its last committed state independently.
  std::string stateDirRoot;
  /// Fault-plan template: device i runs it with seed = faultPlan.seed + i,
  /// so faults land at different points per device (deterministically).
  controller::FaultPlan faultPlan;
  /// Re-admission backoff for tryRecoverAll().
  RecoveryPolicy recovery;
  /// Base per-device controller options. stateDir and seed are overwritten
  /// per device.
  controller::ControllerOptions controller;
  tofino::PipelineModel deviceModel;
  tofino::CompilerOptions deviceCompiler;
};

/// Point-in-time status of one fleet member.
struct DeviceStatus {
  std::string name;
  bool degraded = false;
  /// A non-update exception escaped this device's apply loop; its queue was
  /// abandoned and it no longer accepts work (the rest of the fleet is
  /// unaffected).
  bool failed = false;
  uint64_t applied = 0;
  uint64_t rejected = 0;
  uint64_t dropped = 0;
  uint64_t retries = 0;
  uint64_t replayed = 0;  // journal replay during construction
  size_t queued = 0;
  /// Device-visibility epochs (see FaultTolerantController): committed -
  /// deviceVisible is this member's live staleness in updates.
  uint64_t committed = 0;
  uint64_t deviceVisible = 0;
  /// Consecutive failed tryRecoverAll() attempts (resets on re-admission).
  uint32_t recoverAttempts = 0;
  /// Earliest time (on the RecoveryPolicy clock) the next re-admission
  /// attempt is due; 0 = due immediately. Observable so tests can verify
  /// the backoff schedule without sleeping through it.
  uint64_t nextRecoverAtMicros = 0;
};

/// Control plane for a fleet of N devices: one FaultTolerantController per
/// device, per-device FIFO work queues, and a shared support::ThreadPool
/// that drains the queues concurrently — updates are serialized within a
/// device while devices proceed independently. Every device's FlayService
/// owns its own semantics-check engine: the verdict memo is keyed by ids in
/// that service's expression arena, so devices share no check state.
///
/// Threading contract: enqueue() is safe from any thread; drain() runs the
/// queues to empty and must not be called concurrently with itself.
/// Construction and journal recovery also fan out across the pool (each
/// device's controller, initial install, and replay are independent).
class FleetController {
 public:
  FleetController(const p4::CheckedProgram& checked, FleetOptions options = {});
  ~FleetController();

  FleetController(const FleetController&) = delete;
  FleetController& operator=(const FleetController&) = delete;

  size_t deviceCount() const { return members_.size(); }
  const std::string& deviceName(size_t device) const;

  /// Appends an update to `device`'s queue. False (and the update is
  /// dropped + counted) when the queue is at capacity or the device failed.
  bool enqueue(size_t device, const runtime::Update& update);
  /// Enqueues the update on every device; returns how many accepted it.
  size_t broadcast(const runtime::Update& update);

  /// Processes every queue to empty. Devices drain concurrently over the
  /// shared pool (jobs-way); within a device, updates apply strictly in
  /// enqueue order. Engine-rejected updates (std::invalid_argument) are
  /// counted and skipped; any other exception marks the device failed and
  /// abandons its remaining queue without disturbing the fleet.
  void drain();

  /// Attempts recovery of every degraded member that is due per the
  /// RecoveryPolicy backoff schedule, concurrently over the shared pool.
  /// Counted in fleet.readmission_attempts / fleet.readmissions. Returns the
  /// number of members still degraded afterwards. Same threading contract as
  /// drain(): not concurrent with itself or with drain().
  size_t tryRecoverAll();

  /// Installs `cb` as `device`'s epoch observer (see
  /// FaultTolerantController::setEpochCallback). Fires on the drain worker
  /// applying that device's updates. Set before the first drain.
  void setEpochCallback(size_t device, controller::EpochCallback cb);

  DeviceStatus status(size_t device) const;
  size_t degradedDevices() const;
  size_t failedDevices() const;

  /// One convergence check that cannot be silently wrong about loss: a
  /// member that dropped updates (bounded queue overflow or quarantine) saw
  /// a different stream, so its digest divergence is *expected* and
  /// attributed — while a lossless member's divergence is a hard failure.
  struct ConvergenceReport {
    /// Every live, lossless member shares `digest` and nothing was dropped
    /// or failed fleet-wide.
    bool converged = false;
    std::string digest;  ///< reference digest ("" if no live lossless member)
    std::vector<size_t> lossyDevices;      ///< dropped > 0 (divergence expected)
    std::vector<size_t> divergentDevices;  ///< lossless but digest mismatch
    std::vector<size_t> failedDevices;
    uint64_t droppedUpdates = 0;  ///< fleet-wide
  };
  ConvergenceReport convergence() const;

  /// Process-independent digest of one device's committed state (see
  /// FaultTolerantController::stateDigest).
  std::string stateDigest(size_t device) const;
  /// Digest over every device's digest, in device order, mixed with each
  /// device's dropped-update count: two fleets with equal fleet digests are
  /// member-by-member in identical states *and* identical loss accounting —
  /// a member that silently shed updates can never alias a clean fleet.
  std::string fleetDigest() const;

  /// Forces a checkpoint on every device (bounds journal replay on the next
  /// restart — the fleet-wide snapshot).
  void checkpointAll();

  controller::FaultTolerantController& controller(size_t device);

 private:
  struct Member;

  void drainMember(Member& m);

  FleetOptions options_;
  std::unique_ptr<support::ThreadPool> pool_;  // null when jobs <= 1
  std::vector<std::unique_ptr<Member>> members_;
};

}  // namespace flay::fleet

#endif  // FLAY_FLEET_FLEET_H
