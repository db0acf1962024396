#include "fleet/fleet.h"

#include <sys/stat.h>

#include <atomic>
#include <functional>
#include <stdexcept>

#include "expr/canonical.h"
#include "obs/obs.h"
#include "support/backoff.h"
#include "support/stopwatch.h"

namespace flay::fleet {

namespace {

struct FleetObs {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& applied = reg.counter("fleet.updates_applied");
  obs::Counter& rejected = reg.counter("fleet.updates_rejected");
  obs::Counter& dropped = reg.counter("fleet.updates_dropped");
  obs::Counter& deviceFailures = reg.counter("fleet.device_failures");
  obs::Counter& drains = reg.counter("fleet.drains");
  /// Gauge semantics on a monotone counter: the drain coordinator rewrites
  /// the value (reset + add) after every drain, so a scrape between drains
  /// reads the current number of degraded devices.
  obs::Counter& degradedGauge = reg.counter("fleet.degraded_devices");
  /// Quarantine re-admission: recovery attempts issued by tryRecoverAll(),
  /// successes, and members whose RecoveryPolicy attempt budget ran out.
  obs::Counter& readmissionAttempts = reg.counter("fleet.readmission_attempts");
  obs::Counter& readmissions = reg.counter("fleet.readmissions");
  obs::Counter& readmissionGiveups = reg.counter("fleet.readmission_giveups");
  obs::Histogram& applyUs = reg.histogram("fleet.apply_us");
  obs::Histogram& drainUs = reg.histogram("fleet.drain_us");
  obs::Histogram& queueDepth = reg.histogram("fleet.queue_depth");
  obs::Histogram& initUs = reg.histogram("fleet.device_init_us");
  obs::Histogram& readmissionBackoffUs =
      reg.histogram("fleet.readmission_backoff_us");

  static FleetObs& get() {
    static FleetObs instance;
    return instance;
  }
};

void ensureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create fleet state dir '" + dir + "'");
  }
}

}  // namespace

struct FleetController::Member {
  std::string name;
  std::unique_ptr<controller::SimulatedDevice> device;
  std::unique_ptr<controller::FaultTolerantController> ctl;
  std::string initError;  // non-empty: construction failed (failed is set)

  mutable std::mutex qmu;
  std::deque<runtime::Update> queue;

  // Written by the drain worker owning this member, read by any thread.
  std::atomic<bool> degraded{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> applied{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<uint64_t> retries{0};

  // Re-admission backoff state, owned by the tryRecoverAll() caller (writes
  // inside pool tasks are ordered by the pool join).
  uint32_t recoverAttempts = 0;
  uint64_t nextRecoverAtMicros = 0;
  std::mt19937_64 recoverRng{1};

  obs::Counter* appliedCounter = nullptr;   // fleet.<name>.applied_updates
  obs::Counter* rejectedCounter = nullptr;  // fleet.<name>.rejected_updates
  obs::Counter* droppedCounter = nullptr;   // fleet.<name>.dropped_updates
};

FleetController::FleetController(const p4::CheckedProgram& checked,
                                 FleetOptions options)
    : options_(std::move(options)) {
  if (options_.devices == 0) options_.devices = 1;
  if (options_.jobs > 1) {
    pool_ = std::make_unique<support::ThreadPool>(options_.jobs - 1);
  }
  if (!options_.stateDirRoot.empty()) ensureDir(options_.stateDirRoot);

  obs::Registry& reg = obs::Registry::global();
  members_.reserve(options_.devices);
  for (size_t i = 0; i < options_.devices; ++i) {
    auto m = std::make_unique<Member>();
    m->name = "dev" + std::to_string(i);
    m->appliedCounter =
        &reg.counter("fleet." + m->name + ".applied_updates");
    m->rejectedCounter =
        &reg.counter("fleet." + m->name + ".rejected_updates");
    m->droppedCounter =
        &reg.counter("fleet." + m->name + ".dropped_updates");
    m->recoverRng.seed(options_.controller.seed + 0x5eedULL + i);
    members_.push_back(std::move(m));
  }

  // Bring the devices up concurrently: each member's journal recovery and
  // initial specialize+compile+install are independent of every other's.
  std::vector<std::function<void()>> tasks;
  tasks.reserve(members_.size());
  for (size_t i = 0; i < members_.size(); ++i) {
    tasks.push_back([this, &checked, i] {
      Member& m = *members_[i];
      obs::ScopedTimer timer(FleetObs::get().initUs, "fleet.device_init");
      try {
        controller::ControllerOptions copts = options_.controller;
        if (!options_.stateDirRoot.empty()) {
          copts.stateDir = options_.stateDirRoot + "/" + m.name;
        }
        copts.seed = options_.controller.seed + i;
        controller::FaultPlan plan = options_.faultPlan;
        plan.seed = options_.faultPlan.seed + i;
        m.device = std::make_unique<controller::SimulatedDevice>(
            plan, options_.deviceModel, options_.deviceCompiler);
        m.ctl = std::make_unique<controller::FaultTolerantController>(
            checked, m.device.get(), std::move(copts));
        m.degraded.store(m.ctl->degraded(), std::memory_order_relaxed);
      } catch (const std::exception& e) {
        m.initError = e.what();
        m.failed.store(true, std::memory_order_relaxed);
        FleetObs::get().deviceFailures.add(1);
      }
    });
  }
  if (pool_ != nullptr) {
    pool_->run(std::move(tasks));
  } else {
    for (auto& t : tasks) t();
  }

  FleetObs& fobs = FleetObs::get();
  fobs.degradedGauge.reset();
  fobs.degradedGauge.add(degradedDevices());
}

FleetController::~FleetController() = default;

const std::string& FleetController::deviceName(size_t device) const {
  return members_.at(device)->name;
}

bool FleetController::enqueue(size_t device, const runtime::Update& update) {
  Member& m = *members_.at(device);
  FleetObs& fobs = FleetObs::get();
  if (m.failed.load(std::memory_order_relaxed)) {
    m.dropped.fetch_add(1, std::memory_order_relaxed);
    m.droppedCounter->add(1);
    fobs.dropped.add(1);
    return false;
  }
  std::lock_guard<std::mutex> lock(m.qmu);
  if (options_.queueCapacity != 0 &&
      m.queue.size() >= options_.queueCapacity) {
    m.dropped.fetch_add(1, std::memory_order_relaxed);
    m.droppedCounter->add(1);
    fobs.dropped.add(1);
    return false;
  }
  m.queue.push_back(update);
  return true;
}

size_t FleetController::broadcast(const runtime::Update& update) {
  size_t accepted = 0;
  for (size_t i = 0; i < members_.size(); ++i) {
    if (enqueue(i, update)) ++accepted;
  }
  return accepted;
}

void FleetController::drainMember(Member& m) {
  FleetObs& fobs = FleetObs::get();
  for (;;) {
    runtime::Update update;
    {
      std::lock_guard<std::mutex> lock(m.qmu);
      if (m.queue.empty()) return;
      update = std::move(m.queue.front());
      m.queue.pop_front();
    }
    try {
      obs::ScopedTimer timer(fobs.applyUs, "fleet.apply");
      controller::ApplyResult r = m.ctl->apply(update);
      m.applied.fetch_add(1, std::memory_order_relaxed);
      m.retries.fetch_add(r.retries, std::memory_order_relaxed);
      m.degraded.store(r.degraded, std::memory_order_relaxed);
      m.appliedCounter->add(1);
      fobs.applied.add(1);
    } catch (const std::invalid_argument&) {
      // Malformed for the current state (e.g. duplicate insert): the
      // controller already rolled back; skip and keep the stream flowing.
      m.rejected.fetch_add(1, std::memory_order_relaxed);
      m.rejectedCounter->add(1);
      fobs.rejected.add(1);
    } catch (const std::exception&) {
      // Anything else means this device's pipeline is in an unknown state:
      // quarantine it (drop its backlog, refuse new work) so the rest of
      // the fleet keeps moving.
      m.failed.store(true, std::memory_order_relaxed);
      fobs.deviceFailures.add(1);
      std::lock_guard<std::mutex> lock(m.qmu);
      m.dropped.fetch_add(m.queue.size(), std::memory_order_relaxed);
      m.droppedCounter->add(m.queue.size());
      fobs.dropped.add(m.queue.size());
      m.queue.clear();
      return;
    }
  }
}

void FleetController::drain() {
  FleetObs& fobs = FleetObs::get();
  obs::ScopedTimer timer(fobs.drainUs, "fleet.drain");
  fobs.drains.add(1);
  for (;;) {
    std::vector<std::function<void()>> tasks;
    for (auto& mp : members_) {
      Member& m = *mp;
      if (m.failed.load(std::memory_order_relaxed)) continue;
      size_t depth;
      {
        std::lock_guard<std::mutex> lock(m.qmu);
        depth = m.queue.size();
      }
      if (depth == 0) continue;
      fobs.queueDepth.record(depth);
      tasks.push_back([this, &m] { drainMember(m); });
    }
    if (tasks.empty()) break;  // every queue empty (or its device failed)
    if (pool_ != nullptr) {
      pool_->run(std::move(tasks));
    } else {
      for (auto& t : tasks) t();
    }
  }
  fobs.degradedGauge.reset();
  fobs.degradedGauge.add(degradedDevices());
}

size_t FleetController::tryRecoverAll() {
  FleetObs& fobs = FleetObs::get();
  const RecoveryPolicy& policy = options_.recovery;
  // The schedule runs on the policy clock so tests (and replays) can drive
  // it deterministically; the default is the wall clock.
  auto nowMicros = [&policy]() -> uint64_t {
    return policy.clock ? policy.clock() : support::Stopwatch::nowMicros();
  };
  uint64_t now = nowMicros();
  std::vector<std::function<void()>> tasks;
  for (auto& mp : members_) {
    Member& m = *mp;
    if (m.failed.load(std::memory_order_relaxed) || m.ctl == nullptr) continue;
    if (!m.degraded.load(std::memory_order_relaxed)) {
      m.recoverAttempts = 0;  // inline recovery (or never degraded): reset
      m.nextRecoverAtMicros = 0;
      continue;
    }
    if (policy.maxAttempts != 0 && m.recoverAttempts >= policy.maxAttempts) {
      continue;  // given up (counted once, below, when the budget ran out)
    }
    if (now < m.nextRecoverAtMicros) continue;  // backing off
    tasks.push_back([this, &m, &fobs, &policy, nowMicros] {
      ++m.recoverAttempts;
      fobs.readmissionAttempts.add(1);
      bool ok = false;
      try {
        ok = m.ctl->tryRecover();
        m.degraded.store(m.ctl->degraded(), std::memory_order_relaxed);
      } catch (const std::exception&) {
        m.failed.store(true, std::memory_order_relaxed);
        fobs.deviceFailures.add(1);
        return;
      }
      if (ok) {
        m.recoverAttempts = 0;
        m.nextRecoverAtMicros = 0;
        fobs.readmissions.add(1);
        return;
      }
      if (policy.maxAttempts != 0 &&
          m.recoverAttempts >= policy.maxAttempts) {
        fobs.readmissionGiveups.add(1);
        return;
      }
      uint64_t backoff =
          support::backoffMicros(policy.backoffBaseMicros,
                                 policy.backoffMaxMicros, m.recoverAttempts,
                                 m.recoverRng);
      fobs.readmissionBackoffUs.record(backoff);
      m.nextRecoverAtMicros = nowMicros() + backoff;
    });
  }
  if (pool_ != nullptr) {
    pool_->run(std::move(tasks));
  } else {
    for (auto& t : tasks) t();
  }
  fobs.degradedGauge.reset();
  fobs.degradedGauge.add(degradedDevices());
  return degradedDevices();
}

void FleetController::setEpochCallback(size_t device,
                                       controller::EpochCallback cb) {
  Member& m = *members_.at(device);
  if (m.ctl == nullptr) {
    throw std::runtime_error("device " + m.name +
                             " failed to initialize: " + m.initError);
  }
  m.ctl->setEpochCallback(std::move(cb));
}

DeviceStatus FleetController::status(size_t device) const {
  const Member& m = *members_.at(device);
  DeviceStatus s;
  s.name = m.name;
  s.degraded = m.degraded.load(std::memory_order_relaxed);
  s.failed = m.failed.load(std::memory_order_relaxed);
  s.applied = m.applied.load(std::memory_order_relaxed);
  s.rejected = m.rejected.load(std::memory_order_relaxed);
  s.dropped = m.dropped.load(std::memory_order_relaxed);
  s.retries = m.retries.load(std::memory_order_relaxed);
  s.replayed = m.ctl != nullptr ? m.ctl->replayedUpdates() : 0;
  s.committed = m.ctl != nullptr ? m.ctl->committedUpdates() : 0;
  s.deviceVisible = m.ctl != nullptr ? m.ctl->deviceVisibleUpdates() : 0;
  s.recoverAttempts = m.recoverAttempts;
  s.nextRecoverAtMicros = m.nextRecoverAtMicros;
  {
    std::lock_guard<std::mutex> lock(m.qmu);
    s.queued = m.queue.size();
  }
  return s;
}

size_t FleetController::degradedDevices() const {
  size_t n = 0;
  for (const auto& m : members_) {
    if (m->degraded.load(std::memory_order_relaxed)) ++n;
  }
  return n;
}

size_t FleetController::failedDevices() const {
  size_t n = 0;
  for (const auto& m : members_) {
    if (m->failed.load(std::memory_order_relaxed)) ++n;
  }
  return n;
}

controller::FaultTolerantController& FleetController::controller(
    size_t device) {
  Member& m = *members_.at(device);
  if (m.ctl == nullptr) {
    throw std::runtime_error("device " + m.name +
                             " failed to initialize: " + m.initError);
  }
  return *m.ctl;
}

std::string FleetController::stateDigest(size_t device) const {
  const Member& m = *members_.at(device);
  if (m.ctl == nullptr) {
    throw std::runtime_error("device " + m.name +
                             " failed to initialize: " + m.initError);
  }
  return m.ctl->stateDigest();
}

std::string FleetController::fleetDigest() const {
  expr::Fnv fnv;
  for (size_t i = 0; i < members_.size(); ++i) {
    fnv.mix(members_[i]->name);
    fnv.mix(stateDigest(i));
    // Loss accounting is part of the fleet's observable state: a member
    // that dropped updates must never digest-equal a member that applied
    // them all, even if its committed state happens to match.
    fnv.mix(std::to_string(
        members_[i]->dropped.load(std::memory_order_relaxed)));
  }
  return fnv.hex();
}

FleetController::ConvergenceReport FleetController::convergence() const {
  ConvergenceReport report;
  // Reference digest: the first live, lossless member.
  for (size_t i = 0; i < members_.size(); ++i) {
    const Member& m = *members_[i];
    uint64_t dropped = m.dropped.load(std::memory_order_relaxed);
    report.droppedUpdates += dropped;
    if (m.failed.load(std::memory_order_relaxed) || m.ctl == nullptr) {
      report.failedDevices.push_back(i);
      continue;
    }
    if (dropped != 0) {
      report.lossyDevices.push_back(i);
      continue;
    }
    std::string digest = stateDigest(i);
    if (report.digest.empty()) {
      report.digest = digest;
    } else if (digest != report.digest) {
      report.divergentDevices.push_back(i);
    }
  }
  report.converged = report.failedDevices.empty() &&
                     report.lossyDevices.empty() &&
                     report.divergentDevices.empty() && !report.digest.empty();
  return report;
}

void FleetController::checkpointAll() {
  for (auto& mp : members_) {
    Member& m = *mp;
    if (m.ctl == nullptr || m.failed.load(std::memory_order_relaxed)) {
      continue;
    }
    m.ctl->checkpointNow();
  }
}

}  // namespace flay::fleet
