#include "controller/controller.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "expr/printer.h"
#include "obs/obs.h"

namespace flay::controller {

namespace {

struct ControllerObs {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& applied = reg.counter("controller.applied_updates");
  obs::Counter& retries = reg.counter("controller.retries");
  obs::Counter& rollbacks = reg.counter("controller.rollbacks");
  obs::Counter& degradations = reg.counter("controller.degradations");
  obs::Counter& recoveries = reg.counter("controller.degradation_recoveries");
  obs::Counter& recoveryAttempts = reg.counter("controller.recovery_attempts");
  obs::Counter& replayed = reg.counter("controller.replayed_updates");
  obs::Counter& forwarded = reg.counter("controller.forwarded_updates");
  obs::Counter& queued = reg.counter("controller.queued_updates");
  obs::Counter& recompiles = reg.counter("controller.recompiles");
  obs::Counter& installsOk = reg.counter("controller.installs_ok");
  obs::Histogram& backoffUs = reg.histogram("controller.backoff_us");
  obs::Histogram& recoverUs = reg.histogram("controller.recover_us");
  /// Verdict-ready -> device-visible per committed step (the paper's
  /// reaction-time claim measured at the install boundary).
  obs::Histogram& installLagUs = reg.histogram("controller.install_lag_us");
  /// Time spent pinned per degradation episode.
  obs::Histogram& degradedUs = reg.histogram("controller.degraded_us");

  static ControllerObs& get() {
    static ControllerObs instance;
    return instance;
  }
};

void ensureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    throw std::runtime_error("cannot create state dir '" + dir + "'");
  }
}

std::string checkpointFileName(uint64_t seq) {
  std::string digits = std::to_string(seq);
  while (digits.size() < 8) digits = "0" + digits;
  return "checkpoint-" + digits + ".ckpt";
}

}  // namespace

FaultTolerantController::FaultTolerantController(
    const p4::CheckedProgram& checked, Device* device, ControllerOptions options)
    : checked_(checked),
      device_(device),
      options_(std::move(options)),
      service_(std::make_unique<flay::FlayService>(checked, options_.flay)),
      jitterRng_(options_.seed) {
  if (!options_.stateDir.empty()) {
    ensureDir(options_.stateDir);
    journal_ = std::make_unique<Journal>(options_.stateDir + "/journal.jsonl");
    recoverFromJournal();
    journal_->open();
  }
  if (options_.ifcPolicy.has_value()) {
    // Attach after recovery: the baseline recheck covers the recovered
    // state, and violations already present there are journaled once (the
    // log carries no trusted verdicts — see appendIfcViolation).
    ifc_ = std::make_shared<ifc::IfcEngine>(*service_, *options_.ifcPolicy);
    service_->attachAnalysis(ifc_);
    ifc_->recheck();
    journalIfcViolations();
  }
  if (device_ != nullptr && options_.installInitialProgram) {
    size_t retries = 0;
    if (!recompileAndInstall(&retries)) {
      // Device keeps its boot-time program (the original, empty config).
      enterDegraded(runtime::DeviceConfig(checked_), {});
    }
  }
}

void FaultTolerantController::recoverFromJournal() {
  obs::ScopedTimer timer(ControllerObs::get().recoverUs, "controller.recover");
  std::vector<JournalRecord> records = Journal::load(journal_->path());
  if (records.empty()) return;

  // Newest intact checkpoint wins; a torn checkpoint file falls back to the
  // previous marker (the journal tail from there is still complete).
  size_t baseIndex = 0;  // replay starts after this record index
  for (size_t i = records.size(); i-- > 0;) {
    if (records[i].type != JournalRecord::Type::kCheckpoint) continue;
    try {
      uint64_t ckptSeq = 0;
      runtime::DeviceConfig config = Checkpoint::load(
          options_.stateDir + "/" + records[i].file, checked_, &ckptSeq);
      service_->adoptConfig(std::move(config));
      baseIndex = i + 1;
      break;
    } catch (const std::exception&) {
      continue;  // torn or missing checkpoint: try an older one
    }
  }

  // Each commit record is one transaction that was applied in memory before
  // it was written, so its text parses and it replays as one batch. IFC
  // records are audit-only: verdicts are re-derived from the recovered state
  // by the engine attached after replay, never trusted from the log.
  for (size_t i = baseIndex; i < records.size(); ++i) {
    if (records[i].type != JournalRecord::Type::kCommit) continue;
    std::vector<runtime::Update> batch;
    batch.reserve(records[i].updates.size());
    for (const std::string& text : records[i].updates) {
      batch.push_back(runtime::Update::fromString(checked_, text));
    }
    service_->applyBatch(batch);
    replayedUpdates_ += batch.size();
    committedUpdates_.fetch_add(batch.size(), std::memory_order_relaxed);
    sinceCheckpoint_ += batch.size();
    ControllerObs::get().replayed.add(batch.size());
  }
}

void FaultTolerantController::journalIfcViolations() {
  if (ifc_ == nullptr) return;
  for (const auto& flow : ifc_->lastReport().flows) {
    const std::string key = flow.label + " -> " + flow.sink;
    bool& wasViolating = ifcViolating_[key];
    const bool violating = flow.isViolation();
    if (violating && !wasViolating) {
      ++ifcViolationEvents_;
      obs::Registry::global().counter("controller.ifc_violations").add(1);
      if (journal_ != nullptr && journal_->isOpen()) {
        journal_->appendIfcViolation(key + ": " +
                                     ifc::toString(flow.status));
      }
    }
    wasViolating = violating;
  }
}

ApplyResult FaultTolerantController::apply(const runtime::Update& update) {
  return applyBatch({update});
}

ApplyResult FaultTolerantController::applyBatch(
    const std::vector<runtime::Update>& updates) {
  ApplyResult result;
  if (updates.empty()) {
    result.degraded = degraded_;
    result.deviceCurrent = !degraded_;
    return result;
  }
  ControllerObs& cobs = ControllerObs::get();

  flay::ServiceSnapshot snap = service_->snapshot();
  try {
    result.verdict = service_->applyBatch(updates);
    // The commit record is durable before the device sees anything, so
    // recovery replays exactly the acknowledged transactions.
    if (journal_ != nullptr) {
      journal_->appendBegin(updates.size());
      for (const auto& u : updates) journal_->appendUpdate(u);
      journal_->appendCommit();
    }
  } catch (...) {
    // Strong exception guarantee: the k-th update failing (or the commit
    // record failing to land) rolls back the k-1 already-applied ones. The
    // batch was never journaled, so it never replays.
    service_->restore(snap);
    cobs.rollbacks.add(1);
    throw;
  }
  committedUpdates_.fetch_add(updates.size(), std::memory_order_relaxed);
  sinceCheckpoint_ += updates.size();
  cobs.applied.add(updates.size());
  // The attached IFC engine already re-verified its flows inside the apply
  // (analysis notification); journal any flow that just turned violating.
  journalIfcViolations();
  // The verdict is ready here; the lag clock runs until this step becomes
  // device-visible (entries forwarded or a recompiled program installed).
  support::Stopwatch lag;

  if (device_ != nullptr) {
    if (!degraded_) {
      if (result.verdict.needsRecompilation) {
        if (recompileAndInstall(&result.retries)) {
          result.deviceCurrent = true;
          fireEpoch(/*advanced=*/true, /*viaRecompile=*/true,
                    /*recovery=*/false, lag.elapsedMicros());
        } else {
          // Pin the last good program; the device keeps forwarding with it.
          // snap.config is the device-visible state: everything before this
          // batch had reached the device.
          enterDegraded(std::move(snap.config), updates);
          fireEpoch(false, false, false, 0);
        }
      } else {
        // Semantics-preserving: the entries are representable on the running
        // program and flow straight through.
        result.deviceCurrent = true;
        cobs.forwarded.add(updates.size());
        deviceVisibleUpdates_.store(committedUpdates(),
                                    std::memory_order_relaxed);
        fireEpoch(true, false, false, lag.elapsedMicros());
      }
    } else {
      // Degraded: forward the batch only if it stays semantics-preserving
      // for the *pinned* program and touches nothing with queued updates
      // (forwarding around the queue would reorder same-object updates).
      bool conflictsWithQueue = false;
      for (const auto& u : updates) {
        conflictsWithQueue |= queuedTargets_.count(u.target) != 0;
      }
      bool forwarded = false;
      if (!conflictsWithQueue) {
        flay::ServiceSnapshot dvSnap = deviceView_->snapshot();
        flay::UpdateVerdict dv = deviceView_->applyBatch(updates);
        if (dv.needsRecompilation) {
          deviceView_->restore(dvSnap);  // device cannot represent it
        } else {
          forwarded = true;
          cobs.forwarded.add(updates.size());
        }
      }
      if (!forwarded) queueUpdates(updates);
      result.deviceCurrent = forwarded;
      if (forwarded) {
        deviceVisibleUpdates_.fetch_add(updates.size(),
                                        std::memory_order_relaxed);
      }
      fireEpoch(forwarded, false, false,
                forwarded ? lag.elapsedMicros() : 0);

      sinceRecoverAttempt_ += updates.size();
      if (options_.tryRecoverEvery != 0 &&
          sinceRecoverAttempt_ >= options_.tryRecoverEvery) {
        sinceRecoverAttempt_ = 0;
        tryRecover();
      }
    }
  } else {
    result.deviceCurrent = true;
    deviceVisibleUpdates_.store(committedUpdates(), std::memory_order_relaxed);
  }

  result.degraded = degraded_;
  maybeCheckpoint();
  return result;
}

BulkApplyResult FaultTolerantController::applyBulk(
    const flay::UpdateSource& source, flay::BulkLoadOptions options) {
  ControllerObs& cobs = ControllerObs::get();
  BulkApplyResult result;
  // The journal and a possible degradation handoff both need the chunk's
  // successfully applied updates.
  bool collectForController = journal_ != nullptr || device_ != nullptr;
  options.collectApplied |= collectForController;
  // Device-visible state before the stream: if the recompile at the end
  // fails, this is what the pinned program still represents.
  std::unique_ptr<runtime::DeviceConfig> preConfig;
  if (device_ != nullptr && !degraded_) {
    preConfig = std::make_unique<runtime::DeviceConfig>(service_->config());
  }
  std::vector<runtime::Update> applied;

  result.report = service_->applyStream(
      source, options, [&](const flay::BulkChunkVerdict& chunk) {
        // The chunk is already applied in memory when this runs; it commits
        // as one journal record, so recovery replays exactly the
        // acknowledged chunks.
        if (journal_ != nullptr && !chunk.appliedUpdates.empty()) {
          journal_->appendBegin(chunk.appliedUpdates.size());
          for (const auto& u : chunk.appliedUpdates) journal_->appendUpdate(u);
          journal_->appendCommit();
        }
        committedUpdates_.fetch_add(chunk.applied, std::memory_order_relaxed);
        sinceCheckpoint_ += chunk.applied;
        cobs.applied.add(chunk.applied);
        journalIfcViolations();
        if (device_ != nullptr) {
          applied.insert(applied.end(), chunk.appliedUpdates.begin(),
                         chunk.appliedUpdates.end());
        }
      });

  // Stream verdicts are complete here; lag runs until device visibility.
  support::Stopwatch lag;
  if (device_ != nullptr) {
    if (!degraded_) {
      if (result.report.needsRecompilation) {
        if (recompileAndInstall(&result.retries)) {
          result.deviceCurrent = true;
          fireEpoch(true, true, false, lag.elapsedMicros());
        } else {
          enterDegraded(std::move(*preConfig), applied);
          fireEpoch(false, false, false, 0);
        }
      } else {
        // Every applied update was verified semantics-preserving: the
        // entries flow straight to the running program.
        result.deviceCurrent = true;
        cobs.forwarded.add(result.report.applied);
        deviceVisibleUpdates_.store(committedUpdates(),
                                    std::memory_order_relaxed);
        fireEpoch(true, false, false, lag.elapsedMicros());
      }
    } else {
      queueUpdates(applied);
      fireEpoch(false, false, false, 0);
      sinceRecoverAttempt_ += applied.size();
      if (options_.tryRecoverEvery != 0 &&
          sinceRecoverAttempt_ >= options_.tryRecoverEvery) {
        sinceRecoverAttempt_ = 0;
        tryRecover();
      }
    }
  } else {
    result.deviceCurrent = true;
    deviceVisibleUpdates_.store(committedUpdates(), std::memory_order_relaxed);
  }
  result.degraded = degraded_;
  maybeCheckpoint();
  return result;
}

BulkApplyResult FaultTolerantController::applyBulk(
    const std::vector<runtime::Update>& updates, flay::BulkLoadOptions options) {
  size_t next = 0;
  return applyBulk(
      [&]() -> std::optional<runtime::Update> {
        if (next >= updates.size()) return std::nullopt;
        return updates[next++];
      },
      std::move(options));
}

bool FaultTolerantController::recompileAndInstall(size_t* retries) {
  ControllerObs& cobs = ControllerObs::get();
  cobs.recompiles.add(1);
  flay::Specializer specializer(*service_, options_.specializer);
  flay::SpecializationResult specialized = specializer.specialize();
  auto checked = std::make_shared<p4::CheckedProgram>(
      flay::recheck(std::move(specialized.program)));

  for (uint32_t attempt = 0; attempt <= options_.maxInstallRetries; ++attempt) {
    if (attempt > 0) {
      *retries += 1;
      cobs.retries.add(1);
      uint64_t delay = backoffMicros(attempt);
      cobs.backoffUs.record(delay);
      if (options_.sleepOnBackoff) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay));
      }
    }
    tofino::CompileResult compiled = device_->compileProgram(*checked);
    if (!compiled.fits) continue;
    InstallResult installed = device_->installProgram(*checked);
    if (!installed.ok) continue;
    pinned_ = std::move(checked);
    // The installed program was specialized against the full committed
    // state, so every committed update is now device-visible.
    deviceVisibleUpdates_.store(committedUpdates(), std::memory_order_relaxed);
    cobs.installsOk.add(1);
    return true;
  }
  return false;
}

void FaultTolerantController::enterDegraded(
    runtime::DeviceConfig deviceCfg,
    const std::vector<runtime::Update>& updates) {
  ControllerObs::get().degradations.add(1);
  degraded_ = true;
  degradedSince_.restart();
  sinceRecoverAttempt_ = 0;
  if (deviceView_ == nullptr) {
    deviceView_ =
        std::make_unique<flay::FlayService>(checked_, options_.flay);
  }
  deviceView_->adoptConfig(std::move(deviceCfg));
  queueUpdates(updates);
}

void FaultTolerantController::queueUpdates(
    const std::vector<runtime::Update>& updates) {
  ControllerObs::get().queued.add(updates.size());
  for (const auto& u : updates) {
    queuedTargets_.insert(u.target);
    queued_.push_back(u);
  }
}

bool FaultTolerantController::tryRecover() {
  if (!degraded_) return true;
  if (device_ == nullptr) return false;
  ControllerObs& cobs = ControllerObs::get();
  cobs.recoveryAttempts.add(1);
  size_t retries = 0;
  if (!recompileAndInstall(&retries)) return false;
  // The freshly installed program was specialized against the full current
  // state, so the migrated config subsumes every queued update — the
  // backlog is cleared, not replayed.
  degraded_ = false;
  queued_.clear();
  queuedTargets_.clear();
  cobs.recoveries.add(1);
  // The recovery lag is the full degraded episode: how long the oldest
  // queued update waited between its verdict and device visibility.
  uint64_t degradedFor = degradedSince_.elapsedMicros();
  cobs.degradedUs.record(degradedFor);
  fireEpoch(/*advanced=*/true, /*viaRecompile=*/true, /*recovery=*/true,
            degradedFor);
  return true;
}

void FaultTolerantController::fireEpoch(bool advanced, bool viaRecompile,
                                        bool recovery, uint64_t lagMicros) {
  if (advanced) ControllerObs::get().installLagUs.record(lagMicros);
  if (!epochCallback_) return;
  EpochEvent event;
  event.committed = committedUpdates();
  event.deviceVisible = deviceVisibleUpdates();
  event.advanced = advanced;
  event.viaRecompile = viaRecompile;
  event.recovery = recovery;
  event.degraded = degraded_;
  event.installLagMicros = lagMicros;
  epochCallback_(event);
}

const runtime::DeviceConfig& FaultTolerantController::deviceConfig() const {
  if (degraded_ && deviceView_ != nullptr) return deviceView_->config();
  return service_->config();
}

const p4::CheckedProgram& FaultTolerantController::deviceProgram() const {
  return pinned_ != nullptr ? *pinned_ : checked_;
}

void FaultTolerantController::checkpointNow() {
  if (journal_ == nullptr) return;
  std::string file = checkpointFileName(journal_->lastSeq());
  Checkpoint::write(options_.stateDir + "/" + file, service_->config(),
                    journal_->lastSeq());
  journal_->appendCheckpoint(file);
  sinceCheckpoint_ = 0;
}

void FaultTolerantController::maybeCheckpoint() {
  if (journal_ == nullptr || options_.checkpointEvery == 0) return;
  if (sinceCheckpoint_ >= options_.checkpointEvery) checkpointNow();
}

uint64_t FaultTolerantController::backoffMicros(uint32_t attempt) {
  uint64_t base = options_.backoffBaseMicros == 0 ? 1 : options_.backoffBaseMicros;
  uint64_t exp = attempt >= 63 ? options_.backoffMaxMicros
                               : base << (attempt - 1);
  uint64_t capped = std::min(exp, options_.backoffMaxMicros);
  std::uniform_int_distribution<uint64_t> jitter(0, base - 1);
  return capped + jitter(jitterRng_);
}

std::string FaultTolerantController::stateDigest() const {
  return service_->stateDigest();
}

}  // namespace flay::controller
