#include "controller/controller.h"

#include <sys/stat.h>
#include <unistd.h>

#include <exception>
#include <stdexcept>

#include "obs/obs.h"
#include "support/backoff.h"

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
  if (device_ != nullptr) {
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
  // it was written, so its text parses and it replays as one batch.
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

  flay::ServiceSnapshot snap = service_->snapshot();
  try {
    result.verdict = service_->applyBatch(updates);
    commit(updates);
  } catch (...) {
    // Strong exception guarantee: the k-th update failing (or the commit
    // record failing to land) rolls back the k-1 already-applied ones. The
    // batch was never journaled, so it never replays.
    service_->restore(snap);
    ControllerObs::get().rollbacks.add(1);
    throw;
  }
  // snap.config is the device-visible state: everything before this batch
  // had reached the device.
  result.deviceCurrent =
      deviceStep(updates, result.verdict.needsRecompilation,
                 std::move(snap.config), &result.retries);
  result.degraded = degraded_;
  return result;
}

BulkApplyResult FaultTolerantController::applyBulk(
    const std::vector<runtime::Update>& updates, flay::BulkLoadOptions options) {
  BulkApplyResult result;
  // Each chunk commits its applied updates, and the device step needs them.
  options.collectApplied = true;
  // Rollback point: the state after the last committed chunk.
  flay::ServiceSnapshot lastCommitted = service_->snapshot();
  // Device-visible state before the stream: if the recompile at the end
  // fails, this is what the pinned program still represents.
  runtime::DeviceConfig before = lastCommitted.config;
  std::vector<runtime::Update> committed;
  bool needsRecompilation = false;
  std::exception_ptr failure;
  try {
    result.report = service_->bulkLoad(
        updates, options, [&](const flay::BulkChunkVerdict& chunk) {
          // The chunk is applied in memory when this runs; it commits like
          // a batch, as one journal record.
          commit(chunk.appliedUpdates);
          committed.insert(committed.end(), chunk.appliedUpdates.begin(),
                           chunk.appliedUpdates.end());
          needsRecompilation |= chunk.verdict.needsRecompilation;
          lastCommitted = service_->snapshot();
        });
  } catch (...) {
    // The failing chunk never committed: undo it. The chunks before it stay
    // committed and still reach the device below.
    service_->restore(lastCommitted);
    ControllerObs::get().rollbacks.add(1);
    failure = std::current_exception();
  }
  result.deviceCurrent =
      committed.empty() ? !degraded_
                        : deviceStep(committed, needsRecompilation,
                                     std::move(before), &result.retries);
  if (failure) std::rethrow_exception(failure);
  result.degraded = degraded_;
  return result;
}

void FaultTolerantController::commit(
    const std::vector<runtime::Update>& updates) {
  // The commit record is durable before the device sees anything, so
  // recovery replays exactly the acknowledged transactions.
  if (journal_ != nullptr && !updates.empty()) {
    journal_->appendBegin(updates.size());
    for (const auto& u : updates) journal_->appendUpdate(u);
    journal_->appendCommit();
  }
  committedUpdates_.fetch_add(updates.size(), std::memory_order_relaxed);
  sinceCheckpoint_ += updates.size();
  ControllerObs::get().applied.add(updates.size());
}

bool FaultTolerantController::deviceStep(
    const std::vector<runtime::Update>& updates, bool needsRecompilation,
    runtime::DeviceConfig before, size_t* retries) {
  ControllerObs& cobs = ControllerObs::get();
  // The verdict is ready here; the lag clock runs until this step becomes
  // device-visible (entries forwarded or a recompiled program installed).
  support::Stopwatch lag;
  bool current = true;
  if (device_ == nullptr) {
    deviceVisibleUpdates_.store(committedUpdates(), std::memory_order_relaxed);
  } else if (!degraded_) {
    if (!needsRecompilation) {
      // Semantics-preserving: the entries are representable on the running
      // program and flow straight through.
      cobs.forwarded.add(updates.size());
      deviceVisibleUpdates_.store(committedUpdates(),
                                  std::memory_order_relaxed);
      fireEpoch(/*advanced=*/true, /*viaRecompile=*/false,
                /*recovery=*/false, lag.elapsedMicros());
    } else if (recompileAndInstall(retries)) {
      fireEpoch(true, true, false, lag.elapsedMicros());
    } else {
      // Pin the last good program; the device keeps forwarding with it.
      enterDegraded(std::move(before), updates);
      fireEpoch(false, false, false, 0);
      current = false;
    }
  } else {
    // Degraded: forward only if the updates stay semantics-preserving for
    // the *pinned* program and touch nothing with queued updates
    // (forwarding around the queue would reorder same-object updates).
    bool conflictsWithQueue = false;
    for (const auto& u : updates) {
      conflictsWithQueue |= queuedTargets_.count(u.target) != 0;
    }
    current = false;
    if (!conflictsWithQueue) {
      flay::ServiceSnapshot dvSnap = deviceView_->snapshot();
      if (deviceView_->applyBatch(updates).needsRecompilation) {
        deviceView_->restore(dvSnap);  // device cannot represent it
      } else {
        current = true;
      }
    }
    if (current) {
      cobs.forwarded.add(updates.size());
      deviceVisibleUpdates_.fetch_add(updates.size(),
                                      std::memory_order_relaxed);
    } else {
      queueUpdates(updates);
    }
    fireEpoch(current, false, false, current ? lag.elapsedMicros() : 0);

    sinceRecoverAttempt_ += updates.size();
    if (options_.tryRecoverEvery != 0 &&
        sinceRecoverAttempt_ >= options_.tryRecoverEvery) {
      sinceRecoverAttempt_ = 0;
      tryRecover();
    }
  }
  maybeCheckpoint();
  return current;
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
      cobs.backoffUs.record(support::backoffMicros(
          options_.backoffBaseMicros, options_.backoffMaxMicros, attempt,
          jitterRng_));
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

std::string FaultTolerantController::stateDigest() const {
  return service_->stateDigest();
}

}  // namespace flay::controller
