// Tests for the multi-device fleet controller: broadcast/drain convergence,
// per-device fault isolation (bounded queues, degraded members), and
// fleet-wide crash recovery — every device's journal replays independently
// and lands on the digest of an uninterrupted run.

#include "fleet/fleet.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/fuzzer.h"
#include "net/workloads.h"
#include "obs/obs.h"

namespace flay::fleet {
namespace {

namespace fs = std::filesystem;

p4::CheckedProgram load(const char* name) {
  return p4::loadProgramFromFile(net::programPath(name));
}

/// Fresh state directory per test; removed on scope exit.
class StateDir {
 public:
  explicit StateDir(const char* tag) {
    path_ = fs::temp_directory_path() /
            (std::string("flay-fleet-") + tag + "-" +
             std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~StateDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

TEST(Fleet, BroadcastDrainConvergesEveryDevice) {
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 16, /*seed=*/1);

  FleetOptions opts;
  opts.devices = 4;
  opts.jobs = 2;
  FleetController fc(checked, opts);
  ASSERT_EQ(fc.deviceCount(), 4u);
  EXPECT_EQ(fc.deviceName(0), "dev0");
  EXPECT_EQ(fc.deviceName(3), "dev3");

  for (const auto& u : script) {
    EXPECT_EQ(fc.broadcast(u), 4u);
  }
  fc.drain();

  std::string first = fc.stateDigest(0);
  for (size_t i = 0; i < fc.deviceCount(); ++i) {
    DeviceStatus s = fc.status(i);
    EXPECT_EQ(s.applied, script.size()) << s.name;
    EXPECT_EQ(s.rejected, 0u) << s.name;
    EXPECT_EQ(s.dropped, 0u) << s.name;
    EXPECT_EQ(s.queued, 0u) << s.name;
    EXPECT_FALSE(s.failed) << s.name;
    EXPECT_EQ(fc.stateDigest(i), first) << s.name;
  }
  EXPECT_EQ(fc.failedDevices(), 0u);
}

// Identical broadcast streams must converge to identical committed state no
// matter what faults each device injects along the way — the controller's
// state digest tracks the committed updates, not the install mishaps.
TEST(Fleet, FaultyDevicesStillConverge) {
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 16, /*seed=*/2);

  FleetOptions opts;
  opts.devices = 4;
  opts.jobs = 2;
  opts.faultPlan = controller::FaultPlan::parse("fail-first=2,flaky=0.2");
  FleetController fc(checked, opts);
  for (const auto& u : script) fc.broadcast(u);
  fc.drain();

  EXPECT_EQ(fc.failedDevices(), 0u);
  std::string first = fc.stateDigest(0);
  for (size_t i = 1; i < fc.deviceCount(); ++i) {
    EXPECT_EQ(fc.stateDigest(i), first) << fc.deviceName(i);
  }
}

TEST(Fleet, BoundedQueueDropsInsteadOfBlocking) {
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 10, /*seed=*/3);

  FleetOptions opts;
  opts.devices = 2;
  opts.queueCapacity = 4;
  FleetController fc(checked, opts);
  size_t accepted = 0;
  for (const auto& u : script) accepted += fc.broadcast(u);
  // Capacity 4 per device: the first 4 broadcasts land everywhere, the
  // remaining 6 are dropped everywhere (and counted), never blocking.
  EXPECT_EQ(accepted, 2u * 4u);
  fc.drain();
  for (size_t i = 0; i < fc.deviceCount(); ++i) {
    DeviceStatus s = fc.status(i);
    EXPECT_EQ(s.applied, 4u) << s.name;
    EXPECT_EQ(s.dropped, 6u) << s.name;
    EXPECT_FALSE(s.failed) << s.name;
  }
}

// A device stuck in a sustained install outage degrades (pinning its last
// good program) but must keep committing updates and must not hold up the
// rest of the fleet.
TEST(Fleet, DegradedDeviceDoesNotStallTheFleet) {
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 16, /*seed=*/4);

  FleetOptions opts;
  opts.devices = 3;
  opts.jobs = 2;
  opts.faultPlan = controller::FaultPlan::parse("outage=1+1000");
  opts.controller.maxInstallRetries = 1;
  opts.controller.sleepOnBackoff = false;
  FleetController fc(checked, opts);
  for (const auto& u : script) fc.broadcast(u);
  fc.drain();

  EXPECT_GE(fc.degradedDevices(), 1u);
  EXPECT_EQ(fc.failedDevices(), 0u);
  obs::Registry& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("fleet.degraded_devices").value(),
            fc.degradedDevices());
  std::string first = fc.stateDigest(0);
  for (size_t i = 0; i < fc.deviceCount(); ++i) {
    DeviceStatus s = fc.status(i);
    EXPECT_EQ(s.applied, script.size()) << s.name;
    EXPECT_EQ(s.queued, 0u) << s.name;
    EXPECT_EQ(fc.stateDigest(i), first) << s.name;
  }
}

TEST(Fleet, StatusOfUnknownDeviceThrows) {
  p4::CheckedProgram checked = load("middleblock");
  FleetOptions opts;
  opts.devices = 1;
  FleetController fc(checked, opts);
  EXPECT_THROW(fc.status(7), std::out_of_range);
  EXPECT_THROW(fc.stateDigest(7), std::out_of_range);
}

// The fleet-wide crash-recovery acceptance check: kill a 5-device fleet in
// the middle of a broadcast stream (destruction with no shutdown work),
// restart over the same state root, finish the stream, and require every
// device digest — and the fleet digest — to match an uninterrupted run.
TEST(Fleet, KillMidStreamRecoversEveryDeviceJournal) {
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 20, /*seed=*/6);
  const size_t kill = script.size() / 2;

  FleetOptions opts;
  opts.devices = 5;
  opts.jobs = 2;
  opts.controller.checkpointEvery = 4;

  // Reference: one uninterrupted run (in-memory; journals are irrelevant).
  std::string wantFleet;
  std::vector<std::string> wantDevice;
  {
    FleetController ref(checked, opts);
    for (const auto& u : script) ref.broadcast(u);
    ref.drain();
    wantFleet = ref.fleetDigest();
    for (size_t i = 0; i < ref.deviceCount(); ++i) {
      wantDevice.push_back(ref.stateDigest(i));
    }
  }

  StateDir root("kill");
  FleetOptions durable = opts;
  durable.stateDirRoot = root.str();
  {
    FleetController fc(checked, durable);
    for (size_t j = 0; j < kill; ++j) fc.broadcast(script[j]);
    fc.drain();
    // Destroyed here with updates still to come and no checkpoint call —
    // the moral equivalent of SIGKILL mid-stream. Durability must come from
    // the per-commit journal fsyncs alone.
  }
  FleetController recovered(checked, durable);
  uint64_t replayed = 0;
  for (size_t i = 0; i < recovered.deviceCount(); ++i) {
    replayed += recovered.status(i).replayed;
  }
  EXPECT_GT(replayed, 0u);
  for (size_t j = kill; j < script.size(); ++j) recovered.broadcast(script[j]);
  recovered.drain();

  ASSERT_EQ(recovered.deviceCount(), wantDevice.size());
  for (size_t i = 0; i < recovered.deviceCount(); ++i) {
    EXPECT_EQ(recovered.stateDigest(i), wantDevice[i])
        << recovered.deviceName(i);
  }
  EXPECT_EQ(recovered.fleetDigest(), wantFleet);
}

// checkpointAll bounds the replay: after a checkpoint, a restart replays
// only the updates committed since.
TEST(Fleet, CheckpointAllBoundsReplay) {
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 12, /*seed=*/7);

  StateDir root("ckpt");
  FleetOptions opts;
  opts.devices = 2;
  opts.stateDirRoot = root.str();
  opts.controller.checkpointEvery = 1000;  // only explicit checkpoints
  std::string want;
  {
    FleetController fc(checked, opts);
    for (const auto& u : script) fc.broadcast(u);
    fc.drain();
    fc.checkpointAll();
    want = fc.fleetDigest();
  }
  FleetController recovered(checked, opts);
  for (size_t i = 0; i < recovered.deviceCount(); ++i) {
    EXPECT_EQ(recovered.status(i).replayed, 0u) << recovered.deviceName(i);
  }
  EXPECT_EQ(recovered.fleetDigest(), want);
}

// The streaming bulk broadcast must land every device on the same digest as
// the queued broadcast/drain path fed the identical stream.
TEST(Fleet, BroadcastBulkConvergesAndMatchesQueuedPath) {
  p4::CheckedProgram checked = load("middleblock");
  auto stream = net::middleblockAclEntries(120);

  FleetOptions opts;
  opts.devices = 3;
  opts.jobs = 2;
  FleetController bulkFc(checked, opts);
  flay::BulkLoadOptions bopts;
  bopts.chunkSize = 32;
  auto res = bulkFc.broadcastBulk(stream, bopts);
  EXPECT_EQ(res.devices, 3u);
  EXPECT_EQ(res.applied, 3 * stream.size());
  EXPECT_EQ(res.rejected, 0u);
  std::string first = bulkFc.stateDigest(0);
  for (size_t i = 1; i < bulkFc.deviceCount(); ++i) {
    EXPECT_EQ(bulkFc.stateDigest(i), first) << bulkFc.deviceName(i);
  }

  FleetController seqFc(checked, opts);
  for (const auto& u : stream) seqFc.broadcast(u);
  seqFc.drain();
  EXPECT_EQ(seqFc.stateDigest(0), first)
      << "bulk and queued paths diverged on identical streams";
}

// Per-device drop accounting: every dropped update lands in that member's
// own fleet.<name>.dropped_updates counter, the drop makes the member lossy
// in convergence() (divergence expected and attributed, not a failure), and
// the fleet digest mixes the loss so a lossy fleet can never alias a clean
// one.
TEST(Fleet, PerDeviceDropCountersMakeConvergenceLossAware) {
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 10, /*seed=*/3);

  FleetOptions opts;
  opts.devices = 2;
  opts.queueCapacity = 4;
  FleetController fc(checked, opts);
  obs::Registry& reg = obs::Registry::global();
  uint64_t dev0Before = reg.counter("fleet.dev0.dropped_updates").value();
  uint64_t dev1Before = reg.counter("fleet.dev1.dropped_updates").value();
  for (const auto& u : script) fc.broadcast(u);
  fc.drain();

  EXPECT_EQ(reg.counter("fleet.dev0.dropped_updates").value(),
            dev0Before + 6);
  EXPECT_EQ(reg.counter("fleet.dev1.dropped_updates").value(),
            dev1Before + 6);

  FleetController::ConvergenceReport conv = fc.convergence();
  EXPECT_FALSE(conv.converged);
  EXPECT_EQ(conv.droppedUpdates, 12u);
  EXPECT_EQ(conv.lossyDevices.size(), 2u);
  EXPECT_TRUE(conv.divergentDevices.empty());
  EXPECT_TRUE(conv.failedDevices.empty());

  // A clean fleet fed the same truncated stream ends with the same state
  // digests but a different *fleet* digest: the loss accounting is mixed in.
  FleetOptions cleanOpts;
  cleanOpts.devices = 2;
  FleetController clean(checked, cleanOpts);
  for (size_t i = 0; i < 4; ++i) clean.broadcast(script[i]);
  clean.drain();
  EXPECT_EQ(clean.stateDigest(0), fc.stateDigest(0));
  EXPECT_NE(clean.fleetDigest(), fc.fleetDigest());
  FleetController::ConvergenceReport cleanConv = clean.convergence();
  EXPECT_TRUE(cleanConv.converged);
  EXPECT_FALSE(cleanConv.digest.empty());
  EXPECT_EQ(cleanConv.droppedUpdates, 0u);
}

// tryRecoverAll: a member degraded by a deterministic outage is re-admitted
// through the exponential-backoff schedule — attempts are counted, the
// backoff histogram records the waits, the attempt counter resets on
// success, and the fleet converges to identical digests afterwards.
TEST(Fleet, TryRecoverAllReadmitsAfterBackoff) {
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 16, /*seed=*/4);

  FleetOptions opts;
  opts.devices = 2;
  opts.jobs = 2;
  // Installs 1..12 fail: every device degrades on its first recompile.
  opts.faultPlan = controller::FaultPlan::parse("outage=1+12");
  opts.controller.maxInstallRetries = 1;
  opts.controller.tryRecoverEvery = 0;  // re-admission only via the fleet
  opts.recovery.backoffBaseMicros = 100;
  opts.recovery.backoffMaxMicros = 1000;
  FleetController fc(checked, opts);
  for (const auto& u : script) fc.broadcast(u);
  fc.drain();
  ASSERT_EQ(fc.degradedDevices(), 2u);

  obs::Registry& reg = obs::Registry::global();
  uint64_t attemptsBefore = reg.counter("fleet.readmission_attempts").value();
  uint64_t readmittedBefore = reg.counter("fleet.readmissions").value();
  uint64_t backoffBefore = reg.histogram("fleet.readmission_backoff_us").count();

  size_t stillDegraded = fc.degradedDevices();
  for (int round = 0; round < 2000 && stillDegraded > 0; ++round) {
    stillDegraded = fc.tryRecoverAll();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_EQ(stillDegraded, 0u);
  uint64_t attempts = reg.counter("fleet.readmission_attempts").value();
  EXPECT_GE(attempts, attemptsBefore + 4)
      << "the 12-install outage cannot clear on the first attempt";
  EXPECT_EQ(reg.counter("fleet.readmissions").value(), readmittedBefore + 2);
  EXPECT_GT(reg.histogram("fleet.readmission_backoff_us").count(),
            backoffBefore);

  std::string first = fc.stateDigest(0);
  for (size_t i = 0; i < fc.deviceCount(); ++i) {
    DeviceStatus s = fc.status(i);
    EXPECT_FALSE(s.degraded) << s.name;
    EXPECT_EQ(s.recoverAttempts, 0u) << s.name << ": reset on success";
    EXPECT_EQ(s.committed, s.deviceVisible) << s.name;
    EXPECT_EQ(fc.stateDigest(i), first) << s.name;
  }
  EXPECT_TRUE(fc.convergence().converged);
}

// maxAttempts bounds re-admission: once a member exhausts its budget the
// fleet stops hammering it (counted once in fleet.readmission_giveups) and
// tryRecoverAll keeps reporting it degraded.
TEST(Fleet, TryRecoverAllGivesUpAfterMaxAttempts) {
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 16, /*seed=*/4);

  FleetOptions opts;
  opts.devices = 1;
  opts.faultPlan = controller::FaultPlan::parse("outage=1+100000");
  opts.controller.maxInstallRetries = 1;
  opts.controller.tryRecoverEvery = 0;
  opts.recovery.backoffBaseMicros = 50;
  opts.recovery.backoffMaxMicros = 200;
  opts.recovery.maxAttempts = 3;
  FleetController fc(checked, opts);
  for (const auto& u : script) fc.broadcast(u);
  fc.drain();
  ASSERT_EQ(fc.degradedDevices(), 1u);

  obs::Registry& reg = obs::Registry::global();
  uint64_t giveupsBefore = reg.counter("fleet.readmission_giveups").value();
  uint64_t attemptsBefore = reg.counter("fleet.readmission_attempts").value();
  for (int round = 0; round < 200; ++round) {
    EXPECT_EQ(fc.tryRecoverAll(), 1u);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  EXPECT_EQ(reg.counter("fleet.readmission_attempts").value(),
            attemptsBefore + 3);
  EXPECT_EQ(reg.counter("fleet.readmission_giveups").value(),
            giveupsBefore + 1);
  EXPECT_EQ(fc.status(0).recoverAttempts, 3u);
}

}  // namespace
}  // namespace flay::fleet
