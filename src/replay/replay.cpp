#include "replay/replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "flay/specializer.h"
#include "obs/obs.h"
#include "sim/interpreter.h"
#include "sim/state.h"
#include "sim/versioned.h"
#include "support/stopwatch.h"

namespace flay::replay {

namespace {

using support::Stopwatch;

struct ReplayObs {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& packets = reg.counter("replay.packets");
  obs::Counter& stalePackets = reg.counter("replay.stale_packets");
  obs::Counter& degradedPackets = reg.counter("replay.degraded_packets");
  obs::Counter& policyDrops = reg.counter("replay.policy_drops");
  obs::Counter& misroutes = reg.counter("replay.misroutes");
  obs::Counter& oracleSamples = reg.counter("replay.oracle_samples");
  obs::Counter& versions = reg.counter("replay.versions_published");
  obs::Counter& postConvStale = reg.counter("replay.post_convergence_stale");
  obs::Histogram& stalenessUpdates = reg.histogram("replay.staleness_updates");
  obs::Histogram& stalenessUs = reg.histogram("replay.staleness_us");
  obs::Histogram& installLagUs = reg.histogram("replay.install_lag_us");
  obs::Histogram& recoveryUs = reg.histogram("replay.recovery_us");

  static ReplayObs& get() {
    static ReplayObs instance;
    return instance;
  }
};

LagStats lagStats(const obs::Histogram& h) {
  LagStats s;
  s.count = h.count();
  s.p50 = h.quantile(0.50);
  s.p95 = h.quantile(0.95);
  s.p99 = h.quantile(0.99);
  s.max = h.max();
  return s;
}

/// A retired version plus the packets it actually served, awaiting the
/// post-hoc oracle replay.
struct PendingVerify {
  std::shared_ptr<const sim::ProgramVersion> version;
  std::vector<sim::Packet> samples;
};

uint64_t mixSeed(uint64_t seed, size_t device, uint64_t sequence) {
  uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (device + 1) + sequence;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  return x;
}

}  // namespace

/// Per-device shared state between the epoch callback (drain worker), the
/// forwarding thread, and the control thread. Single-writer per field; the
/// cross-thread pairs (committed epoch, commit timestamps, converged flag)
/// are atomics with release/acquire pairing on publish/adopt edges.
struct DeviceRuntime {
  sim::VersionedDataPlane plane;
  std::atomic<uint64_t> committed{0};
  /// commitTimes[k] = Stopwatch stamp when the k-th committed update landed
  /// (1-based; sized updates+2). A stale packet's µs-staleness is measured
  /// against the commit time of the first update its version is missing.
  std::unique_ptr<std::atomic<uint64_t>[]> commitTimes;
  uint64_t commitCap = 0;
  std::atomic<bool> converged{false};
  std::atomic<uint64_t> postPackets{0};
  /// Sequence of the version the forwarding thread last served a packet on.
  std::atomic<uint64_t> servedSeq{0};
  /// Sequence of the version published at the latest degradation edge, 0
  /// once the device is healthy again. Written by the epoch callback.
  std::atomic<uint64_t> degradedSeq{0};

  // Epoch-callback-local (serialized per device by the fleet).
  uint64_t lastStamped = 0;
  uint64_t publishSeq = 0;
  bool lastPublishedDegraded = false;

  // Verifier handoff: forwarding thread pushes retired versions, control
  // thread pops and replays them.
  std::mutex vmu;
  std::deque<PendingVerify> verifyQueue;

  // Owned by the forwarding thread until join.
  DeviceReplayStats stats;

  // Owned by the control-thread verifier.
  uint64_t oracleSamples = 0;
  uint64_t misroutes = 0;
  std::string firstMisroute;
};

LiveReplayHarness::LiveReplayHarness(const p4::CheckedProgram& checked,
                                     ReplayOptions options)
    : checked_(checked), options_(std::move(options)) {
  if (options_.devices == 0) options_.devices = 1;
  if (options_.windowPackets == 0) options_.windowPackets = 8192;
  if (options_.oracleSampleEvery == 0) options_.oracleSampleEvery = 1;
  if (options_.oracleSamplesPerVersionMax <
      options_.oracleSamplesPerVersionMin) {
    options_.oracleSamplesPerVersionMax = options_.oracleSamplesPerVersionMin;
  }
  if (options_.drainEvery == 0) options_.drainEvery = 1;
}

ReplayReport LiveReplayHarness::run() {
  ReplayObs& robs = ReplayObs::get();
  // Harness-local histograms so the report's quantiles cover exactly this
  // run even when the process-global registry spans several scenarios.
  obs::Histogram lagHist;
  obs::Histogram staleUpdatesHist;
  obs::Histogram staleUsHist;

  fleet::FleetOptions fopts;
  fopts.devices = options_.devices;
  fopts.jobs = options_.jobs;
  fopts.queueCapacity = options_.queueCapacity;
  fopts.faultPlan = options_.faultPlan;
  fopts.recovery = options_.recovery;
  fopts.controller = options_.controller;
  // Re-admission is the fleet's job here: inline recovery during apply would
  // race the harness's recovery accounting and bypass the backoff policy.
  fopts.controller.tryRecoverEvery = 0;
  fopts.controller.seed = options_.controller.seed + options_.seed;
  fopts.deviceCompiler = options_.deviceCompiler;

  uint64_t attemptsBefore =
      obs::Registry::global().counter("fleet.readmission_attempts").value();
  uint64_t readmissionsBefore =
      obs::Registry::global().counter("fleet.readmissions").value();

  Stopwatch wall;
  fleet::FleetController fc(checked_, fopts);

  std::vector<std::unique_ptr<DeviceRuntime>> runtimes;
  runtimes.reserve(options_.devices);
  for (size_t i = 0; i < options_.devices; ++i) {
    auto rt = std::make_unique<DeviceRuntime>();
    rt->commitCap = options_.updates + 2;
    rt->commitTimes =
        std::make_unique<std::atomic<uint64_t>[]>(rt->commitCap);
    for (uint64_t k = 0; k < rt->commitCap; ++k) {
      rt->commitTimes[k].store(0, std::memory_order_relaxed);
    }
    rt->stats.name = fc.deviceName(i);
    runtimes.push_back(std::move(rt));
  }

  // Version publisher: runs inside the epoch callback, i.e. on the drain
  // worker that just applied this device's updates — reading the
  // controller's device-visible program/config there is race-free.
  auto publishVersion = [&](DeviceRuntime& rt,
                            controller::FaultTolerantController& ctl,
                            bool degraded, bool recovery) {
    sim::ProgramVersion v;
    auto deviceCfg =
        std::make_shared<const runtime::DeviceConfig>(ctl.deviceConfig());
    std::shared_ptr<const p4::CheckedProgram> prog = ctl.pinnedProgram();
    if (prog == nullptr) {
      // Device still runs the original program: one config serves both the
      // interpreter and the oracle's reference side. Non-owning handle —
      // checked_ outlives the harness by contract.
      prog = std::shared_ptr<const p4::CheckedProgram>(
          std::shared_ptr<const p4::CheckedProgram>(), &checked_);
      v.config = deviceCfg;
    } else {
      v.config = std::make_shared<const runtime::DeviceConfig>(
          flay::migrateConfig(*prog, *deviceCfg));
    }
    v.program = std::move(prog);
    v.deviceConfig = std::move(deviceCfg);
    v.epoch = ctl.deviceVisibleUpdates();
    v.sequence = ++rt.publishSeq;
    v.publishedAtMicros = Stopwatch::nowMicros();
    v.degraded = degraded;
    v.recovery = recovery;
    rt.plane.publish(std::move(v));
    robs.versions.add(1);
  };

  for (size_t i = 0; i < options_.devices; ++i) {
    DeviceRuntime& rt = *runtimes[i];
    controller::FaultTolerantController* ctl = &fc.controller(i);
    fc.setEpochCallback(i, [&rt, ctl, &publishVersion, &robs, &lagHist](
                               const controller::EpochEvent& e) {
      // Stamp the newly committed updates, then publish the new committed
      // epoch (release) so a forwarding thread that sees it also sees the
      // stamps it may index.
      uint64_t now = Stopwatch::nowMicros();
      for (uint64_t k = rt.lastStamped + 1;
           k <= e.committed && k < rt.commitCap; ++k) {
        rt.commitTimes[k].store(now, std::memory_order_relaxed);
      }
      rt.lastStamped = std::max(rt.lastStamped, e.committed);
      rt.committed.store(e.committed, std::memory_order_release);
      // Publish on every advance, and on a degradation edge even without
      // one: entering degraded mode re-labels the same pinned program as a
      // degraded version, so packets it serves from now on are counted as
      // degraded-mode service (the ISSUE's degraded-mode probe).
      bool degradedEdge = e.degraded != rt.lastPublishedDegraded;
      if (!e.advanced && !degradedEdge) return;
      publishVersion(rt, *ctl, e.degraded, e.recovery);
      rt.lastPublishedDegraded = e.degraded;
      if (degradedEdge) {
        rt.degradedSeq.store(e.degraded ? rt.publishSeq : 0,
                             std::memory_order_release);
      }
      if (!e.advanced) return;
      lagHist.record(e.installLagMicros);
      robs.installLagUs.record(e.installLagMicros);
      if (e.recovery) {
        rt.stats.recoveries += 1;
        rt.stats.maxRecoveryMicros =
            std::max(rt.stats.maxRecoveryMicros, e.installLagMicros);
        robs.recoveryUs.record(e.installLagMicros);
      }
    });
    // Boot version: the construction-time install happened before the
    // callback existed.
    rt.lastPublishedDegraded = ctl->degraded();
    publishVersion(rt, *ctl, rt.lastPublishedDegraded, false);
  }

  // ---- Forwarding threads ------------------------------------------------
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> totalPackets{0};

  auto forwardLoop = [&](size_t deviceIdx) {
    DeviceRuntime& rt = *runtimes[deviceIdx];
    DeviceReplayStats& st = rt.stats;
    std::shared_ptr<const sim::ProgramVersion> ver;
    std::unique_ptr<sim::DataPlaneState> state;
    std::unique_ptr<sim::Interpreter> interp;
    std::unique_ptr<net::TrafficMixer> mixer;
    std::vector<sim::Packet> samples;
    WindowStats window;
    size_t sinceSample = 0;

    auto retire = [&] {
      if (ver == nullptr) return;
      std::lock_guard<std::mutex> lock(rt.vmu);
      rt.verifyQueue.push_back({std::move(ver), std::move(samples)});
      samples = {};
    };
    auto adopt = [&]() -> bool {
      std::shared_ptr<const sim::ProgramVersion> next = rt.plane.current();
      if (next == nullptr || (ver != nullptr && next == ver)) return false;
      retire();
      ver = std::move(next);
      state = std::make_unique<sim::DataPlaneState>(*ver->program);
      interp = std::make_unique<sim::Interpreter>(*ver->program, *ver->config,
                                                  *state);
      mixer = std::make_unique<net::TrafficMixer>(
          checked_, *ver->deviceConfig, options_.mix,
          mixSeed(options_.seed, deviceIdx, ver->sequence));
      st.versionsAdopted += 1;
      sinceSample = options_.oracleSampleEvery;  // always sample a fresh version
      return true;
    };

    try {
      while (!stop.load(std::memory_order_acquire)) {
        // Read the convergence flag *before* adopting: converged=true
        // (acquire) guarantees the final version's publish is visible to
        // the sequence check below, so a post-convergence packet is always
        // served by the final version.
        bool convergedNow = rt.converged.load(std::memory_order_acquire);
        if (ver == nullptr || rt.plane.sequence() != ver->sequence) {
          if (!adopt() && ver == nullptr) {
            std::this_thread::yield();
            continue;
          }
        }
        sim::Packet packet = mixer->next();
        sim::ExecResult result = interp->process(packet);
        uint64_t now = Stopwatch::nowMicros();

        st.packets += 1;
        window.packets += 1;
        totalPackets.fetch_add(1, std::memory_order_relaxed);
        if (result.dropped) {
          st.policyDrops += 1;
          window.policyDrops += 1;
        }
        if (ver->degraded) {
          st.degradedPackets += 1;
          window.degradedPackets += 1;
        }
        rt.servedSeq.store(ver->sequence, std::memory_order_release);

        uint64_t committed = rt.committed.load(std::memory_order_acquire);
        sim::EpochStamp stamp{ver->epoch, committed};
        if (stamp.stale()) {
          uint64_t staleUpdates = stamp.stalenessUpdates();
          uint64_t firstMissing = std::min(ver->epoch + 1, rt.commitCap - 1);
          uint64_t commitTs =
              rt.commitTimes[firstMissing].load(std::memory_order_relaxed);
          uint64_t staleUs = now > commitTs ? now - commitTs : 0;
          st.stalePackets += 1;
          window.stalePackets += 1;
          st.maxStalenessUpdates =
              std::max(st.maxStalenessUpdates, staleUpdates);
          st.maxStalenessMicros = std::max(st.maxStalenessMicros, staleUs);
          window.maxStalenessUpdates =
              std::max(window.maxStalenessUpdates, staleUpdates);
          window.maxStalenessMicros =
              std::max(window.maxStalenessMicros, staleUs);
          staleUpdatesHist.record(staleUpdates);
          staleUsHist.record(staleUs);
          robs.stalenessUpdates.record(staleUpdates);
          robs.stalenessUs.record(staleUs);
          if (convergedNow) st.postConvergenceStale += 1;
        }
        if (convergedNow) {
          st.postConvergencePackets += 1;
          rt.postPackets.fetch_add(1, std::memory_order_relaxed);
        }

        if (samples.size() < options_.oracleSamplesPerVersionMax &&
            (samples.size() < options_.oracleSamplesPerVersionMin ||
             ++sinceSample >= options_.oracleSampleEvery)) {
          samples.push_back(packet);
          sinceSample = 0;
        }
        if (window.packets >= options_.windowPackets) {
          st.windows.push_back(window);
          window = WindowStats{};
        }
      }
    } catch (const std::exception& e) {
      st.forwardingError = e.what();
    }
    if (window.packets != 0) st.windows.push_back(window);
    retire();
  };

  // ---- Post-hoc oracle verifier -----------------------------------------
  // Replays every retired version's sampled packets through the original
  // program under the device-visible config versus the installed
  // specialization under its migrated config — both from fresh extern state,
  // in sample order. Any forwarding-visible difference is a misroute. This
  // is the degradation invariant measured on the packets the device really
  // served, independent of churn timing.
  auto verifyPending = [&](size_t deviceIdx, size_t maxVersions) {
    DeviceRuntime& rt = *runtimes[deviceIdx];
    size_t done = 0;
    while (done < maxVersions) {
      PendingVerify pending;
      {
        std::lock_guard<std::mutex> lock(rt.vmu);
        if (rt.verifyQueue.empty()) return;
        pending = std::move(rt.verifyQueue.front());
        rt.verifyQueue.pop_front();
      }
      ++done;
      if (pending.samples.empty()) continue;
      const sim::ProgramVersion& v = *pending.version;
      sim::DataPlaneState origState(checked_);
      sim::DataPlaneState specState(*v.program);
      sim::Interpreter orig(checked_, *v.deviceConfig, origState);
      sim::Interpreter spec(*v.program, *v.config, specState);
      for (const sim::Packet& packet : pending.samples) {
        rt.oracleSamples += 1;
        robs.oracleSamples.add(1);
        sim::ExecResult a = orig.process(packet);
        sim::ExecResult b = spec.process(packet);
        const char* aspect = nullptr;
        if (a.parserAccepted != b.parserAccepted) aspect = "parserAccepted";
        else if (a.dropped != b.dropped) aspect = "dropped";
        else if (!a.dropped && a.egressPort != b.egressPort) aspect = "egressPort";
        else if (a.outputBytes != b.outputBytes) aspect = "outputBytes";
        if (aspect != nullptr) {
          rt.misroutes += 1;
          robs.misroutes.add(1);
          if (rt.firstMisroute.empty()) {
            rt.firstMisroute = rt.stats.name + " version seq " +
                               std::to_string(v.sequence) + " epoch " +
                               std::to_string(v.epoch) + ": " + aspect +
                               " diverged";
          }
        }
      }
    }
  };

  // Re-admission waits until every degraded device has served a packet on
  // the version published when it degraded, so each degraded episode is
  // observed by the data plane however quickly the device recovers. The
  // wait is bounded in case a forwarding thread has stopped.
  auto awaitDegradedService = [&] {
    constexpr auto kMaxWait = std::chrono::seconds(2);
    auto deadline = std::chrono::steady_clock::now() + kMaxWait;
    for (const auto& rt : runtimes) {
      for (;;) {
        uint64_t edge = rt->degradedSeq.load(std::memory_order_acquire);
        if (edge == 0 ||
            rt->servedSeq.load(std::memory_order_acquire) >= edge ||
            std::chrono::steady_clock::now() >= deadline) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  };

  std::vector<std::thread> forwarders;
  forwarders.reserve(options_.devices);
  for (size_t i = 0; i < options_.devices; ++i) {
    forwarders.emplace_back(forwardLoop, i);
  }

  // ---- Control thread: churn + faults + recovery ------------------------
  std::vector<runtime::Update> script =
      net::fuzzUpdateSequence(checked_, options_.updates, options_.seed);
  double intervalUs =
      options_.churnRate > 0 ? 1e6 / options_.churnRate : 0.0;
  uint64_t nextBroadcastAt = Stopwatch::nowMicros();
  size_t sinceDrain = 0;
  for (const runtime::Update& update : script) {
    if (intervalUs > 0) {
      uint64_t now = Stopwatch::nowMicros();
      if (now < nextBroadcastAt) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(nextBroadcastAt - now));
      }
      nextBroadcastAt += static_cast<uint64_t>(intervalUs);
    }
    fc.broadcast(update);
    if (++sinceDrain >= options_.drainEvery) {
      sinceDrain = 0;
      fc.drain();
      awaitDegradedService();
      fc.tryRecoverAll();
      // Keep verification (and its version memory) flowing with the churn.
      for (size_t i = 0; i < options_.devices; ++i) verifyPending(i, 8);
    }
  }
  fc.drain();

  // Quarantine re-admission until the whole fleet converged (or the round
  // budget ran out — the gate below will say so).
  size_t rounds = 0;
  while (fc.degradedDevices() > 0 && rounds < options_.maxRecoveryRounds) {
    ++rounds;
    awaitDegradedService();
    if (fc.tryRecoverAll() == 0) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  fc.drain();

  // Convergence declaration, per device: healthy, nothing queued, and every
  // committed update device-visible. Release so the forwarding thread's
  // acquire also sees the final published version.
  bool fleetConverged = true;
  std::vector<bool> deviceConverged(options_.devices, false);
  for (size_t i = 0; i < options_.devices; ++i) {
    fleet::DeviceStatus s = fc.status(i);
    bool conv = !s.failed && !s.degraded && s.queued == 0 &&
                s.committed == s.deviceVisible;
    deviceConverged[i] = conv;
    if (conv) {
      runtimes[i]->converged.store(true, std::memory_order_release);
    } else {
      fleetConverged = false;
    }
  }

  // Cooldown: every converged device forwards cooldownPackets more (these
  // gate staleness == 0), and the fleet-wide packet floor is met.
  for (;;) {
    bool cooled = true;
    for (size_t i = 0; i < options_.devices; ++i) {
      if (!deviceConverged[i]) continue;
      if (runtimes[i]->postPackets.load(std::memory_order_relaxed) <
          options_.cooldownPackets) {
        cooled = false;
        break;
      }
    }
    if (cooled &&
        totalPackets.load(std::memory_order_relaxed) >= options_.packets) {
      break;
    }
    // Drain verification backlog while waiting.
    for (size_t i = 0; i < options_.devices; ++i) verifyPending(i, 4);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : forwarders) t.join();

  // Forwarders flushed their last in-flight version on exit; verify all.
  for (size_t i = 0; i < options_.devices; ++i) {
    verifyPending(i, static_cast<size_t>(-1));
  }

  // ---- Report ------------------------------------------------------------
  ReplayReport report;
  report.wallMicros = wall.elapsedMicros();
  report.updatesBroadcast = script.size();
  report.fleetConverged = fleetConverged;
  for (size_t i = 0; i < options_.devices; ++i) {
    DeviceRuntime& rt = *runtimes[i];
    DeviceReplayStats st = std::move(rt.stats);
    fleet::DeviceStatus s = fc.status(i);
    st.converged = deviceConverged[i];
    st.failed = s.failed;
    st.committed = s.committed;
    st.deviceVisible = s.deviceVisible;
    st.droppedUpdates = s.dropped;
    st.readmissionAttempts = s.recoverAttempts;
    st.oracleSamples = rt.oracleSamples;
    st.misroutes = rt.misroutes;
    st.firstMisroute = rt.firstMisroute;

    report.totalPackets += st.packets;
    report.stalePackets += st.stalePackets;
    report.maxStalenessUpdates =
        std::max(report.maxStalenessUpdates, st.maxStalenessUpdates);
    report.maxStalenessMicros =
        std::max(report.maxStalenessMicros, st.maxStalenessMicros);
    report.degradedPackets += st.degradedPackets;
    report.policyDrops += st.policyDrops;
    report.misroutes += st.misroutes;
    report.oracleSamples += st.oracleSamples;
    report.droppedUpdates += st.droppedUpdates;
    report.postConvergenceStale += st.postConvergenceStale;
    report.recoveries += st.recoveries;
    report.maxRecoveryMicros =
        std::max(report.maxRecoveryMicros, st.maxRecoveryMicros);

    if (!st.forwardingError.empty()) {
      report.gateFailures.push_back(st.name + ": forwarding error: " +
                                    st.forwardingError);
    }
    if (st.misroutes != 0) {
      report.gateFailures.push_back(st.name + ": " +
                                    std::to_string(st.misroutes) +
                                    " oracle misroute(s): " + st.firstMisroute);
    }
    if (!st.failed && !st.converged) {
      report.gateFailures.push_back(st.name + ": not converged after churn (" +
                                    std::to_string(s.committed - s.deviceVisible) +
                                    " update(s) backlogged)");
    }
    if (st.failed) {
      report.gateFailures.push_back(st.name + ": quarantined (failed)");
    }
    if (st.postConvergenceStale != 0) {
      report.gateFailures.push_back(
          st.name + ": " + std::to_string(st.postConvergenceStale) +
          " stale packet(s) after convergence (unbounded staleness)");
    }
    report.devices.push_back(std::move(st));
  }
  report.readmissionAttempts =
      obs::Registry::global().counter("fleet.readmission_attempts").value() -
      attemptsBefore;
  report.readmissions =
      obs::Registry::global().counter("fleet.readmissions").value() -
      readmissionsBefore;
  report.installLagUs = lagStats(lagHist);
  report.stalenessUpdates = lagStats(staleUpdatesHist);
  report.stalenessUs = lagStats(staleUsHist);
  report.packetsPerSecond =
      report.wallMicros > 0
          ? report.totalPackets * 1e6 / static_cast<double>(report.wallMicros)
          : 0.0;
  report.ok = report.gateFailures.empty();

  robs.packets.add(report.totalPackets);
  robs.stalePackets.add(report.stalePackets);
  robs.degradedPackets.add(report.degradedPackets);
  robs.policyDrops.add(report.policyDrops);
  robs.postConvStale.add(report.postConvergenceStale);
  return report;
}

std::vector<std::pair<std::string, double>> reportMetrics(
    const ReplayReport& report) {
  std::vector<std::pair<std::string, double>> m;
  auto add = [&](const std::string& k, double v) { m.emplace_back(k, v); };
  add("ok", report.ok ? 1 : 0);
  add("devices", static_cast<double>(report.devices.size()));
  add("packets", static_cast<double>(report.totalPackets));
  add("packets_per_sec", report.packetsPerSecond);
  add("updates_broadcast", static_cast<double>(report.updatesBroadcast));
  add("wall_us", static_cast<double>(report.wallMicros));
  add("stale_packets", static_cast<double>(report.stalePackets));
  add("stale_fraction",
      report.totalPackets > 0
          ? static_cast<double>(report.stalePackets) / report.totalPackets
          : 0);
  add("max_staleness_updates",
      static_cast<double>(report.maxStalenessUpdates));
  add("max_staleness_us", static_cast<double>(report.maxStalenessMicros));
  add("staleness_updates_p99", static_cast<double>(report.stalenessUpdates.p99));
  add("staleness_us_p99", static_cast<double>(report.stalenessUs.p99));
  add("install_lag_us_p50", static_cast<double>(report.installLagUs.p50));
  add("install_lag_us_p99", static_cast<double>(report.installLagUs.p99));
  add("install_lag_us_max", static_cast<double>(report.installLagUs.max));
  add("degraded_packets", static_cast<double>(report.degradedPackets));
  add("policy_drops", static_cast<double>(report.policyDrops));
  add("dropped_updates", static_cast<double>(report.droppedUpdates));
  add("oracle_samples", static_cast<double>(report.oracleSamples));
  add("misroutes", static_cast<double>(report.misroutes));
  add("post_convergence_stale",
      static_cast<double>(report.postConvergenceStale));
  add("converged", report.fleetConverged ? 1 : 0);
  add("recoveries", static_cast<double>(report.recoveries));
  add("max_recovery_us", static_cast<double>(report.maxRecoveryMicros));
  add("readmission_attempts",
      static_cast<double>(report.readmissionAttempts));
  add("readmissions", static_cast<double>(report.readmissions));
  // Per-window series, capped at 64 rows per device to keep the JSON
  // bounded; the cap drops only *rows*, never the aggregate accounting
  // above, and the drop is explicit in windows_reported vs windows_total.
  for (const DeviceReplayStats& d : report.devices) {
    std::string prefix = "window." + d.name + ".";
    add(prefix + "windows_total", static_cast<double>(d.windows.size()));
    size_t step = d.windows.size() > 64 ? (d.windows.size() + 63) / 64 : 1;
    size_t reported = 0;
    for (size_t w = 0; w < d.windows.size(); w += step) {
      const WindowStats& win = d.windows[w];
      std::string at = prefix + std::to_string(w) + ".";
      add(at + "stale", static_cast<double>(win.stalePackets));
      add(at + "max_staleness_updates",
          static_cast<double>(win.maxStalenessUpdates));
      add(at + "max_staleness_us",
          static_cast<double>(win.maxStalenessMicros));
      add(at + "degraded", static_cast<double>(win.degradedPackets));
      ++reported;
    }
    add(prefix + "windows_reported", static_cast<double>(reported));
  }
  return m;
}

std::string describeReport(const ReplayReport& report) {
  std::string out;
  auto line = [&](std::string s) { out += s + "\n"; };
  line("replay: " + std::to_string(report.totalPackets) + " packet(s) over " +
       std::to_string(report.devices.size()) + " device(s), " +
       std::to_string(report.updatesBroadcast) + " update(s) broadcast, " +
       std::to_string(report.wallMicros / 1000) + " ms (" +
       std::to_string(static_cast<uint64_t>(report.packetsPerSecond)) +
       " pkt/s)");
  for (const DeviceReplayStats& d : report.devices) {
    line("  " + d.name + ": packets=" + std::to_string(d.packets) +
         " stale=" + std::to_string(d.stalePackets) +
         " max-staleness=" + std::to_string(d.maxStalenessUpdates) +
         "upd/" + std::to_string(d.maxStalenessMicros) + "us" +
         " degraded-pkts=" + std::to_string(d.degradedPackets) +
         " versions=" + std::to_string(d.versionsAdopted) +
         " oracle=" + std::to_string(d.oracleSamples) + "/" +
         std::to_string(d.misroutes) + " misroute(s)" +
         " recoveries=" + std::to_string(d.recoveries) +
         (d.converged ? "" : " NOT-CONVERGED") + (d.failed ? " FAILED" : ""));
  }
  line("  install-lag: p50=" + std::to_string(report.installLagUs.p50) +
       "us p99=" + std::to_string(report.installLagUs.p99) +
       "us max=" + std::to_string(report.installLagUs.max) + "us; " +
       "re-admission: " + std::to_string(report.readmissions) + "/" +
       std::to_string(report.readmissionAttempts) + " attempt(s); " +
       "dropped-updates=" + std::to_string(report.droppedUpdates) +
       " post-convergence-stale=" + std::to_string(report.postConvergenceStale));
  for (const std::string& g : report.gateFailures) line("  GATE: " + g);
  return out;
}

}  // namespace flay::replay
