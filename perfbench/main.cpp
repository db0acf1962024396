// Update-to-forward benchmark driver: one process, one thread, closed loop.
//
// Each timed step generates one control-plane update and the packets that
// follow it, then (on the clock) submits the update to
// FaultTolerantController::apply, adopts the device-visible version the way
// replay::LiveReplayHarness publishes it (config copy + migrateConfig + a
// fresh sim::Interpreter) and forwards the packets on it. Sampled packets are
// replayed original-vs-specialized off the clock. With --trace 1 the run is
// repeated with the same seed and update count, recording one span per
// public call plus shadow calls fed the same updates, and both runs must end
// in the same controller state digest.
//
// Writes raw samples and counts as JSON to --out; perfbench/run.py turns them
// into the metrics (see perfbench/README.md).
//
//   perfbench --workload churn_switch --seed 1 --seconds 15 --trace 0
//       --out raw.json --state-dir state [--trace-out trace.json]
//       [--updates N]

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "controller/device.h"
#include "controller/wal.h"
#include "expr/analysis.h"
#include "flay/encoder.h"
#include "flay/engine.h"
#include "flay/specializer.h"
#include "net/mix.h"
#include "net/workloads.h"
#include "obs/obs.h"
#include "oracle/oracle.h"
#include "p4/typecheck.h"
#include "sim/interpreter.h"
#include "sim/state.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace flay;
namespace core = ::flay::flay;
using perfbench::nowNs;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;
using perfbench::Track;
using perfbench::UpdateGenerator;
using perfbench::WorkloadKind;
using perfbench::WorkloadSpec;

/// A run with fewer timed updates cannot support a p99 with ten samples
/// beyond it.
constexpr size_t kMinUpdates = 1000;
/// Oracle sampling: every N-th version, its first packet plus every M-th.
constexpr size_t kOracleVersionEvery = 4;
constexpr size_t kOraclePacketEvery = 64;
/// Packets that are not fresh are drawn from those generated for the last
/// this many updates.
constexpr size_t kRingUpdates = 64;
/// setup_s is the median of this many set-ups.
constexpr size_t kSetups = 5;

/// Registry counters reported as per-layer counts (deltas over the timed
/// phase of the untraced run).
const std::vector<const char*> kCounters = {
    "cache.hits",        "cache.misses",
    "sat.queries",       "sat.conflicts",
    "smt.witness_verdicts", "smt.remembered_constants",
    "smt.incremental_fallbacks",
};

struct Args {
  WorkloadKind kind = WorkloadKind::kChurnSwitch;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t updates = 0;  // timed updates; 0 = derived from --seconds
  size_t setups = kSetups;  // a short test run (--updates) sets up once
  std::string out;
  std::string traceOut;
  std::string stateDir;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

uint64_t parseUint(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  unsigned long long x = std::strtoull(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0') usage(flag + " needs a whole number");
  return x;
}

Args parseArgs(int argc, char** argv) {
  Args a;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    std::string v = argv[++i];
    if (flag == "--workload") {
      auto k = perfbench::parseWorkload(v);
      if (!k) usage("unknown workload '" + v + "'");
      a.kind = *k;
      haveWorkload = true;
    } else if (flag == "--seed") {
      a.seed = parseUint(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parseUint(flag, v));
    } else if (flag == "--trace") {
      a.trace = parseUint(flag, v) != 0;
    } else if (flag == "--updates") {
      a.updates = parseUint(flag, v);
      a.setups = 1;
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--trace-out") {
      a.traceOut = v;
    } else if (flag == "--state-dir") {
      a.stateDir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!haveWorkload) usage("--workload is required");
  if (a.updates == 0) {
    // A fixed amount of work, not a deadline: every commit measures the same
    // updates, and state size (hence memory) does not depend on speed.
    a.updates = std::max(
        kMinUpdates,
        static_cast<size_t>(a.seconds *
                            perfbench::workloadSpec(a.kind).updatesPerSecond));
  }
  if (a.out.empty() || a.stateDir.empty()) {
    usage("--out and --state-dir are required");
  }
  return a;
}

uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The controller's Device, timed from outside: compile and install are
/// spans on the critical path of the update being applied.
class TimedDevice : public controller::Device {
 public:
  TimedDevice(SpanRecorder& rec, const uint32_t& update,
              const tofino::PipelineModel& pipeline)
      : rec_(rec), update_(update), inner_({}, pipeline) {}

  tofino::CompileResult compileProgram(
      const p4::CheckedProgram& checked) override {
    ScopedSpan span(rec_, "tofino.compile", update_);
    return inner_.compileProgram(checked);
  }
  controller::InstallResult installProgram(
      const p4::CheckedProgram& checked) override {
    ScopedSpan span(rec_, "controller.install", update_);
    return inner_.installProgram(checked);
  }

 private:
  SpanRecorder& rec_;
  const uint32_t& update_;
  controller::SimulatedDevice inner_;
};

/// One device-visible version, adopted the way the replay harness publishes
/// it: a copy of the device-visible config, the config migrated onto the
/// pinned specialized program, and an interpreter over fresh extern state.
struct Version {
  std::shared_ptr<const p4::CheckedProgram> program;
  std::shared_ptr<const runtime::DeviceConfig> deviceConfig;
  std::shared_ptr<const runtime::DeviceConfig> config;
  std::unique_ptr<sim::DataPlaneState> state;
  std::unique_ptr<sim::Interpreter> interp;
  uint64_t sequence = 0;
};

Version adopt(const controller::FaultTolerantController& ctl,
              const p4::CheckedProgram& original, uint64_t sequence,
              SpanRecorder& rec, uint32_t update) {
  Version v;
  v.sequence = sequence;
  v.deviceConfig =
      std::make_shared<const runtime::DeviceConfig>(ctl.deviceConfig());
  v.program = ctl.pinnedProgram();
  if (v.program == nullptr) {
    // Still the original program: non-owning handle, it outlives the run.
    v.program = std::shared_ptr<const p4::CheckedProgram>(
        std::shared_ptr<const p4::CheckedProgram>(), &original);
    v.config = v.deviceConfig;
  } else {
    ScopedSpan span(rec, "flay.migrate", update);
    v.config = std::make_shared<const runtime::DeviceConfig>(
        core::migrateConfig(*v.program, *v.deviceConfig));
  }
  v.state = std::make_unique<sim::DataPlaneState>(*v.program);
  v.interp =
      std::make_unique<sim::Interpreter>(*v.program, *v.config, *v.state);
  return v;
}

/// A set-up controller ready for the first timed update.
struct Instance {
  std::unique_ptr<p4::CheckedProgram> checked;
  std::unique_ptr<UpdateGenerator> gen;
  std::vector<runtime::Update> preload;
  std::unique_ptr<TimedDevice> device;
  std::unique_ptr<controller::FaultTolerantController> ctl;
  controller::BulkApplyResult bulk;
  uint64_t bulkNs = 0;
  uint64_t setupNs = 0;  // excluding generator time
  Version version;
};

std::unique_ptr<Instance> setUp(const Args& args, const std::string& stateDir,
                                SpanRecorder& rec, const uint32_t& update) {
  auto in = std::make_unique<Instance>();
  WorkloadSpec spec = perfbench::workloadSpec(args.kind);
  uint64_t t0 = nowNs();
  in->checked = std::make_unique<p4::CheckedProgram>(
      p4::loadProgramFromFile(net::programPath(spec.program)));
  uint64_t g0 = nowNs();
  in->gen = std::make_unique<UpdateGenerator>(*in->checked, args.kind,
                                              args.seed);
  in->preload = in->gen->preload();
  uint64_t genNs = nowNs() - g0;

  std::filesystem::remove_all(stateDir);
  controller::ControllerOptions copts;
  copts.stateDir = stateDir;
  // Every journal record is still written and fsync'd. Periodic checkpoints
  // (the whole config plus an fsync every 64 updates) are off: on a shared
  // disk they made update_to_forward_p99 a measure of disk contention.
  copts.checkpointEvery = 0;
  in->device = std::make_unique<TimedDevice>(rec, update, spec.pipeline);
  in->ctl = std::make_unique<controller::FaultTolerantController>(
      *in->checked, in->device.get(), copts);
  uint64_t b0 = nowNs();
  in->bulk = in->ctl->applyBulk(in->preload);
  in->bulkNs = nowNs() - b0;
  in->version = adopt(*in->ctl, *in->checked, 0, rec, update);
  in->setupNs = nowNs() - t0 - genNs;
  return in;
}

/// Shadow copies of the layers the controller calls internally, fed the
/// same updates in the traced run only, so those layers get their own spans
/// without instrumenting the product. Their spans sit on the shadow track,
/// off the critical path.
class Shadow {
 public:
  Shadow(const Instance& in, const std::string& journalPath, SpanRecorder& rec)
      : rec_(rec),
        service_(*in.checked, kOptions.flay),
        encodeService_(*in.checked, kOptions.flay),
        config_(*in.checked),
        journal_(journalPath),
        encoder_(encodeService_.arena(), encodeService_.analysis(),
                 kOptions.flay.encoder) {
    service_.bulkLoad(in.preload);
    encodeService_.bulkLoad(in.preload);
    for (const runtime::Update& u : in.preload) config_.apply(u);
    journal_.open();
    buildEncodeClosures();
  }

  void apply(const runtime::Update& u, uint32_t id, bool recompiled) {
    ScopedSpan root(rec_, "shadow", id, Track::kShadow);
    {
      ScopedSpan s(rec_, "runtime.config_apply", id, Track::kShadow);
      config_.apply(u);
    }
    {
      ScopedSpan s(rec_, "controller.journal", id, Track::kShadow);
      journal_.appendBegin(1);
      journal_.appendUpdate(u);
      journal_.appendCommit();
    }
    auto closure = encodeClosure_.find(u.target);
    if (closure != encodeClosure_.end()) {
      {
        // encodeService_ has not seen `u` yet, so new chains are interned
        // cold, as inside the controller's analysis.
        ScopedSpan s(rec_, "flay.encode", id, Track::kShadow);
        for (const core::TableInfo* info : closure->second) {
          encoder_.encodeTable(*info, config_.table(info->qualified), config_);
        }
      }
      ScopedSpan s(rec_, "runtime.normalize", id, Track::kShadow);
      config_.table(u.target).normalizedEntries();
    }
    encodeService_.applyUpdate(u);
    {
      ScopedSpan s(rec_, "flay.analyze", id, Track::kShadow);
      service_.applyUpdate(u);
    }
    if (recompiled) {
      std::optional<core::SpecializationResult> spec;
      {
        ScopedSpan s(rec_, "flay.specialize", id, Track::kShadow);
        spec = core::Specializer(service_, kOptions.specializer).specialize();
      }
      ScopedSpan s(rec_, "flay.recheck", id, Track::kShadow);
      core::recheck(std::move(spec->program));
    }
  }

 private:
  /// Per table: itself plus every table whose key mentions its symbols,
  /// transitively, in program order. The service re-encodes this closure
  /// when the table changes; the shadow encode span covers the same work.
  void buildEncodeClosures() {
    const core::AnalysisResult& a = encodeService_.analysis();
    std::map<std::string, std::set<std::string>> dependents;
    for (const core::TableInfo& info : a.tables) {
      for (expr::ExprRef k : info.keyExprs) {
        for (uint32_t sym : expr::collectSymbols(
                 encodeService_.arena(), k, expr::SymbolClass::kControlPlane)) {
          auto owner = a.symbolOwner.find(sym);
          if (owner != a.symbolOwner.end() && owner->second != info.qualified) {
            dependents[owner->second].insert(info.qualified);
          }
        }
      }
    }
    for (const core::TableInfo& info : a.tables) {
      std::set<std::string> seen = {info.qualified};
      std::vector<std::string> stack = {info.qualified};
      while (!stack.empty()) {
        std::string object = stack.back();
        stack.pop_back();
        for (const std::string& d : dependents[object]) {
          if (seen.insert(d).second) stack.push_back(d);
        }
      }
      for (const core::TableInfo& t : a.tables) {
        if (seen.count(t.qualified) != 0) {
          encodeClosure_[info.qualified].push_back(&t);
        }
      }
    }
  }

  inline static const controller::ControllerOptions kOptions{};
  SpanRecorder& rec_;
  core::FlayService service_;
  core::FlayService encodeService_;
  runtime::DeviceConfig config_;
  controller::Journal journal_;
  core::ControlPlaneEncoder encoder_;
  std::map<std::string, std::vector<const core::TableInfo*>> encodeClosure_;
};

struct PhaseResult {
  std::vector<uint64_t> updateToForwardNs;
  uint64_t updates = 0;
  uint64_t failedUpdates = 0;
  uint64_t packets = 0;
  uint64_t failedPackets = 0;
  uint64_t policyDrops = 0;
  uint64_t recompiles = 0;
  uint64_t oracleSamples = 0;
  uint64_t wallNs = 0;
  uint64_t genNs = 0;
  uint64_t verifyNs = 0;
  uint64_t shadowNs = 0;
  uint64_t processNs = 0;
  std::map<std::string, uint64_t> counters;
  std::string digest;
  size_t arenaNodes = 0;
  std::map<std::string, size_t> shape;
  /// The first few failures, for the report.
  std::vector<std::string> errors;

  void fail(std::string what) {
    if (errors.size() < 16) errors.push_back(std::move(what));
  }
};

/// Forwarding-visible difference between the original program under the
/// device-visible config and the installed specialization, or nullptr.
const char* divergence(const sim::ExecResult& a, const sim::ExecResult& b) {
  if (a.parserAccepted != b.parserAccepted) return "parserAccepted";
  if (a.dropped != b.dropped) return "dropped";
  if (!a.dropped && a.egressPort != b.egressPort) return "egressPort";
  if (a.outputBytes != b.outputBytes) return "outputBytes";
  return nullptr;
}

PhaseResult runPhase(const Args& args, Instance& in, SpanRecorder& rec,
                     uint32_t& currentUpdate, Shadow* shadow) {
  WorkloadSpec spec = perfbench::workloadSpec(args.kind);
  obs::Registry& reg = obs::Registry::global();
  PhaseResult r;
  std::map<std::string, uint64_t> before;
  for (const char* c : kCounters) before[c] = reg.counter(c).value();

  controller::EpochEvent lastEvent;
  bool fired = false;
  in.ctl->setEpochCallback([&](const controller::EpochEvent& e) {
    lastEvent = e;
    fired = true;
  });
  // Each update forwards its fresh packets first, generated against the
  // config it left by a new mixer (the replay harness builds one per
  // version), so packets steer onto entries the updates insert. The rest are
  // drawn from a ring of the packets generated for recent updates, because
  // generating a packet scans every installed entry. Generation is off the
  // clock, counted as generator time.
  const size_t ringSize = kRingUpdates * spec.freshPacketsPerUpdate;
  std::vector<sim::Packet> ring;
  size_t ringWrite = 0;
  size_t ringRead = 0;
  std::vector<sim::Packet> packets;
  auto generate = [&](uint64_t salt, size_t n) {
    net::TrafficMixer mixer(*in.checked, in.gen->config(), spec.mix,
                            mix64(args.seed ^ mix64(salt)));
    for (size_t i = 0; i < n; ++i) {
      packets.push_back(mixer.next());
      if (ring.size() < ringSize) {
        ring.push_back(packets.back());
      } else {
        ring[ringWrite++ % ringSize] = packets.back();
      }
    }
  };
  generate(0, ringSize);  // fills the ring from the set-up config

  const uint64_t start = nowNs();
  while (r.updates < args.updates) {
    const uint32_t id = ++currentUpdate;
    uint64_t g0 = nowNs();
    runtime::Update update = in.gen->next();
    packets.clear();
    generate(id, spec.freshPacketsPerUpdate);
    while (packets.size() < spec.packetsPerUpdate) {
      packets.push_back(ring[ringRead++ % ringSize]);
    }
    r.genNs += nowNs() - g0;

    // ---- critical path: submit -> device-visible -> first packet out ----
    fired = false;
    r.updates += 1;
    bool ok = true;
    const uint64_t t0 = nowNs();
    int32_t root = rec.begin("update", id);
    {
      ScopedSpan s(rec, "controller.apply", id);
      try {
        in.ctl->apply(update);
      } catch (const std::exception& e) {
        ok = false;
        r.fail(std::string("apply: ") + e.what());
      }
    }
    if (ok && fired && lastEvent.advanced && !lastEvent.degraded) {
      ScopedSpan s(rec, "epoch.adopt", id);
      in.version = adopt(*in.ctl, *in.checked, in.version.sequence + 1, rec, id);
    } else if (ok) {
      ok = false;
      r.fail("update " + std::to_string(id) + " did not become device-visible");
    }
    const uint64_t c1 = nowNs();
    auto forward = [&](size_t i) {
      try {
        if (in.version.interp->process(packets[i]).dropped) {
          r.policyDrops += 1;
        }
      } catch (const std::exception& e) {
        r.failedPackets += 1;
        r.fail(std::string("forward: ") + e.what());
      }
    };
    {
      ScopedSpan s(rec, "sim.first_packet", id);
      forward(0);
    }
    const uint64_t t1 = nowNs();
    rec.end(root);
    r.processNs += t1 - c1;
    if (ok) {
      r.updateToForwardNs.push_back(t1 - t0);
      if (lastEvent.viaRecompile) r.recompiles += 1;
    } else {
      r.failedUpdates += 1;
    }
    for (size_t i = 1; i < packets.size(); ++i) {
      uint64_t p0 = nowNs();
      {
        ScopedSpan s(rec, "sim.packet", id);
        forward(i);
      }
      r.processNs += nowNs() - p0;
    }
    r.packets += packets.size();

    // ---- off the clock: oracle replay of sampled packets ----
    uint64_t v0 = nowNs();
    if (id % kOracleVersionEvery == 0) {
      const Version& v = in.version;
      sim::DataPlaneState origState(*in.checked);
      sim::DataPlaneState specState(*v.program);
      sim::Interpreter orig(*in.checked, *v.deviceConfig, origState);
      sim::Interpreter spec2(*v.program, *v.config, specState);
      for (size_t i = 0; i < packets.size(); i += kOraclePacketEvery) {
        r.oracleSamples += 1;
        try {
          const char* aspect =
              divergence(orig.process(packets[i]), spec2.process(packets[i]));
          if (aspect != nullptr) {
            r.failedPackets += 1;
            r.fail("misroute after update " + std::to_string(id) + " (" +
                   update.toString() + "): " + aspect + " diverged");
          }
        } catch (const std::exception& e) {
          r.failedPackets += 1;
          r.fail(std::string("oracle: ") + e.what());
        }
      }
    }
    r.verifyNs += nowNs() - v0;

    if (shadow != nullptr) {
      uint64_t s0 = nowNs();
      shadow->apply(update, id, ok && lastEvent.viaRecompile);
      r.shadowNs += nowNs() - s0;
    }
  }
  r.wallNs = nowNs() - start;
  in.ctl->setEpochCallback({});

  for (const char* c : kCounters) r.counters[c] = reg.counter(c).value() - before[c];
  r.arenaNodes = in.ctl->service().arena().numNodes();
  r.shape = in.gen->entriesPerTable();
  return r;
}

// ---- raw result JSON -------------------------------------------------------

class Json {
 public:
  void key(const std::string& k) {
    sep();
    s_ += "\"" + k + "\":";
    fresh_ = true;
  }
  void num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s_ += buf;
    fresh_ = false;
  }
  void u64(uint64_t v) {
    s_ += std::to_string(v);
    fresh_ = false;
  }
  void str(const std::string& v) {
    s_ += "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') s_ += '\\';
      if (static_cast<unsigned char>(c) < 0x20) {
        s_ += ' ';
        continue;
      }
      s_ += c;
    }
    s_ += "\"";
    fresh_ = false;
  }
  void boolean(bool v) {
    s_ += v ? "true" : "false";
    fresh_ = false;
  }
  void open(char c) {
    if (!fresh_) sep();
    s_ += c;
    fresh_ = true;
  }
  void close(char c) {
    s_ += c;
    fresh_ = false;
  }
  void item() { sep(); }
  const std::string& text() const { return s_; }

 private:
  void sep() {
    if (!fresh_) s_ += ",";
    fresh_ = true;
  }
  std::string s_;
  bool fresh_ = true;
};

std::string digestHash(const std::string& digest) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64,
                static_cast<uint64_t>(std::hash<std::string>{}(digest)));
  return buf;
}

void writePhase(Json& j, const PhaseResult& r) {
  j.open('{');
  j.key("updates"); j.u64(r.updates);
  j.key("failed_updates"); j.u64(r.failedUpdates);
  j.key("packets"); j.u64(r.packets);
  j.key("failed_packets"); j.u64(r.failedPackets);
  j.key("policy_drops"); j.u64(r.policyDrops);
  j.key("recompiles"); j.u64(r.recompiles);
  j.key("oracle_samples"); j.u64(r.oracleSamples);
  j.key("wall_ns"); j.u64(r.wallNs);
  j.key("gen_ns"); j.u64(r.genNs);
  j.key("verify_ns"); j.u64(r.verifyNs);
  j.key("shadow_ns"); j.u64(r.shadowNs);
  j.key("process_ns"); j.u64(r.processNs);
  j.key("arena_nodes"); j.u64(r.arenaNodes);
  j.key("digest"); j.str(digestHash(r.digest));
  j.key("counters");
  j.open('{');
  for (const auto& [k, v] : r.counters) {
    j.key(k);
    j.u64(v);
  }
  j.close('}');
  j.key("shape");
  j.open('{');
  for (const auto& [k, v] : r.shape) {
    j.key(k);
    j.u64(v);
  }
  j.close('}');
  j.key("errors");
  j.open('[');
  for (const std::string& e : r.errors) {
    j.item();
    j.str(e);
  }
  j.close(']');
  j.key("update_to_forward_ns");
  j.open('[');
  for (uint64_t v : r.updateToForwardNs) {
    j.item();
    j.u64(v);
  }
  j.close(']');
  j.close('}');
}

int run(const Args& args) {
  std::filesystem::create_directories(args.stateDir);
  SpanRecorder rec(false);
  uint32_t currentUpdate = 0;

  // Set up several times and keep the last instance: setup_s is a median.
  std::vector<uint64_t> setupNs;
  std::unique_ptr<Instance> in;
  for (size_t k = 0; k < args.setups; ++k) {
    in.reset();
    in = setUp(args, args.stateDir + "/controller", rec, currentUpdate);
    setupNs.push_back(in->setupNs);
  }

  PhaseResult plain = runPhase(args, *in, rec, currentUpdate, nullptr);
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const double peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  // Rendering the digest allocates far more than the timed phase did, so it
  // comes after the RSS reading.
  plain.digest = in->ctl->stateDigest();

  oracle::ConsistencyReport consistency =
      oracle::checkIncrementalConsistency(in->ctl->service());

  std::optional<PhaseResult> traced;
  if (args.trace) {
    in.reset();
    currentUpdate = 0;
    in = setUp(args, args.stateDir + "/controller", rec, currentUpdate);
    Shadow shadow(*in, args.stateDir + "/shadow-journal.jsonl", rec);
    // Spans cover the timed phase only. Same seed and update count as the
    // untraced run, so both replay the same stream.
    rec.setEnabled(true);
    traced = runPhase(args, *in, rec, currentUpdate, &shadow);
    traced->digest = in->ctl->stateDigest();
  }

  const bool digestsMatch = !traced || traced->digest == plain.digest;
  Json j;
  j.open('{');
  j.key("workload"); j.str(perfbench::workloadName(args.kind));
  j.key("seed"); j.u64(args.seed);
  j.key("setup_ns");
  j.open('[');
  for (uint64_t v : setupNs) {
    j.item();
    j.u64(v);
  }
  j.close(']');
  j.key("peak_rss_mb"); j.num(peakRssMb);
  j.key("bulk");
  j.open('{');
  j.key("updates"); j.u64(in->bulk.report.updates);
  j.key("bypassed"); j.u64(in->bulk.report.bypassed);
  j.key("rejected"); j.u64(in->bulk.report.rejected);
  j.key("ns"); j.u64(in->bulkNs);
  j.close('}');
  j.key("consistent"); j.boolean(consistency.consistent);
  j.key("digests_match"); j.boolean(digestsMatch);
  j.key("untraced");
  writePhase(j, plain);
  if (traced) {
    j.key("traced");
    writePhase(j, *traced);
  }
  j.close('}');

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::fputs(j.text().c_str(), f);
  std::fputs("\n", f);
  if (std::fclose(f) != 0) return 1;
  if (traced && !args.traceOut.empty() && !rec.writeChromeTrace(args.traceOut)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.traceOut.c_str());
    return 1;
  }
  in.reset();
  std::filesystem::remove_all(args.stateDir);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parseArgs(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
