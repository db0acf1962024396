#include "oracle/oracle.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "controller/controller.h"
#include "controller/device.h"
#include "obs/obs.h"
#include "sim/interpreter.h"
#include "sim/state.h"

namespace flay::oracle {

namespace {

/// Deterministic per-phase probe seed. Plain seed+step would correlate
/// adjacent phases; a splitmix-style mix decorrelates them while staying
/// reproducible from (seed, step) alone.
uint64_t mixSeed(uint64_t seed, uint64_t step) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (step + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string hexBytes(const std::vector<uint8_t>& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string s;
  s.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    s.push_back(kDigits[b >> 4]);
    s.push_back(kDigits[b & 0xf]);
  }
  return s;
}

std::string renderBool(bool b) { return b ? "true" : "false"; }

/// Placement-search budget for the fault-mode device compiler, kept small
/// because the oracle compiles on every recompile verdict.
constexpr uint32_t kFaultCompileIterations = 8;

}  // namespace

std::string Divergence::describe() const {
  std::ostringstream os;
  os << "divergence on aspect '" << aspect << "' after " << updateStep
     << " update(s)";
  if (!lastUpdate.empty()) {
    os << " (last: " << lastUpdate
       << (afterPreservingUpdate ? ", judged semantics-preserving"
                                 : ", after full respecialization")
       << ")";
  }
  os << "\n  packet[" << packetIndex << "] port=" << ingressPort << " hex="
     << hexBytes(packetBytes) << "\n  original:    " << original
     << "\n  specialized: " << specialized;
  return os.str();
}

DifferentialOracle::DifferentialOracle(const p4::CheckedProgram& checked,
                                       OracleOptions options,
                                       std::string programPath)
    : checked_(checked),
      options_(std::move(options)),
      programPath_(std::move(programPath)),
      script_(net::fuzzUpdateSequence(checked, options_.updates,
                                      options_.seed)) {}

DifferentialOracle::SpecializedSide DifferentialOracle::respecialize(
    flay::FlayService& service) {
  obs::Registry& reg = obs::Registry::global();
  obs::ScopedTimer timer(reg.histogram("oracle.respecialize_us"),
                         "oracle.respecialize");
  reg.counter("oracle.respecializations").add(1);

  SpecializedSide side;
  flay::SpecializationResult result =
      flay::Specializer(service, options_.specializerOptions).specialize();
  side.checked = std::make_unique<p4::CheckedProgram>(
      flay::recheck(std::move(result.program)));
  migrate(service, side);
  return side;
}

void DifferentialOracle::migrate(flay::FlayService& service,
                                 SpecializedSide& side) {
  flay::MigrationTestHooks hooks;
  hooks.dropOneEntry =
      options_.sabotage == OracleOptions::Sabotage::kDropMigratedEntry;
  side.config = std::make_unique<runtime::DeviceConfig>(flay::migrateConfig(
      *side.checked, service.config(),
      hooks.dropOneEntry ? &hooks : nullptr));
}

std::optional<Divergence> DifferentialOracle::probe(
    const runtime::DeviceConfig& origConfig,
    const p4::CheckedProgram& specChecked,
    const runtime::DeviceConfig& specConfig, size_t updateStep,
    const sim::Packet* packetOverride, OracleReport* report) {
  obs::Registry& reg = obs::Registry::global();
  obs::ScopedTimer timer(reg.histogram("oracle.probe_us"), "oracle.probe");

  // Fresh extern state per phase and per side: probes must not leak
  // register/counter history across update steps, or a divergence would
  // depend on the probe history rather than the update script.
  sim::DataPlaneState origState(checked_);
  sim::DataPlaneState specState(specChecked);
  sim::Interpreter original(checked_, origConfig, origState);
  sim::Interpreter specialized(specChecked, specConfig, specState);

  net::PacketFuzzer fuzzer(checked_, origConfig,
                           mixSeed(options_.seed, updateStep));
  size_t count = packetOverride != nullptr ? 1 : options_.packets;

  auto diverge = [&](size_t packetIndex, const sim::Packet& packet,
                     std::string aspect, std::string orig, std::string spec) {
    Divergence d;
    d.updateStep = updateStep;
    d.packetIndex = packetIndex;
    d.packetBytes = packet.bytes;
    d.ingressPort = packet.ingressPort;
    d.aspect = std::move(aspect);
    d.original = std::move(orig);
    d.specialized = std::move(spec);
    reg.counter("oracle.divergences").add(1);
    return d;
  };

  for (size_t i = 0; i < count; ++i) {
    sim::Packet packet =
        packetOverride != nullptr ? *packetOverride : fuzzer.randomPacket();
    sim::ExecResult a = original.process(packet);
    sim::ExecResult b = specialized.process(packet);
    if (report != nullptr) ++report->packetsCompared;
    reg.counter("oracle.probe_packets").add(1);

    if (a.parserAccepted != b.parserAccepted) {
      return diverge(i, packet, "parserAccepted", renderBool(a.parserAccepted),
                     renderBool(b.parserAccepted));
    }
    if (a.dropped != b.dropped) {
      return diverge(i, packet, "dropped", renderBool(a.dropped),
                     renderBool(b.dropped));
    }
    if (a.dropped) continue;  // both dropped: no observable output
    if (a.egressPort != b.egressPort) {
      return diverge(i, packet, "egressPort", std::to_string(a.egressPort),
                     std::to_string(b.egressPort));
    }
    if (a.outputBytes != b.outputBytes) {
      return diverge(i, packet, "outputBytes", hexBytes(a.outputBytes),
                     hexBytes(b.outputBytes));
    }
    // Compare the intersection of the two field stores: the specializer may
    // legitimately drop never-read locations, but any location both programs
    // still carry must agree.
    for (const auto& [name, value] : a.fields) {
      auto it = b.fields.find(name);
      if (it == b.fields.end()) continue;
      if (!(value == it->second)) {
        return diverge(i, packet, "field:" + name, value.toHexString(),
                       it->second.toHexString());
      }
    }
  }

  // Sparse extern snapshots: cells the specialized program no longer
  // declares are only a divergence when the original actually touched them.
  std::map<std::string, std::string> a = origState.externSnapshot();
  std::map<std::string, std::string> b = specState.externSnapshot();
  for (const auto& [cell, value] : a) {
    auto it = b.find(cell);
    std::string spec = it == b.end() ? "<default>" : it->second;
    if (spec != value) {
      sim::Packet none;
      return diverge(count, none, "extern:" + cell, value, spec);
    }
  }
  for (const auto& [cell, value] : b) {
    if (a.count(cell) == 0) {
      sim::Packet none;
      return diverge(count, none, "extern:" + cell, "<default>", value);
    }
  }
  return std::nullopt;
}

std::optional<Divergence> DifferentialOracle::replay(
    const std::vector<size_t>& subset, const sim::Packet* packetOverride,
    OracleReport* report) {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("oracle.replays").add(1);
  if (options_.faultPlan.has_value()) {
    return replayWithFaults(subset, packetOverride, report);
  }

  flay::FlayService service(checked_, options_.flayOptions);
  SpecializedSide side = respecialize(service);
  if (report != nullptr) ++report->respecializations;

  // Step 0: the initial specialization of the empty starting config.
  if (auto d = probe(service.config(), *side.checked, *side.config, 0,
                     packetOverride, report)) {
    d->subsetPos = SIZE_MAX;
    return d;
  }

  size_t applied = 0;
  for (size_t pos = 0; pos < subset.size(); ++pos) {
    const runtime::Update& update = script_.at(subset[pos]);
    flay::UpdateVerdict verdict;
    try {
      verdict = service.applyUpdate(update);
    } catch (const std::invalid_argument&) {
      // Subset replays may orphan deletes/modifies whose insert was removed
      // by the shrinker; treat them as rejected-and-skipped so every subset
      // replays deterministically.
      if (report != nullptr) ++report->updatesRejected;
      reg.counter("oracle.updates_rejected").add(1);
      continue;
    }
    ++applied;
    if (report != nullptr) ++report->updatesApplied;
    reg.counter("oracle.updates_applied").add(1);

    // The metamorphic judgment: a semantics-preserving verdict promises the
    // deployed (specialized) program is still packet-equivalent, so we keep
    // it and only migrate the config — exactly the work the paper's fast
    // path skips. A recompilation verdict instead forces the slow path.
    if (verdict.needsRecompilation) {
      side = respecialize(service);
      if (report != nullptr) ++report->respecializations;
    } else {
      migrate(service, side);
      if (report != nullptr) ++report->preservingChecks;
      reg.counter("oracle.preserving_checks").add(1);
    }

    if (auto d = probe(service.config(), *side.checked, *side.config, applied,
                       packetOverride, report)) {
      d->afterPreservingUpdate = !verdict.needsRecompilation;
      d->lastUpdate = update.toString();
      d->subsetPos = pos;
      return d;
    }
  }
  return std::nullopt;
}

std::optional<Divergence> DifferentialOracle::replayWithFaults(
    const std::vector<size_t>& subset, const sim::Packet* packetOverride,
    OracleReport* report) {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("oracle.fault_replays").add(1);

  // Fresh controller + device per replay: the fault plan's RNG restarts, so
  // shrunk subsets replay the exact same fault schedule.
  tofino::CompilerOptions compilerOptions;
  compilerOptions.searchIterations = kFaultCompileIterations;
  controller::SimulatedDevice device(*options_.faultPlan, {}, compilerOptions);
  controller::ControllerOptions copts;
  copts.flay = options_.flayOptions;
  copts.specializer = options_.specializerOptions;
  copts.seed = options_.seed;
  controller::FaultTolerantController ctl(checked_, &device, copts);

  // The device side is whatever the controller actually got installed —
  // pinned program + device-visible config — not what a fault-free run
  // would have. migrateConfig is pure, so recomputing it per probe step
  // tracks every forwarded update.
  auto probeDevice = [&](size_t step) -> std::optional<Divergence> {
    runtime::DeviceConfig migrated =
        flay::migrateConfig(ctl.deviceProgram(), ctl.deviceConfig());
    if (report != nullptr && ctl.degraded()) ++report->degradedSteps;
    return probe(ctl.deviceConfig(), ctl.deviceProgram(), migrated, step,
                 packetOverride, report);
  };

  if (auto d = probeDevice(0)) {
    d->subsetPos = SIZE_MAX;
    return d;
  }

  size_t applied = 0;
  for (size_t pos = 0; pos < subset.size(); ++pos) {
    const runtime::Update& update = script_.at(subset[pos]);
    controller::ApplyResult result;
    try {
      result = ctl.apply(update);
    } catch (const std::invalid_argument&) {
      if (report != nullptr) ++report->updatesRejected;
      reg.counter("oracle.updates_rejected").add(1);
      continue;
    }
    ++applied;
    if (report != nullptr) {
      ++report->updatesApplied;
      report->faultRetries += result.retries;
      if (!result.verdict.needsRecompilation) ++report->preservingChecks;
    }
    reg.counter("oracle.updates_applied").add(1);

    if (auto d = probeDevice(applied)) {
      d->afterPreservingUpdate = !result.verdict.needsRecompilation;
      d->lastUpdate = update.toString();
      d->subsetPos = pos;
      return d;
    }
  }

  // End of script: pull the controller out of degradation if the fault
  // window has passed, and check the recovered device once more.
  for (int attempt = 0; ctl.degraded() && attempt < 3; ++attempt) {
    if (ctl.tryRecover()) break;
  }
  return probeDevice(applied + 1);
}

OracleReport DifferentialOracle::run() {
  obs::Registry& reg = obs::Registry::global();
  obs::ScopedTimer timer(reg.histogram("oracle.run_us"), "oracle.run");
  reg.counter("oracle.runs").add(1);

  std::vector<size_t> subset;
  if (options_.replayUpdates.has_value()) {
    subset = *options_.replayUpdates;
    subset.erase(std::remove_if(subset.begin(), subset.end(),
                                [this](size_t i) { return i >= script_.size(); }),
                 subset.end());
  } else {
    subset.resize(script_.size());
    for (size_t i = 0; i < subset.size(); ++i) subset[i] = i;
  }

  sim::Packet overridePacket;
  const sim::Packet* packetOverride = nullptr;
  if (!options_.probePacketOverride.empty()) {
    overridePacket.bytes = options_.probePacketOverride;
    overridePacket.ingressPort = options_.probeIngressPort;
    packetOverride = &overridePacket;
  }

  OracleReport report;
  report.divergence = replay(subset, packetOverride, &report);
  report.equivalent = !report.divergence.has_value();

  if (!report.equivalent) {
    if (options_.shrink) {
      shrink(report);
    } else {
      // Unshrunk repro: the subset up to and including the diverging update.
      size_t pos = report.divergence->subsetPos;
      if (pos == SIZE_MAX) {
        report.shrunkUpdates.clear();
      } else {
        report.shrunkUpdates.assign(subset.begin(),
                                    subset.begin() + pos + 1);
      }
    }
    report.reproCommand = buildReproCommand(report);
  }
  return report;
}

// ---------------------------------------------------------------------------
// Shrinker: ddmin over the update subset, then byte-level packet shrinking.
// ---------------------------------------------------------------------------

void DifferentialOracle::shrink(OracleReport& report) {
  obs::Registry& reg = obs::Registry::global();
  obs::ScopedTimer timer(reg.histogram("oracle.shrink_us"), "oracle.shrink");

  // Budget on full replays: each costs a respecialization per recompiling
  // update, so cap the search rather than demanding a global minimum.
  size_t budget = 300;
  auto diverges = [&](const std::vector<size_t>& cand,
                      const sim::Packet* pkt) -> std::optional<Divergence> {
    if (budget == 0) return std::nullopt;
    --budget;
    reg.counter("oracle.shrink_replays").add(1);
    OracleReport scratch;
    return replay(cand, pkt, &scratch);
  };

  // Start from the replayed subset truncated at the diverging update: later
  // updates cannot matter.
  std::vector<size_t> subset;
  if (options_.replayUpdates.has_value()) {
    subset = *options_.replayUpdates;
    subset.erase(std::remove_if(subset.begin(), subset.end(),
                                [this](size_t i) { return i >= script_.size(); }),
                 subset.end());
  } else {
    subset.resize(script_.size());
    for (size_t i = 0; i < subset.size(); ++i) subset[i] = i;
  }
  size_t pos = report.divergence->subsetPos;
  if (pos == SIZE_MAX) {
    subset.clear();
  } else {
    subset.resize(pos + 1);
  }

  // ddmin: try removing chunks at decreasing granularity until 1-minimal.
  size_t chunk = subset.size() / 2;
  while (chunk >= 1 && !subset.empty() && budget > 0) {
    bool removedAny = false;
    for (size_t start = 0; start < subset.size() && budget > 0;) {
      std::vector<size_t> candidate;
      candidate.reserve(subset.size());
      size_t end = std::min(start + chunk, subset.size());
      candidate.insert(candidate.end(), subset.begin(),
                       subset.begin() + start);
      candidate.insert(candidate.end(), subset.begin() + end, subset.end());
      if (diverges(candidate, nullptr)) {
        subset = std::move(candidate);
        removedAny = true;
        // Restart scan at the same offset: the element there is new.
      } else {
        start = end;
      }
    }
    if (chunk == 1 && !removedAny) break;
    chunk = std::max<size_t>(1, chunk / 2);
  }
  report.shrunkUpdates = subset;

  // Re-run the minimal subset to pick up the (possibly different) diverging
  // packet for this exact script, then minimize the packet itself while
  // holding the update subset fixed.
  std::optional<Divergence> d = diverges(subset, nullptr);
  if (!d) {
    // Budget exhausted or flaky-only-under-shrink; keep the original
    // divergence and skip packet shrinking.
    return;
  }
  report.divergence = d;
  if (d->packetBytes.empty()) return;  // extern-only divergence, no packet

  sim::Packet packet;
  packet.bytes = d->packetBytes;
  packet.ingressPort = d->ingressPort;
  if (!diverges(subset, &packet)) return;  // workload-order dependent; keep

  // Phase 1: drop trailing bytes (payload rarely matters).
  while (!packet.bytes.empty() && budget > 0) {
    sim::Packet candidate = packet;
    candidate.bytes.pop_back();
    if (diverges(subset, &candidate)) {
      packet = std::move(candidate);
    } else {
      break;
    }
  }
  // Phase 2: zero out individual bytes to expose the load-bearing fields.
  for (size_t i = 0; i < packet.bytes.size() && budget > 0; ++i) {
    if (packet.bytes[i] == 0) continue;
    sim::Packet candidate = packet;
    candidate.bytes[i] = 0;
    if (diverges(subset, &candidate)) packet = std::move(candidate);
  }

  report.shrunkPacketBytes = packet.bytes;
  report.shrunkIngressPort = packet.ingressPort;
}

std::string DifferentialOracle::buildReproCommand(
    const OracleReport& report) const {
  std::ostringstream os;
  os << "flayc difftest " << programPath_ << " --updates " << options_.updates
     << " --packets " << options_.packets << " --seed " << options_.seed;
  if (options_.sabotage == OracleOptions::Sabotage::kDropMigratedEntry) {
    os << " --sabotage drop-entry";
  }
  if (options_.faultPlan.has_value()) {
    os << " --fault-plan " << options_.faultPlan->toString();
  }
  os << " --replay-updates ";
  if (report.shrunkUpdates.empty()) {
    os << "none";
  } else {
    for (size_t i = 0; i < report.shrunkUpdates.size(); ++i) {
      if (i > 0) os << ",";
      os << report.shrunkUpdates[i];
    }
  }
  if (!report.shrunkPacketBytes.empty()) {
    os << " --packet-hex " << hexBytes(report.shrunkPacketBytes)
       << " --ingress-port " << report.shrunkIngressPort;
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Incremental-vs-scratch consistency
// ---------------------------------------------------------------------------

ConsistencyReport checkIncrementalConsistency(flay::FlayService& service) {
  obs::Registry& reg = obs::Registry::global();
  obs::ScopedTimer timer(reg.histogram("oracle.consistency_us"),
                         "oracle.consistency");
  reg.counter("oracle.consistency_checks").add(1);

  const auto& points = service.analysis().annotations.points();
  std::vector<expr::ExprRef> incremental;
  incremental.reserve(points.size());
  for (const auto& p : points) incremental.push_back(p.specialized);

  // respecializeAll() recomputes every point from the current config from
  // scratch; the arena hash-conses, so an unchanged expression keeps its id
  // and the comparison is exact structural equality.
  service.respecializeAll();

  ConsistencyReport report;
  const auto& fresh = service.analysis().annotations.points();
  for (size_t i = 0; i < fresh.size() && i < incremental.size(); ++i) {
    if (!(fresh[i].specialized == incremental[i])) {
      report.consistent = false;
      report.mismatchedPoints.push_back(fresh[i].id);
      reg.counter("oracle.consistency_mismatches").add(1);
    }
  }
  return report;
}

}  // namespace flay::oracle
