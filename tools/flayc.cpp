// flayc — command-line driver for the Flay toolchain.
//
//   flayc check      <prog.p4l>    parse + type-check, print stats
//   flayc print      <prog.p4l>    normalized P4-lite source to stdout
//   flayc analyze    <prog.p4l>    data-plane analysis summary
//   flayc compile    <prog.p4l>    RMT placement report (stage map)
//   flayc specialize <prog.p4l>    specialize against the empty config and
//                                  print the specialized source
//   flayc fuzz       <prog.p4l>    apply a fuzzed control-plane update run,
//                                  report the verdict mix, and verify the
//                                  incremental analysis against a scratch
//                                  respecialization (non-zero exit on drift)
//   flayc difftest   <prog.p4l>    differential oracle: replay a fuzzed
//                                  update script, checking after every update
//                                  that the specialized program forwards
//                                  packets identically to the original; on
//                                  divergence, shrink and print a replayable
//                                  reproducer (non-zero exit)
//   flayc crashtest  <prog.p4l>    crash-recovery check: apply a fuzzed
//                                  update run through the fault-tolerant
//                                  controller, simulate SIGKILL at random
//                                  points, recover from the write-ahead
//                                  journal, and require the recovered state
//                                  digest to match an uninterrupted run,
//                                  both on recovery and on a second restart
//                                  after finishing the run (non-zero exit
//                                  on any mismatch)
//   flayc fleet      <prog.p4l>    drive a fleet of N simulated devices:
//                                  broadcast a fuzzed update stream to every
//                                  device, drain the per-device queues
//                                  concurrently over a shared thread pool
//                                  (each device with its own service and
//                                  check state), and require every device to
//                                  end in the identical state (non-zero exit
//                                  on divergence or a failed device)
//   flayc daemon     <prog.p4l>    controller daemon: listen on a Unix-domain
//                                  socket (--listen), accept one agent per
//                                  device (optionally fork/exec them with
//                                  --spawn), shard by program fingerprint,
//                                  stream a fuzzed update script as batch
//                                  frames, one acknowledged before the next
//                                  is sent, and require identical agent
//                                  state digests (non-zero exit on
//                                  divergence or a dead link)
//   flayc agent      <prog.p4l>    device agent: connect to a daemon
//                                  (--connect), run one fault-tolerant
//                                  controller + simulated device, and serve
//                                  wire-protocol requests until the daemon
//                                  says goodbye
//   flayc ifc        <prog.p4l>    information-flow check: load a label/sink
//                                  policy (--policy), verdict every
//                                  source->sink flow of the specialized
//                                  program, replay a fuzzed update stream,
//                                  and after every update cross-check the
//                                  incremental re-verdicts against a
//                                  from-scratch engine (non-zero exit on
//                                  drift)
//
// Options:
//   --skip-parser       analyze without symbolic parser execution
//   --iterations N      placement search budget (default 400)
//   --config NAME       canned config: scion-v4 | scion-v4v6 (scion.p4l)
//   --updates N         fuzz/difftest: number of updates (default 100)
//   --seed S            fuzz/difftest: RNG seed (default 42)
//   --packets M         difftest: probe packets per equivalence check (32)
//   --shrink/--no-shrink  difftest: minimize counterexamples (default on)
//   --replay-updates L  difftest: replay only script indices "3,17,42"
//                       ("none" = no updates, probe the initial config only)
//   --packet-hex HEX    difftest: probe with exactly this packet
//   --ingress-port P    difftest: ingress port for --packet-hex (default 0)
//   --sabotage MODE     difftest: inject a specializer fault (drop-entry)
//                       to prove the oracle catches it
//   --fault-plan P      difftest: drive a fault-tolerant controller against
//                       a device injecting the named built-in plan (none,
//                       transient, flaky, reject-compile, outage, slow) or a
//                       spec like "fail-first=2,seed=7"; the oracle then
//                       checks the degradation invariant. fleet/replay/
//                       agent: every device runs the plan; daemon --spawn
//                       passes it to each agent it starts, with the plan
//                       seed offset by the device index as in the fleet
//   --jobs N            specialize/fuzz/difftest/crashtest: run the
//                       semantics-check probes of each specialization on N
//                       threads (default 1; verdicts are identical at any N)
//   --kill-points K     crashtest: number of simulated-SIGKILL positions (20)
//   --checkpoint-every C  crashtest/fleet/agent: updates between checkpoints
//                       (16); daemon --spawn passes it to its agents
//   --state-dir DIR     crashtest: journal/checkpoint directory (default: a
//                       fresh directory under the current one, removed after)
//                       fleet and daemon --spawn: per-device journal root,
//                       DIR/dev<i> (default: in-memory); agent: its own dir
//   --devices N         fleet: number of managed devices (default 4)
//   --queue-cap Q       fleet: per-device work-queue capacity; updates
//                       enqueued beyond it are dropped, never blocking the
//                       rest of the fleet (default 0 = unbounded)
//   --listen PATH       daemon: Unix-domain socket path to bind
//   --connect PATH      agent: daemon socket path to connect to
//   --device NAME       agent: device name presented in the hello (dev0)
//   --spawn             daemon: fork/exec one `flayc agent` per device
//   --policy FILE       ifc: label/sink/declassify policy file (required)
//   --ifc-policy FILE   fuzz/difftest: additionally run the information-flow
//                       engine over the same update stream, cross-checking
//                       incremental vs from-scratch verdicts every update
//   --torn-tail         crashtest: append a torn half-record to the journal
//                       before recovery (simulates a write cut by the crash)
//   --stats[=json]      print the observability registry (counters and
//                       per-phase latency histograms) before exiting
//   --trace-out FILE    append one JSONL trace event per timed phase
//
// Argument errors (unknown flags, flags missing their value, malformed
// values) print a one-line error and exit 2.

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "controller/controller.h"
#include "flay/specializer.h"
#include "ifc/ifc.h"
#include "fleet/agent.h"
#include "fleet/fleet.h"
#include "net/fuzzer.h"
#include "net/mix.h"
#include "net/workloads.h"
#include "obs/obs.h"
#include "replay/replay.h"
#include "support/stopwatch.h"
#include "oracle/oracle.h"
#include "p4/printer.h"
#include "tofino/compiler.h"

namespace p4 = flay::p4;
namespace net = flay::net;
namespace tofino = flay::tofino;
namespace core = flay::flay;
namespace runtime = flay::runtime;
namespace obs = flay::obs;
namespace oracle = flay::oracle;
namespace ctrl = flay::controller;
namespace ifc = flay::ifc;
namespace fleet = flay::fleet;
namespace replay = flay::replay;
namespace wire = flay::wire;
using flay::support::Stopwatch;

namespace {

struct Options {
  std::string command;
  std::string file;
  bool skipParser = false;
  uint32_t iterations = 400;
  std::string config;
  size_t updates = 100;
  uint64_t seed = 42;
  size_t packets = 32;
  bool packetsSet = false;
  std::string mix = "heavy-hitter";
  double churnRate = 0;
  size_t window = 8192;
  bool shrink = true;
  bool replayUpdatesSet = false;
  std::vector<size_t> replayUpdates;
  std::vector<uint8_t> packetHex;
  uint32_t ingressPort = 0;
  std::string sabotage;
  std::string faultPlan;
  size_t jobs = 1;
  size_t killPoints = 20;
  size_t checkpointEvery = 16;
  std::string stateDir;
  size_t devices = 4;
  size_t queueCap = 0;
  bool tornTail = false;
  bool stats = false;
  bool statsJson = false;
  std::string traceOut;
  bool bulk = false;
  size_t chunk = 4096;
  std::string listenPath;
  std::string connectPath;
  std::string deviceName = "dev0";
  bool spawnAgents = false;
  std::string policyFile;     // ifc: required --policy
  std::string ifcPolicyFile;  // fuzz/difftest: optional --ifc-policy
  std::string argv0;  // for daemon --spawn re-exec
};

int usage() {
  std::fprintf(
      stderr,
      "usage: flayc "
      "<check|print|analyze|compile|specialize|fuzz|bulkload|difftest|"
      "crashtest|fleet|replay|daemon|agent|ifc> "
      "<prog.p4l> [--skip-parser] [--iterations N] [--config NAME]\n"
      "             [--bulk] [--chunk N]\n"
      "             [--updates N] [--seed S] [--packets M] [--no-shrink]\n"
      "             [--replay-updates i,j,k|none] [--packet-hex HEX] "
      "[--ingress-port P]\n"
      "             [--sabotage drop-entry] [--fault-plan P]\n"
      "             [--jobs N]\n"
      "             [--kill-points K] [--checkpoint-every C] "
      "[--state-dir DIR] [--torn-tail]\n"
      "             [--devices N] [--queue-cap Q]\n"
      "             [--listen PATH] [--connect PATH]\n"
      "             [--device NAME] [--spawn]\n"
      "             [--mix uniform|heavy-hitter|port-scan|tunnel] "
      "[--churn-rate R] [--window W]\n"
      "             [--policy FILE] [--ifc-policy FILE]\n"
      "             [--stats[=json]] [--trace-out FILE]\n");
  return 2;
}

/// Argument errors are caught at parse time: one line to stderr, exit 2.
[[noreturn]] void argError(const std::string& message) {
  std::fprintf(stderr, "flayc: %s\n", message.c_str());
  std::exit(2);
}

/// "3,17,42" -> {3,17,42}; "none" -> {} (distinct from unset via the flag).
std::vector<size_t> parseIndexList(const std::string& s) {
  std::vector<size_t> out;
  if (s == "none") return out;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    std::string item = s.substr(pos, comma - pos);
    if (item.empty() ||
        item.find_first_not_of("0123456789") != std::string::npos) {
      argError("bad index '" + item + "' in --replay-updates (want i,j,k or "
               "none)");
    }
    out.push_back(std::strtoul(item.c_str(), nullptr, 10));
    pos = comma + 1;
    if (comma == s.size()) break;
  }
  return out;
}

std::vector<uint8_t> parseHexBytes(const std::string& s) {
  std::vector<uint8_t> out;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  if (s.empty() || s.size() % 2 != 0) {
    argError("--packet-hex needs a non-empty even digit count");
  }
  for (size_t i = 0; i + 1 < s.size(); i += 2) {
    int hi = nibble(s[i]), lo = nibble(s[i + 1]);
    if (hi < 0 || lo < 0) argError("bad hex digit in --packet-hex");
    out.push_back(static_cast<uint8_t>(hi << 4 | lo));
  }
  return out;
}

uint64_t parseNumber(const std::string& s, const char* flag) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    argError(std::string("bad number '") + s + "' for " + flag);
  }
  return std::strtoull(s.c_str(), nullptr, 10);
}

/// A built-in plan name (none, transient, flaky, ...) or a "key=value,..."
/// spec; a malformed spec is an argument error (one line, exit 2).
ctrl::FaultPlan parseFaultPlan(const std::string& spec) {
  for (const auto& [name, plan] : ctrl::FaultPlan::builtinPlans()) {
    if (name == spec) return plan;
  }
  try {
    return ctrl::FaultPlan::parse(spec);
  } catch (const std::invalid_argument& e) {
    argError(e.what());
  }
}

core::SpecializerOptions specializerOptions(const Options& opts) {
  core::SpecializerOptions sopts;
  sopts.jobs = opts.jobs;
  return sopts;
}

void applyCannedConfig(core::FlayService& service, const std::string& name) {
  if (name == "scion-v4" || name == "scion-v4v6") {
    for (const auto& u : net::scionCommonConfig()) service.applyUpdate(u);
    for (const auto& u : net::scionV4Config(16)) service.applyUpdate(u);
    if (name == "scion-v4v6") {
      service.applyBatch(net::scionV6Config(8));
    }
    return;
  }
  if (!name.empty()) {
    std::fprintf(stderr, "unknown --config '%s' (try scion-v4)\n",
                 name.c_str());
  }
}

int cmdCheck(const p4::CheckedProgram& checked) {
  const p4::Program& prog = checked.program;
  std::printf("ok: %zu statements, %zu headers, %zu parsers, %zu controls\n",
              prog.statementCount(), prog.headerTypes.size(),
              prog.parsers.size(), prog.controls.size());
  size_t tables = 0, actions = 0;
  for (const auto& c : prog.controls) {
    tables += c.tables.size();
    actions += c.actions.size();
  }
  std::printf("    %zu tables, %zu actions, %zu scalar locations\n", tables,
              actions, checked.env.fields().size());
  return 0;
}

int cmdAnalyze(const p4::CheckedProgram& checked, const Options& opts) {
  core::FlayOptions foptions;
  foptions.analysis.analyzeParser = !opts.skipParser;
  core::FlayService service(checked, foptions);
  applyCannedConfig(service, opts.config);
  const auto& analysis = service.analysis();
  std::printf("data-plane analysis: %.2f ms (+%.2f ms preprocessing)\n",
              service.dataPlaneAnalysisTime().count() / 1000.0,
              service.preprocessTime().count() / 1000.0);
  std::printf("program points: %zu\n", analysis.annotations.points().size());
  std::printf("tables: %zu, value-set uses: %zu\n", analysis.tables.size(),
              analysis.valueSetUses.size());
  std::printf("taint map:\n");
  for (const auto& [object, points] : analysis.annotations.taintMap()) {
    std::printf("  %-40s -> %zu points\n", object.c_str(), points.size());
  }
  return 0;
}

int cmdCompile(const p4::CheckedProgram& checked, const Options& opts) {
  tofino::CompilerOptions copts;
  copts.searchIterations = opts.iterations;
  tofino::PipelineCompiler compiler(tofino::PipelineModel{}, copts);
  tofino::CompileResult r = compiler.compile(checked);
  if (!r.fits) {
    std::printf("compile FAILED: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("fits: %u stages, tcam=%u sram=%u alu=%u phv=%u (%.1f ms)\n",
              r.stagesUsed, r.tcamBlocksUsed, r.sramBlocksUsed, r.aluOpsUsed,
              r.phvBitsUsed, r.compileTime.count() / 1000.0);
  for (size_t s = 0; s < r.stageAssignment.size(); ++s) {
    std::printf("  stage %2zu:", s + 1);
    for (const auto& name : r.stageAssignment[s]) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

int cmdSpecialize(const p4::CheckedProgram& checked, const Options& opts) {
  core::FlayOptions foptions;
  foptions.analysis.analyzeParser = !opts.skipParser;
  core::FlayService service(checked, foptions);
  applyCannedConfig(service, opts.config);
  auto result = core::Specializer(service, specializerOptions(opts)).specialize();
  std::fprintf(stderr,
               "// specialization: %zu tables removed, %zu inlined, "
               "%zu actions removed, %zu keys tightened,\n"
               "// %zu branches eliminated, %zu constants propagated, "
               "%zu select cases removed\n",
               result.stats.removedTables, result.stats.inlinedTables,
               result.stats.removedActions, result.stats.convertedKeys,
               result.stats.eliminatedBranches,
               result.stats.propagatedConstants,
               result.stats.removedSelectCases);
  for (const auto& h : result.stats.prunableHeaders) {
    std::fprintf(stderr, "// parser-tail pruning candidate: %s\n", h.c_str());
  }
  for (const auto& h : result.stats.deadHeaders) {
    std::fprintf(stderr, "// dead header (PHV/checksum reclaimable): %s\n",
                 h.c_str());
  }
  std::printf("%s", p4::printProgram(result.program).c_str());
  return 0;
}

/// Loads and validates a policy for --policy/--ifc-policy; a malformed or
/// mismatched file is an argument error (one line, exit 2), the same
/// contract as every other flag value.
ifc::IfcPolicy loadPolicy(const std::string& path,
                          const p4::CheckedProgram& checked) {
  try {
    ifc::IfcPolicy policy = ifc::IfcPolicy::parseFile(path);
    policy.validate(checked);
    return policy;
  } catch (const std::invalid_argument& e) {
    argError(e.what());
  }
}

int cmdFuzz(const p4::CheckedProgram& checked, const Options& opts) {
  core::FlayOptions foptions;
  foptions.analysis.analyzeParser = !opts.skipParser;
  core::FlayService service(checked, foptions);
  applyCannedConfig(service, opts.config);

  // --ifc-policy rider: the attached engine re-verdicts incrementally after
  // every analyzed update; each applied update is then cross-checked
  // against a from-scratch engine over the same state.
  std::shared_ptr<ifc::IfcEngine> ifcEngine;
  if (!opts.ifcPolicyFile.empty()) {
    ifcEngine = std::make_shared<ifc::IfcEngine>(
        service, loadPolicy(opts.ifcPolicyFile, checked));
    service.attachAnalysis(ifcEngine);
    ifcEngine->recheck();
  }
  auto ifcConsistent = [&]() -> bool {
    return ifcEngine == nullptr ||
           ifcEngine->recheckFromScratch().render() ==
               ifcEngine->lastReport().render();
  };

  const auto& tables = service.analysis().tables;
  if (tables.empty()) {
    std::fprintf(stderr, "fuzz: program has no tables\n");
    return 1;
  }

  // Pre-generate a pool of schema-valid entries per table (tables whose key
  // space is too small for the requested count are skipped), then apply them
  // round-robin. Every 8th update deletes a previously installed entry so
  // the run also exercises the delete path.
  net::EntryFuzzer fuzzer(opts.seed);
  struct Pool {
    std::string table;
    std::vector<runtime::TableEntry> entries;
    size_t next = 0;
  };
  std::vector<Pool> pools;
  size_t perTable = opts.updates / tables.size() + 1;
  for (const auto& info : tables) {
    Pool pool;
    pool.table = info.qualified;
    try {
      pool.entries =
          fuzzer.uniqueEntries(service.config().table(info.qualified), perTable);
    } catch (const std::exception&) {
      continue;  // schema admits too few distinct keys at this count
    }
    pools.push_back(std::move(pool));
  }
  if (pools.empty()) {
    std::fprintf(stderr, "fuzz: no table schema admits %zu entries\n",
                 perTable);
    return 1;
  }

  if (opts.bulk) {
    // Route the insert pools through the streaming bulk path instead of
    // per-update applies (inserts only: deletes need installed ids, which a
    // pure insert stream does not carry). The consistency oracle below
    // checks the exact same invariant either way.
    std::vector<runtime::Update> updates;
    bool progress = true;
    while (updates.size() < opts.updates && progress) {
      progress = false;
      for (Pool& pool : pools) {
        if (updates.size() >= opts.updates) break;
        if (pool.next >= pool.entries.size()) continue;
        updates.push_back(
            runtime::Update::insert(pool.table, pool.entries[pool.next++]));
        progress = true;
      }
    }
    core::BulkLoadOptions bopts;
    bopts.chunkSize = opts.chunk;
    core::BulkLoadReport rep = service.bulkLoad(updates, bopts);
    std::printf(
        "fuzz run (bulk): %llu/%llu updates applied (%llu rejected) in %zu "
        "chunk(s) of %zu across %zu tables\n",
        static_cast<unsigned long long>(rep.applied),
        static_cast<unsigned long long>(rep.updates),
        static_cast<unsigned long long>(rep.rejected), rep.chunks, opts.chunk,
        pools.size());
    std::printf("  expression-changing:  %s\n",
                rep.expressionsChanged ? "yes" : "no");
    std::printf("  recompile-requiring:  %s\n",
                rep.needsRecompilation ? "yes" : "no");
    if (!ifcConsistent()) {
      std::fprintf(stderr, "fuzz: IFC INCREMENTAL DRIFT after bulk load\n");
      return 1;
    }
  } else {
  size_t applied = 0, inserts = 0, deletes = 0, rejected = 0;
  size_t exprChanges = 0, recompiles = 0;
  std::vector<std::pair<std::string, uint64_t>> installed;
  while (applied < opts.updates) {
    bool progress = false;
    for (Pool& pool : pools) {
      if (applied >= opts.updates) break;
      core::UpdateVerdict verdict;
      if (applied % 8 == 7 && !installed.empty()) {
        auto [table, id] = installed.back();
        installed.pop_back();
        verdict = service.applyUpdate(runtime::Update::remove(table, id));
        ++deletes;
      } else {
        if (pool.next >= pool.entries.size()) continue;
        runtime::TableEntry entry = pool.entries[pool.next++];
        try {
          verdict =
              service.applyUpdate(runtime::Update::insert(pool.table, entry));
        } catch (const std::invalid_argument&) {
          ++rejected;  // e.g. duplicate of a canned-config entry
          progress = true;
          continue;
        }
        installed.emplace_back(pool.table,
                               service.config()
                                   .table(pool.table)
                                   .entries()
                                   .back()
                                   .id);
        ++inserts;
      }
      ++applied;
      progress = true;
      if (verdict.expressionsChanged) ++exprChanges;
      if (verdict.needsRecompilation) ++recompiles;
      if (!ifcConsistent()) {
        std::fprintf(stderr,
                     "fuzz: IFC INCREMENTAL DRIFT after %zu update(s)\n"
                     "  reproduce: flayc fuzz %s --ifc-policy %s --updates "
                     "%zu --seed %llu\n",
                     applied, opts.file.c_str(), opts.ifcPolicyFile.c_str(),
                     opts.updates,
                     static_cast<unsigned long long>(opts.seed));
        return 1;
      }
    }
    if (!progress) break;
  }

  std::printf("fuzz run: %zu updates applied (%zu inserts, %zu deletes, "
              "%zu rejected) across %zu tables\n",
              applied, inserts, deletes, rejected, pools.size());
  std::printf("  expression-changing:  %zu\n", exprChanges);
  std::printf("  recompile-requiring:  %zu\n", recompiles);
  std::printf("  semantics-preserving: %zu\n", applied - recompiles);
  }

  // Turn the stats run into a pass/fail check: the incremental analysis of
  // the whole run must agree with a from-scratch respecialization.
  oracle::ConsistencyReport consistency =
      oracle::checkIncrementalConsistency(service);
  if (!consistency.consistent) {
    std::fprintf(stderr,
                 "fuzz: INCREMENTAL DRIFT — %zu program point(s) disagree "
                 "with a from-scratch respecialization:",
                 consistency.mismatchedPoints.size());
    for (uint32_t p : consistency.mismatchedPoints) {
      std::fprintf(stderr, " %u", p);
    }
    std::fprintf(stderr, "\n  reproduce: flayc fuzz %s --updates %zu --seed "
                 "%llu\n", opts.file.c_str(), opts.updates,
                 static_cast<unsigned long long>(opts.seed));
    return 1;
  }
  std::printf("  incremental-vs-scratch: consistent (%zu points)\n",
              service.analysis().annotations.points().size());
  if (ifcEngine != nullptr) {
    std::printf("  ifc: %zu flow(s), %zu violation(s), "
                "incremental-vs-scratch: consistent\n",
                ifcEngine->lastReport().flows.size(),
                ifcEngine->lastReport().violations());
  }

  // Specialize the fuzzed state through the semantics-check engine so
  // --jobs is exercised end-to-end. The verdict line is what the verdict
  // equivalence check compares across settings: every number is a pure
  // function of the fuzzed config, independent of thread count.
  auto result =
      core::Specializer(service, specializerOptions(opts)).specialize();
  std::printf("  specialization verdicts: %zu changes, %zu solver queries, "
              "%zu timeouts\n",
              result.stats.totalChanges(), result.stats.solverQueries,
              result.stats.solverTimeouts);
  return 0;
}

int cmdBulkload(const p4::CheckedProgram& checked, const Options& opts) {
  core::FlayOptions foptions;
  foptions.analysis.analyzeParser = !opts.skipParser;
  core::FlayService service(checked, foptions);
  applyCannedConfig(service, opts.config);

  // Stream source: the bulkroute workload generator when the program has
  // its FIB (constant memory at any --updates), otherwise a materialized
  // fuzzer pool round-robined across the program's tables.
  core::UpdateSource source;
  size_t next = 0;
  std::vector<runtime::Update> pool;
  if (service.config().hasTable("BulkIngress.routes")) {
    source = [&]() -> std::optional<runtime::Update> {
      if (next >= opts.updates) return std::nullopt;
      return net::bulkRouteUpdate(next++, opts.seed);
    };
  } else {
    pool = net::fuzzUpdateSequence(checked, opts.updates, opts.seed);
    source = [&]() -> std::optional<runtime::Update> {
      if (next >= pool.size()) return std::nullopt;
      return pool[next++];
    };
  }

  core::BulkLoadOptions bopts;
  bopts.chunkSize = opts.chunk;
  obs::Histogram verdictLatency;
  Stopwatch timer;
  core::BulkLoadReport rep = service.applyStream(
      source, bopts, [&](const core::BulkChunkVerdict& chunk) {
        verdictLatency.record(chunk.verdictLatencyUs);
      });
  double secs = timer.elapsedSeconds();

  std::printf(
      "bulkload: %llu/%llu updates applied (%llu rejected) in %zu chunk(s) "
      "of %zu\n",
      static_cast<unsigned long long>(rep.applied),
      static_cast<unsigned long long>(rep.updates),
      static_cast<unsigned long long>(rep.rejected), rep.chunks, opts.chunk);
  std::printf("  sustained: %.0f updates/s (%.3f s wall)\n",
              secs > 0 ? rep.updates / secs : 0.0, secs);
  std::printf("  verdict latency: p50=%lluus p99=%lluus max=%lluus\n",
              static_cast<unsigned long long>(verdictLatency.quantile(0.5)),
              static_cast<unsigned long long>(verdictLatency.quantile(0.99)),
              static_cast<unsigned long long>(verdictLatency.max()));
  std::printf("  expression-changing: %s, recompile-requiring: %s\n",
              rep.expressionsChanged ? "yes" : "no",
              rep.needsRecompilation ? "yes" : "no");

  // Pass/fail: the bulk path's incremental state must agree with a
  // from-scratch respecialization of the final config — the same oracle
  // fuzz runs use.
  oracle::ConsistencyReport consistency =
      oracle::checkIncrementalConsistency(service);
  if (!consistency.consistent) {
    std::fprintf(stderr,
                 "bulkload: INCREMENTAL DRIFT — %zu program point(s) disagree "
                 "with a from-scratch respecialization\n",
                 consistency.mismatchedPoints.size());
    std::fprintf(stderr,
                 "  reproduce: flayc bulkload %s --updates %zu --seed %llu "
                 "--chunk %zu\n",
                 opts.file.c_str(), opts.updates,
                 static_cast<unsigned long long>(opts.seed), opts.chunk);
    return 1;
  }
  std::printf("  incremental-vs-scratch: consistent (%zu points)\n",
              service.analysis().annotations.points().size());
  std::printf("  state digest: %s\n", service.stateDigest().c_str());

  // Specialize the bulk-loaded state through the semantics-check engine so
  // --jobs drives the parallel probes over the loaded config (the TSan job
  // runs bulkload with --jobs 4).
  auto result =
      core::Specializer(service, specializerOptions(opts)).specialize();
  std::printf("  specialization verdicts: %zu changes, %zu solver queries, "
              "%zu timeouts\n",
              result.stats.totalChanges(), result.stats.solverQueries,
              result.stats.solverTimeouts);
  return 0;
}

int cmdIfc(const p4::CheckedProgram& checked, const Options& opts) {
  if (opts.policyFile.empty()) argError("ifc needs --policy FILE");
  ifc::IfcPolicy policy = loadPolicy(opts.policyFile, checked);

  core::FlayOptions foptions;
  foptions.analysis.analyzeParser = !opts.skipParser;
  core::FlayService service(checked, foptions);
  core::CheckEngineOptions eopts;
  eopts.jobs = opts.jobs;
  service.checkEngine().configure(eopts);
  applyCannedConfig(service, opts.config);

  auto engine = std::make_shared<ifc::IfcEngine>(service, policy);
  service.attachAnalysis(engine);
  ifc::IfcReport report = engine->recheck();
  std::printf("ifc: %zu label(s), %zu sink(s), %zu declassification(s)\n",
              policy.labels.size(), policy.sinks.size(),
              policy.declassify.size());
  std::printf("initial %s", report.render().c_str());

  // Replay a fuzzed update stream (optionally filtered to --replay-updates
  // indices); after every applied update the attached engine has already
  // re-verdicted incrementally, and a from-scratch engine over the same
  // state must agree byte-for-byte.
  std::vector<runtime::Update> script =
      net::fuzzUpdateSequence(checked, opts.updates, opts.seed);
  size_t applied = 0, rejected = 0;
  std::string lastRender = report.render();
  for (size_t i = 0; i < script.size(); ++i) {
    if (opts.replayUpdatesSet &&
        std::find(opts.replayUpdates.begin(), opts.replayUpdates.end(), i) ==
            opts.replayUpdates.end()) {
      continue;
    }
    try {
      service.applyUpdate(script[i]);
    } catch (const std::invalid_argument&) {
      ++rejected;  // same contract as a sequential replay: count, move on
      continue;
    }
    ++applied;
    const ifc::IfcReport& inc = engine->lastReport();
    ifc::IfcReport scratch = engine->recheckFromScratch();
    if (scratch.render() != inc.render()) {
      std::fprintf(stderr,
                   "ifc: INCREMENTAL DRIFT after update %zu\n"
                   "--- incremental ---\n%s--- from-scratch ---\n%s"
                   "reproduce: flayc ifc %s --policy %s --updates %zu "
                   "--seed %llu\n",
                   i, inc.render().c_str(), scratch.render().c_str(),
                   opts.file.c_str(), opts.policyFile.c_str(), opts.updates,
                   static_cast<unsigned long long>(opts.seed));
      return 1;
    }
    std::string render = inc.render();
    if (render != lastRender) {
      std::printf("after update %zu: %zu violation(s)\n", i,
                  inc.violations());
      lastRender = std::move(render);
    }
  }

  std::printf("final %s", engine->lastReport().render().c_str());
  std::printf("ifc: %zu update(s) applied (%zu rejected), "
              "incremental-vs-scratch: consistent\n",
              applied, rejected);
  return 0;
}

int cmdDifftest(const p4::CheckedProgram& checked, const Options& opts) {
  oracle::OracleOptions ooptions;
  ooptions.updates = opts.updates;
  ooptions.packets = opts.packets;
  ooptions.seed = opts.seed;
  ooptions.shrink = opts.shrink;
  ooptions.flayOptions.analysis.analyzeParser = !opts.skipParser;
  if (opts.replayUpdatesSet) ooptions.replayUpdates = opts.replayUpdates;
  ooptions.probePacketOverride = opts.packetHex;
  ooptions.probeIngressPort = opts.ingressPort;
  ooptions.specializerOptions = specializerOptions(opts);
  if (opts.sabotage == "drop-entry") {
    ooptions.sabotage = oracle::OracleOptions::Sabotage::kDropMigratedEntry;
  } else if (!opts.sabotage.empty()) {
    std::fprintf(stderr, "unknown --sabotage '%s' (try drop-entry)\n",
                 opts.sabotage.c_str());
    return 2;
  }
  if (!opts.faultPlan.empty()) {
    ooptions.faultPlan = parseFaultPlan(opts.faultPlan);
  }

  oracle::DifferentialOracle diff(checked, ooptions, opts.file);
  oracle::OracleReport report = diff.run();

  std::printf("difftest: %zu/%zu updates applied (%zu rejected), "
              "%zu packets compared\n",
              report.updatesApplied, diff.script().size(),
              report.updatesRejected, report.packetsCompared);
  std::printf("  semantics-preserving checks: %zu\n", report.preservingChecks);
  std::printf("  full respecializations:      %zu\n",
              report.respecializations);
  if (ooptions.faultPlan.has_value()) {
    std::printf("  fault plan '%s': %zu retries, %zu degraded probe step(s)\n",
                ooptions.faultPlan->toString().c_str(), report.faultRetries,
                report.degradedSteps);
  }
  // --ifc-policy rider: replay the oracle's script on a side service with
  // an attached IFC engine, cross-checking incremental vs from-scratch
  // verdicts after every applied update.
  int ifcRc = 0;
  if (!opts.ifcPolicyFile.empty()) {
    core::FlayOptions sideOptions;
    sideOptions.analysis.analyzeParser = !opts.skipParser;
    core::FlayService side(checked, sideOptions);
    core::CheckEngineOptions eopts;
    eopts.jobs = opts.jobs;
    side.checkEngine().configure(eopts);
    auto engine = std::make_shared<ifc::IfcEngine>(
        side, loadPolicy(opts.ifcPolicyFile, checked));
    side.attachAnalysis(engine);
    engine->recheck();
    size_t checks = 0;
    for (const auto& u : diff.script()) {
      try {
        side.applyUpdate(u);
      } catch (const std::invalid_argument&) {
        continue;  // rejected by the replay contract: state unchanged
      }
      ++checks;
      if (engine->recheckFromScratch().render() !=
          engine->lastReport().render()) {
        std::fprintf(stderr,
                     "difftest: IFC INCREMENTAL DRIFT after %zu update(s)\n",
                     checks);
        ifcRc = 1;
        break;
      }
    }
    if (ifcRc == 0) {
      std::printf("  ifc cross-check: %zu update(s), %zu violation(s), "
                  "incremental-vs-scratch: consistent\n",
                  checks, engine->lastReport().violations());
    }
  }

  if (report.equivalent) {
    std::printf("  equivalent: original and specialized programs agree\n");
    return ifcRc;
  }

  std::fprintf(stderr, "difftest: NOT EQUIVALENT\n%s\n",
               report.divergence->describe().c_str());
  if (!report.shrunkUpdates.empty() || !report.shrunkPacketBytes.empty()) {
    std::fprintf(stderr, "shrunk to %zu update(s)%s\n",
                 report.shrunkUpdates.size(),
                 report.shrunkPacketBytes.empty()
                     ? ""
                     : " and a fixed probe packet");
  }
  std::fprintf(stderr, "reproduce: %s\n", report.reproCommand.c_str());
  return 1;
}

/// Removes journal/checkpoint files this tool creates in `dir` (and nothing
/// else — a user-supplied --state-dir may contain unrelated files).
void clearStateDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  while (dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    if (name == "journal.jsonl" || name.rfind("checkpoint-", 0) == 0) {
      ::unlink((dir + "/" + name).c_str());
    }
  }
  ::closedir(d);
}

int cmdCrashtest(const p4::CheckedProgram& checked, const Options& opts) {
  std::string dir = opts.stateDir;
  const bool ownDir = dir.empty();
  if (ownDir) dir = "flayc-crashtest-" + std::to_string(::getpid());

  ctrl::ControllerOptions copts;
  copts.stateDir = dir;
  copts.checkpointEvery = opts.checkpointEvery;
  copts.flay.analysis.analyzeParser = !opts.skipParser;
  copts.specializer = specializerOptions(opts);

  std::vector<runtime::Update> script =
      net::fuzzUpdateSequence(checked, opts.updates, opts.seed);

  // An update the engine rejects (e.g. a subset-replay artifact) leaves the
  // transaction aborted and the state unchanged on both sides of a crash.
  auto applyOne = [](ctrl::FaultTolerantController& ctl,
                     const runtime::Update& u) {
    try {
      ctl.apply(u);
    } catch (const std::invalid_argument&) {
    }
  };

  // Reference pass: one uninterrupted run, recording the state digest after
  // every transaction. reference[k] = digest with the first k updates applied.
  clearStateDir(dir);
  std::vector<std::string> reference;
  reference.reserve(script.size() + 1);
  {
    ctrl::FaultTolerantController ref(checked, nullptr, copts);
    reference.push_back(ref.stateDigest());
    for (const auto& u : script) {
      applyOne(ref, u);
      reference.push_back(ref.stateDigest());
    }
  }

  std::mt19937_64 rng(opts.seed ^ 0xC7A57ull);
  size_t mismatches = 0;
  uint64_t replayedTotal = 0;
  for (size_t point = 0; point < opts.killPoints; ++point) {
    size_t k = script.empty() ? 0 : 1 + rng() % script.size();
    clearStateDir(dir);
    {
      ctrl::FaultTolerantController run(checked, nullptr, copts);
      for (size_t j = 0; j < k; ++j) applyOne(run, script[j]);
      // The controller is dropped here with no shutdown work — the moral
      // equivalent of SIGKILL. Durability must come entirely from the
      // per-commit journal fsyncs and any checkpoints already on disk.
    }
    if (opts.tornTail) {
      // Simulate a write cut mid-record by the crash: recovery must treat
      // the torn tail as never-happened, not refuse to start.
      std::FILE* f = std::fopen((dir + "/journal.jsonl").c_str(), "ab");
      if (f != nullptr) {
        std::fputs("{\"seq\":999999,\"type\":\"upd", f);
        std::fclose(f);
      }
    }
    {
      ctrl::FaultTolerantController recovered(checked, nullptr, copts);
      replayedTotal += recovered.replayedUpdates();
      if (recovered.stateDigest() != reference[k]) {
        ++mismatches;
        std::fprintf(stderr,
                     "crashtest: MISMATCH after kill at update %zu: recovered "
                     "state differs from the uninterrupted run\n",
                     k);
        continue;
      }
      // A recovered controller must also accept the rest of the script
      // identically — recovery may not corrupt the id allocators or the
      // incremental analysis state it resumes from.
      for (size_t j = k; j < script.size(); ++j) {
        applyOne(recovered, script[j]);
      }
      if (recovered.stateDigest() != reference.back()) {
        ++mismatches;
        std::fprintf(stderr,
                     "crashtest: MISMATCH finishing the script after recovery "
                     "at update %zu\n",
                     k);
        continue;
      }
    }
    // What the recovered controller committed must survive a restart too:
    // its journal continues the one it recovered from (torn tail included).
    ctrl::FaultTolerantController restarted(checked, nullptr, copts);
    if (restarted.stateDigest() != reference.back()) {
      ++mismatches;
      std::fprintf(stderr,
                   "crashtest: MISMATCH after a second restart following "
                   "recovery at update %zu\n",
                   k);
    }
  }
  if (ownDir) {
    clearStateDir(dir);
    ::rmdir(dir.c_str());
  }

  std::printf("crashtest: %zu kill point(s) over %zu updates "
              "(checkpoint every %zu, %s tail), %llu updates replayed from "
              "the journal in total\n",
              opts.killPoints, script.size(), opts.checkpointEvery,
              opts.tornTail ? "torn" : "clean",
              static_cast<unsigned long long>(replayedTotal));
  if (mismatches != 0) {
    std::fprintf(stderr, "crashtest: FAILED — %zu mismatch(es)\n", mismatches);
    return 1;
  }
  std::printf("  recovered state digest matched the uninterrupted run at "
              "every kill point\n");
  return 0;
}

int cmdFleet(const p4::CheckedProgram& checked, const Options& opts) {
  fleet::FleetOptions fopts;
  fopts.devices = opts.devices;
  fopts.jobs = opts.jobs;
  fopts.queueCapacity = opts.queueCap;
  fopts.stateDirRoot = opts.stateDir;
  if (!opts.faultPlan.empty()) fopts.faultPlan = parseFaultPlan(opts.faultPlan);
  fopts.controller.checkpointEvery = opts.checkpointEvery;
  fopts.controller.seed = opts.seed;
  fopts.controller.flay.analysis.analyzeParser = !opts.skipParser;
  // --jobs means fleet-level concurrency here; each device's own
  // semantics-check engine stays single-threaded so N draining devices
  // don't oversubscribe the machine N*jobs ways.
  fopts.controller.specializer.jobs = 1;
  fopts.deviceCompiler.searchIterations = opts.iterations;

  std::vector<runtime::Update> script =
      net::fuzzUpdateSequence(checked, opts.updates, opts.seed);

  Stopwatch bringUp;
  fleet::FleetController fc(checked, fopts);
  double bringUpSecs = bringUp.elapsedSeconds();
  Stopwatch drainTimer;
  for (const auto& u : script) fc.broadcast(u);
  fc.drain();
  double drainSecs = drainTimer.elapsedSeconds();
  std::printf("fleet: %zu device(s), %zu update(s) broadcast, jobs=%zu\n",
              fc.deviceCount(), script.size(), opts.jobs);
  uint64_t applied = 0, rejected = 0, dropped = 0;
  for (size_t i = 0; i < fc.deviceCount(); ++i) {
    fleet::DeviceStatus s = fc.status(i);
    applied += s.applied;
    rejected += s.rejected;
    dropped += s.dropped;
    std::printf("  %s: applied=%llu rejected=%llu dropped=%llu retries=%llu "
                "replayed=%llu%s%s\n",
                s.name.c_str(), static_cast<unsigned long long>(s.applied),
                static_cast<unsigned long long>(s.rejected),
                static_cast<unsigned long long>(s.dropped),
                static_cast<unsigned long long>(s.retries),
                static_cast<unsigned long long>(s.replayed),
                s.degraded ? " DEGRADED" : "", s.failed ? " FAILED" : "");
  }
  std::printf("  aggregate: %llu applied, %llu rejected, %llu dropped; "
              "%zu degraded, %zu failed\n",
              static_cast<unsigned long long>(applied),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(dropped), fc.degradedDevices(),
              fc.failedDevices());
  std::printf("  throughput: %.1f updates/s (bring-up %.2f s, drain %.2f s)\n",
              drainSecs > 0 ? applied / drainSecs : 0.0, bringUpSecs,
              drainSecs);

  if (fc.failedDevices() != 0) {
    std::fprintf(stderr, "fleet: FAILED — %zu device(s) quarantined\n",
                 fc.failedDevices());
    return 1;
  }
  if (dropped != 0) {
    // A capped queue legitimately drops updates, so the devices saw
    // different streams; equal digests are no longer an invariant.
    std::printf("  state digests: not compared (%llu update(s) dropped)\n",
                static_cast<unsigned long long>(dropped));
    return 0;
  }
  // Every device received the identical stream, so every device must end in
  // the identical committed state — regardless of its fault plan.
  std::string first = fc.stateDigest(0);
  for (size_t i = 1; i < fc.deviceCount(); ++i) {
    if (fc.stateDigest(i) != first) {
      std::fprintf(stderr,
                   "fleet: DIVERGENCE — %s digest %s != %s digest %s\n",
                   fc.deviceName(i).c_str(), fc.stateDigest(i).c_str(),
                   fc.deviceName(0).c_str(), first.c_str());
      return 1;
    }
  }
  std::printf("  state digests: all %zu device(s) identical (%s), fleet %s\n",
              fc.deviceCount(), first.c_str(), fc.fleetDigest().c_str());
  return 0;
}

int cmdReplay(const p4::CheckedProgram& checked, const Options& opts) {
  replay::ReplayOptions ropts;
  ropts.devices = opts.devices;
  // The fuzz default of 32 packets is far too short to observe churn;
  // replay's own default only applies when --packets was not given.
  ropts.packets = opts.packetsSet ? opts.packets : 20000;
  ropts.updates = opts.updates;
  ropts.churnRate = opts.churnRate;
  ropts.jobs = opts.jobs;
  ropts.queueCapacity = opts.queueCap;
  ropts.seed = opts.seed;
  ropts.windowPackets = opts.window;
  ropts.mix = *net::parseMix(opts.mix);  // validated at arg-parse time
  if (!opts.faultPlan.empty()) ropts.faultPlan = parseFaultPlan(opts.faultPlan);
  ropts.controller.flay.analysis.analyzeParser = !opts.skipParser;
  ropts.controller.specializer = specializerOptions(opts);
  ropts.controller.specializer.jobs = 1;  // same rationale as cmdFleet
  ropts.controller.seed = opts.seed;
  ropts.deviceCompiler.searchIterations = opts.iterations;

  replay::LiveReplayHarness harness(checked, ropts);
  replay::ReplayReport report = harness.run();
  std::printf("%s", replay::describeReport(report).c_str());
  if (!report.ok) {
    std::fprintf(stderr, "replay: FAILED — %zu gate violation(s)\n",
                 report.gateFailures.size());
    return 1;
  }
  std::printf("  all gates passed\n");
  return 0;
}

// `flayc agent prog.p4l --connect PATH` — one device agent process: builds
// a FaultTolerantController over a SimulatedDevice and serves the wire
// protocol until the daemon says bye (or the connection drops).
int cmdAgent(const p4::CheckedProgram& checked, const Options& opts) {
  if (opts.connectPath.empty()) argError("agent needs --connect PATH");

  ctrl::ControllerOptions copts;
  copts.checkpointEvery = opts.checkpointEvery;
  copts.seed = opts.seed;
  copts.flay.analysis.analyzeParser = !opts.skipParser;
  copts.specializer = specializerOptions(opts);
  copts.specializer.jobs = 1;  // same rationale as cmdFleet
  if (!opts.stateDir.empty()) copts.stateDir = opts.stateDir;

  ctrl::FaultPlan plan;
  if (!opts.faultPlan.empty()) plan = parseFaultPlan(opts.faultPlan);
  tofino::CompilerOptions compilerOpts;
  compilerOpts.searchIterations = opts.iterations;
  ctrl::SimulatedDevice device(plan, tofino::PipelineModel{},
                                     compilerOpts);
  ctrl::FaultTolerantController ctl(checked, &device, copts);

  wire::Fd fd = wire::connectUnix(opts.connectPath);
  fleet::AgentEndpoint endpoint(checked, ctl, wire::FrameChannel(std::move(fd)),
                                opts.deviceName, opts.seed);
  bool ok = endpoint.serve();
  const fleet::AgentStats& st = endpoint.stats();
  std::printf("agent %s: batches=%llu applied=%llu rejected=%llu "
              "retries=%llu%s%s\n",
              opts.deviceName.c_str(),
              static_cast<unsigned long long>(st.batches),
              static_cast<unsigned long long>(st.applied),
              static_cast<unsigned long long>(st.rejected),
              static_cast<unsigned long long>(st.retries),
              ok ? "" : " FAILED", ctl.degraded() ? " DEGRADED" : "");
  if (!ok && !endpoint.lastError().empty()) {
    std::fprintf(stderr, "agent %s: %s\n", opts.deviceName.c_str(),
                 endpoint.lastError().c_str());
  }
  return ok ? 0 : 1;
}

// `flayc daemon prog.p4l --listen PATH [--spawn]` — the controller daemon:
// accepts --devices agent connections (optionally forking+exec'ing them
// itself), shards by program fingerprint at handshake, then drives the
// fuzzed update script down every accepted link concurrently and checks
// the replicated digests for divergence.
int cmdDaemon(const p4::CheckedProgram& checked, const Options& opts) {
  if (opts.listenPath.empty()) argError("daemon needs --listen PATH");

  wire::Fd listener = wire::listenUnix(opts.listenPath);
  std::string fingerprint = fleet::programFingerprint(checked);

  std::vector<pid_t> children;
  if (opts.spawnAgents) {
    // Each agent gets what FleetController gives member i: controller seed
    // and fault-plan seed offset by i, and its own state dir under DIR.
    std::optional<ctrl::FaultPlan> plan;
    if (!opts.faultPlan.empty()) plan = parseFaultPlan(opts.faultPlan);
    if (!opts.stateDir.empty()) {
      std::filesystem::create_directories(opts.stateDir);
    }
    const std::string checkpointEvery = std::to_string(opts.checkpointEvery);
    const std::string iterations = std::to_string(opts.iterations);
    for (size_t i = 0; i < opts.devices; ++i) {
      std::string device = "dev" + std::to_string(i);
      std::string seed = std::to_string(opts.seed + i);
      std::string planText;
      if (plan) {
        ctrl::FaultPlan member = *plan;
        member.seed = plan->seed + i;
        planText = member.toString();
      }
      std::string stateDir = opts.stateDir + "/" + device;
      // Built before fork(): the child only execs.
      std::vector<const char*> args = {
          opts.argv0.c_str(), "agent", opts.file.c_str(),
          "--connect", opts.listenPath.c_str(),
          "--device", device.c_str(),
          "--seed", seed.c_str(),
          "--checkpoint-every", checkpointEvery.c_str(),
          "--iterations", iterations.c_str()};
      if (plan) {
        args.push_back("--fault-plan");
        args.push_back(planText.c_str());
      }
      if (!opts.stateDir.empty()) {
        args.push_back("--state-dir");
        args.push_back(stateDir.c_str());
      }
      if (opts.skipParser) args.push_back("--skip-parser");
      args.push_back(nullptr);
      pid_t pid = fork();
      if (pid < 0) {
        std::fprintf(stderr, "daemon: fork failed: %s\n",
                     std::strerror(errno));
        return 1;
      }
      if (pid == 0) {
        execv(opts.argv0.c_str(), const_cast<char* const*>(args.data()));
        std::fprintf(stderr, "daemon: exec %s failed: %s\n",
                     opts.argv0.c_str(), std::strerror(errno));
        _Exit(127);
      }
      children.push_back(pid);
    }
  }

  std::vector<std::unique_ptr<fleet::AgentLink>> links;
  for (size_t i = 0; i < opts.devices; ++i) {
    wire::Fd conn = wire::acceptOne(listener);
    auto link = std::make_unique<fleet::AgentLink>(
        std::move(conn), "conn" + std::to_string(i));
    wire::Hello hello = link->handshake();
    if (hello.programFingerprint != fingerprint) {
      // Shard-by-program: this daemon only drives agents running the same
      // checked program; anything else is turned away at the door.
      link->reject("program fingerprint mismatch (daemon " + fingerprint +
                   ", agent " + hello.programFingerprint + ")");
      std::fprintf(stderr, "daemon: rejected %s (fingerprint mismatch)\n",
                   hello.deviceName.c_str());
      --i;  // the slot is still open
      continue;
    }
    link->accept();
    std::printf("daemon: accepted %s\n", hello.deviceName.c_str());
    links.push_back(std::move(link));
  }
  listener.reset();

  std::vector<runtime::Update> script =
      net::fuzzUpdateSequence(checked, opts.updates, opts.seed);
  std::vector<std::string> texts;
  texts.reserve(script.size());
  for (const auto& u : script) texts.push_back(u.toString());

  Stopwatch drainTimer;
  std::atomic<uint64_t> applied{0}, rejected{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> drivers;
  drivers.reserve(links.size());
  for (auto& linkPtr : links) {
    drivers.emplace_back([&, link = linkPtr.get()] {
      try {
        for (const auto& t : texts) link->enqueue(t);
        fleet::AgentLink::FlushDelta d = link->flush();
        applied += d.applied;
        rejected += d.rejected;
      } catch (const wire::WireError& e) {
        std::fprintf(stderr, "daemon: %s died: %s\n", link->label().c_str(),
                     e.what());
        ++failures;
      }
    });
  }
  for (auto& t : drivers) t.join();
  double drainSecs = drainTimer.elapsedSeconds();

  std::string firstDigest;
  bool diverged = false;
  for (auto& link : links) {
    if (!link->alive()) continue;
    try {
      wire::DigestReply reply = link->digest();
      if (firstDigest.empty()) {
        firstDigest = reply.digest;
      } else if (reply.digest != firstDigest) {
        std::fprintf(stderr, "daemon: DIVERGENCE — %s digest %s != %s\n",
                     link->label().c_str(), reply.digest.c_str(),
                     firstDigest.c_str());
        diverged = true;
      }
    } catch (const wire::WireError& e) {
      std::fprintf(stderr, "daemon: digest from %s failed: %s\n",
                   link->label().c_str(), e.what());
      ++failures;
    }
  }
  for (auto& link : links) link->bye();

  size_t childFailures = 0;
  for (pid_t pid : children) {
    int status = 0;
    if (waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      ++childFailures;
    }
  }
  unlink(opts.listenPath.c_str());

  std::printf("daemon: %zu agent(s), %zu update(s) each; applied=%llu "
              "rejected=%llu in %.2f s%s\n",
              links.size(), texts.size(),
              static_cast<unsigned long long>(applied.load()),
              static_cast<unsigned long long>(rejected.load()), drainSecs,
              firstDigest.empty()
                  ? ""
                  : ("; digest " + firstDigest).c_str());
  if (failures != 0 || childFailures != 0 || diverged) {
    std::fprintf(stderr,
                 "daemon: FAILED — %zu link failure(s), %zu agent exit "
                 "failure(s)%s\n",
                 failures.load(), childFailures,
                 diverged ? ", digests diverged" : "");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.argv0 = argv[0];
  // Strict parsing: a flag missing its value or an unknown flag is a
  // one-line diagnostic and exit 2 — never silently absorbed as a
  // positional argument.
  auto value = [&](int* i, const std::string& flag) -> std::string {
    if (*i + 1 >= argc) argError("missing value for " + flag);
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--skip-parser") {
      opts.skipParser = true;
    } else if (arg == "--iterations") {
      opts.iterations =
          static_cast<uint32_t>(parseNumber(value(&i, arg), "--iterations"));
    } else if (arg == "--config") {
      opts.config = value(&i, arg);
    } else if (arg == "--updates") {
      opts.updates = parseNumber(value(&i, arg), "--updates");
    } else if (arg == "--seed") {
      opts.seed = parseNumber(value(&i, arg), "--seed");
    } else if (arg == "--packets") {
      opts.packets = parseNumber(value(&i, arg), "--packets");
      opts.packetsSet = true;
    } else if (arg == "--mix") {
      opts.mix = value(&i, arg);
      if (!net::parseMix(opts.mix)) {
        argError("unknown --mix '" + opts.mix +
                 "' (uniform, heavy-hitter, port-scan, tunnel)");
      }
    } else if (arg == "--churn-rate") {
      std::string v = value(&i, arg);
      char* end = nullptr;
      opts.churnRate = std::strtod(v.c_str(), &end);
      if (v.empty() || end == nullptr || *end != '\0' || opts.churnRate < 0 ||
          opts.churnRate != opts.churnRate) {
        argError("bad number '" + v + "' for --churn-rate");
      }
    } else if (arg == "--window") {
      opts.window = parseNumber(value(&i, arg), "--window");
      if (opts.window == 0) argError("--window needs at least 1");
    } else if (arg == "--shrink") {
      opts.shrink = true;
    } else if (arg == "--no-shrink") {
      opts.shrink = false;
    } else if (arg == "--replay-updates") {
      opts.replayUpdatesSet = true;
      opts.replayUpdates = parseIndexList(value(&i, arg));
    } else if (arg == "--packet-hex") {
      opts.packetHex = parseHexBytes(value(&i, arg));
    } else if (arg == "--ingress-port") {
      opts.ingressPort =
          static_cast<uint32_t>(parseNumber(value(&i, arg), "--ingress-port"));
    } else if (arg == "--sabotage") {
      opts.sabotage = value(&i, arg);
    } else if (arg == "--fault-plan") {
      opts.faultPlan = value(&i, arg);
    } else if (arg == "--jobs") {
      opts.jobs = parseNumber(value(&i, arg), "--jobs");
      if (opts.jobs == 0) argError("--jobs needs at least 1");
    } else if (arg == "--kill-points") {
      opts.killPoints = parseNumber(value(&i, arg), "--kill-points");
    } else if (arg == "--checkpoint-every") {
      opts.checkpointEvery =
          parseNumber(value(&i, arg), "--checkpoint-every");
    } else if (arg == "--state-dir") {
      opts.stateDir = value(&i, arg);
    } else if (arg == "--devices") {
      opts.devices = parseNumber(value(&i, arg), "--devices");
      if (opts.devices == 0) argError("--devices needs at least 1");
    } else if (arg == "--queue-cap") {
      opts.queueCap = parseNumber(value(&i, arg), "--queue-cap");
    } else if (arg == "--listen") {
      opts.listenPath = value(&i, arg);
    } else if (arg == "--connect") {
      opts.connectPath = value(&i, arg);
    } else if (arg == "--device") {
      opts.deviceName = value(&i, arg);
      if (opts.deviceName.empty()) argError("--device needs a name");
    } else if (arg == "--spawn") {
      opts.spawnAgents = true;
    } else if (arg == "--policy") {
      opts.policyFile = value(&i, arg);
    } else if (arg == "--ifc-policy") {
      opts.ifcPolicyFile = value(&i, arg);
    } else if (arg == "--torn-tail") {
      opts.tornTail = true;
    } else if (arg == "--stats") {
      opts.stats = true;
    } else if (arg == "--stats=json") {
      opts.stats = true;
      opts.statsJson = true;
    } else if (arg == "--bulk") {
      opts.bulk = true;
    } else if (arg == "--chunk") {
      opts.chunk = parseNumber(value(&i, arg), "--chunk");
      if (opts.chunk == 0) argError("--chunk needs at least 1");
    } else if (arg == "--trace-out") {
      opts.traceOut = value(&i, arg);
    } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      argError("unknown flag '" + arg + "'");
    } else if (opts.command.empty()) {
      opts.command = arg;
    } else if (opts.file.empty()) {
      opts.file = arg;
    } else {
      argError("unexpected argument '" + arg + "'");
    }
  }
  if (opts.command.empty() || opts.file.empty()) return usage();

  if (!opts.traceOut.empty() &&
      !obs::Registry::global().openTrace(opts.traceOut)) {
    std::fprintf(stderr, "cannot open trace file '%s'\n",
                 opts.traceOut.c_str());
    return 1;
  }

  int rc;
  try {
    p4::CheckedProgram checked = p4::loadProgramFromFile(opts.file);
    if (opts.command == "check") {
      rc = cmdCheck(checked);
    } else if (opts.command == "print") {
      std::printf("%s", p4::printProgram(checked.program).c_str());
      rc = 0;
    } else if (opts.command == "analyze") {
      rc = cmdAnalyze(checked, opts);
    } else if (opts.command == "compile") {
      rc = cmdCompile(checked, opts);
    } else if (opts.command == "specialize") {
      rc = cmdSpecialize(checked, opts);
    } else if (opts.command == "fuzz") {
      rc = cmdFuzz(checked, opts);
    } else if (opts.command == "bulkload") {
      rc = cmdBulkload(checked, opts);
    } else if (opts.command == "difftest") {
      rc = cmdDifftest(checked, opts);
    } else if (opts.command == "ifc") {
      rc = cmdIfc(checked, opts);
    } else if (opts.command == "crashtest") {
      rc = cmdCrashtest(checked, opts);
    } else if (opts.command == "fleet") {
      rc = cmdFleet(checked, opts);
    } else if (opts.command == "replay") {
      rc = cmdReplay(checked, opts);
    } else if (opts.command == "daemon") {
      rc = cmdDaemon(checked, opts);
    } else if (opts.command == "agent") {
      rc = cmdAgent(checked, opts);
    } else {
      return usage();
    }
  } catch (const flay::CompileError& e) {
    std::fprintf(stderr, "error:\n%s\n", e.what());
    obs::Registry::global().closeTrace();
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    obs::Registry::global().closeTrace();
    return 1;
  }

  if (opts.stats) {
    if (opts.statsJson) {
      std::printf("%s\n", obs::Registry::global().toJson().c_str());
    } else {
      std::printf("%s", obs::Registry::global().snapshot().toText().c_str());
    }
  }
  obs::Registry::global().closeTrace();
  return rc;
}
