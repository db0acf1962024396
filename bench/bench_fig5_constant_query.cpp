// Fig. 5: Flay's representation of egress_port for the port_table program,
// plus the constant-query latency exhibit for the incremental SAT path.
//
// Part 1 (the paper figure): the symbolic value of egress_port at the final
// line across configuration states:
//   Block A (general):    |cfg| && |action|=="set" ? |port_var| : 0
//   Block B (empty table): 0                       -> dst := 0xAAAAAAAAAAAA
//   Block C (one entry):  @h.eth.dst@==0xDEADBEEFF00D ? 0x1 : 0x0
//
// Part 2 (the verdict hot path): repeated constantness queries over the
// program points of scion and switch, probed (a) by a fresh SAT solver per
// probe (smt::probeConstant) and (b) by one warm smt::ProbeSession, with
// encode and solve time reported separately, and then (c) asked through the
// check engine, whose verdict memo answers every repeated check. Two gates,
// each failing the bench with a nonzero exit: the engine path's per-check
// p99 stays under 100 us, and the warm session's per-probe p99 stays below
// the fresh solver's. Methodology notes live in EXPERIMENTS.md.

#include <chrono>
#include <cstdio>
#include <unordered_set>

#include "expr/analysis.h"
#include "expr/printer.h"
#include "flay/engine.h"
#include "net/fuzzer.h"
#include "net/workloads.h"
#include "obs/bench_report.h"
#include "obs/obs.h"
#include "smt/incremental.h"

namespace {

namespace p4 = flay::p4;
namespace runtime = flay::runtime;
namespace core = flay::flay;
namespace net = flay::net;
namespace obs = flay::obs;
namespace smt = flay::smt;
using flay::BitVec;
namespace expr = flay::expr;

const char* kFig5Program = R"(
header eth_t { bit<48> dst; bit<48> src; bit<16> type; }
struct headers { eth_t eth; }
parser P { state start { extract(hdr.eth); transition accept; } }
control Ingress {
  action set(bit<9> port_var) { sm.egress_spec = port_var; }
  table port_table {
    key = { hdr.eth.dst : exact; }
    actions = { set; noop; }
    default_action = noop;
  }
  apply {
    sm.egress_spec = 0;
    port_table.apply();
    hdr.eth.dst = sm.egress_spec == 0 ? 48w0xAAAAAAAAAAAA : 48w0xBBBBBBBBBBBB;
  }
}
deparser D { emit(hdr.eth); }
pipeline(P, Ingress, D);
)";


void show(const char* label, core::FlayService& service,
          expr::ExprRef egress, expr::ExprRef dst) {
  expr::PrintOptions opts;
  opts.maxDepth = 12;
  std::printf("%s\n", label);
  std::printf("  egress_port = %s\n",
              expr::toString(service.arena(), egress, opts).c_str());
  std::printf("  h.eth.dst   = %s\n",
              expr::toString(service.arena(), dst, opts).c_str());
  std::printf("  (egress dag size: %zu nodes)\n\n",
              expr::dagSize(service.arena(), egress));
}

struct PhaseStats {
  uint64_t queries = 0;
  uint64_t checkP50 = 0, checkP99 = 0;
  uint64_t encodeP50 = 0, encodeP99 = 0;
  uint64_t solveP50 = 0, solveP99 = 0;
};

/// The checks the engine would send to a solver: every program point's
/// specialized expression that constant folding does not settle and that
/// fits the engine's DAG limit, once per expression.
std::vector<core::CheckQuery> solverQueries(core::FlayService& service) {
  const expr::ExprArena& arena = service.arena();
  const size_t dagLimit = core::CheckEngineOptions{}.solverDagLimit;
  std::vector<core::CheckQuery> queries;
  std::unordered_set<uint32_t> seen;
  for (const auto& p : service.analysis().annotations.points()) {
    expr::ExprRef e = p.specialized;
    if (!e.valid() || arena.isConst(e)) continue;
    if (expr::dagSize(arena, e) > dagLimit) continue;
    if (!seen.insert(e.id).second) continue;
    queries.push_back({e, p.component});
  }
  return queries;
}

/// Per-probe quantiles from the registry's smt.* histograms, which every
/// probe (fresh or warm) records into.
PhaseStats probeStats() {
  obs::Registry& reg = obs::Registry::global();
  obs::Histogram& check = reg.histogram("smt.check_us");
  obs::Histogram& encode = reg.histogram("smt.encode_us");
  obs::Histogram& solve = reg.histogram("smt.solve_us");
  PhaseStats s;
  s.queries = check.count();
  s.checkP50 = check.quantile(0.5);
  s.checkP99 = check.quantile(0.99);
  s.encodeP50 = encode.quantile(0.5);
  s.encodeP99 = encode.quantile(0.99);
  s.solveP50 = solve.quantile(0.5);
  s.solveP99 = solve.quantile(0.99);
  return s;
}

/// (a) `rounds` passes of fresh-solver probes over `queries`.
PhaseStats measureFresh(const expr::ExprArena& arena,
                        const std::vector<core::CheckQuery>& queries,
                        int rounds) {
  const uint64_t budget = core::CheckEngineOptions{}.solverConflictBudget;
  obs::Registry::global().reset();
  for (int r = 0; r < rounds; ++r) {
    for (const auto& q : queries) smt::probeConstant(arena, q.expr, budget);
  }
  return probeStats();
}

/// (b) `rounds` passes over `queries` on one warm session, after one
/// uncounted warm-up pass, so the numbers are steady-state: the one-time
/// encode of the shared program structure is what the fresh solver pays per
/// probe, not a recurring cost of the warm path.
PhaseStats measureWarm(const expr::ExprArena& arena,
                       const std::vector<core::CheckQuery>& queries,
                       int rounds) {
  const uint64_t budget = core::CheckEngineOptions{}.solverConflictBudget;
  smt::ProbeSession session(arena);
  session.setNodeWatermark(static_cast<uint32_t>(arena.numNodes()));
  for (const auto& q : queries) session.probe(q.expr, q.scope, budget);
  obs::Registry::global().reset();
  for (int r = 0; r < rounds; ++r) {
    for (const auto& q : queries) session.probe(q.expr, q.scope, budget);
  }
  return probeStats();
}

/// (c) `rounds` passes of verdict calls through the service's check engine,
/// one per program point, after a prefetch has settled them: the repeated
/// constant-query traffic an update burst produces. Latency is in ns.
obs::HistogramStats measureEngine(core::FlayService& service, int rounds) {
  core::CheckEngine& engine = service.checkEngine();
  const auto& points = service.analysis().annotations.points();
  std::vector<core::CheckQuery> all;
  for (const auto& p : points) all.push_back({p.specialized, p.component});
  engine.prefetch(all);
  // Discard the staging so every call below goes through the memo.
  engine.prefetch({});
  obs::Histogram latency;
  for (int r = 0; r < rounds; ++r) {
    for (const auto& p : points) {
      auto t0 = std::chrono::steady_clock::now();
      if (service.arena().isBool(p.specialized)) {
        engine.boolVerdict(p.specialized, p.component);
      } else {
        engine.constVerdict(p.specialized, p.component);
      }
      latency.record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
  }
  obs::HistogramStats s;
  s.count = latency.count();
  s.p50 = latency.quantile(0.5);
  s.p99 = latency.quantile(0.99);
  return s;
}

void printPhase(const char* label, const PhaseStats& s) {
  std::printf("  %-22s %5llu queries | check p50 %4llu p99 %4llu us | "
              "encode p50 %4llu p99 %4llu us | solve p50 %4llu p99 %4llu us\n",
              label, static_cast<unsigned long long>(s.queries),
              static_cast<unsigned long long>(s.checkP50),
              static_cast<unsigned long long>(s.checkP99),
              static_cast<unsigned long long>(s.encodeP50),
              static_cast<unsigned long long>(s.encodeP99),
              static_cast<unsigned long long>(s.solveP50),
              static_cast<unsigned long long>(s.solveP99));
}

}  // namespace

int main() {
  p4::CheckedProgram checked = p4::loadProgramFromString(kFig5Program);
  core::FlayService service(checked);

  // Locate the two interesting annotations: the final value of
  // sm.egress_spec and of hdr.eth.dst.
  uint32_t egressId = UINT32_MAX, dstId = UINT32_MAX;
  for (const auto& p : service.analysis().annotations.points()) {
    if (p.kind == core::PointKind::kFinalValue &&
        p.label == "final:sm.egress_spec") {
      egressId = p.id;
    }
    if (p.kind == core::PointKind::kAssignedValue &&
        p.label.find("assign hdr.eth.dst") != std::string::npos) {
      dstId = p.id;
    }
  }

  std::printf("Fig. 5: symbolic value of egress_port across config states\n\n");
  show("Block A (general data-plane expression, before specialization):",
       service, service.analysis().annotations.point(egressId).expr,
       service.analysis().annotations.point(dstId).expr);

  show("Block B (initial configuration: empty table):", service,
       service.specialized(egressId), service.specialized(dstId));

  runtime::TableEntry e;
  e.matches.push_back(
      runtime::FieldMatch::exact(BitVec::parse(48, "0xDEADBEEFF00D")));
  e.actionName = "set";
  e.actionArgs.push_back(BitVec(9, 1));
  auto verdict = service.applyUpdate(
      runtime::Update::insert("Ingress.port_table", e));

  char label[128];
  std::snprintf(label, sizeof label,
                "Block C (insert 0xDEADBEEFF00D -> set(0x01); "
                "analysis %.3f ms, recompile=%s):",
                verdict.analysisTime.count() / 1000.0,
                verdict.needsRecompilation ? "yes" : "no");
  show(label, service, service.specialized(egressId),
       service.specialized(dstId));

  std::printf(
      "Shape check: Block B folds to constants; Block C branches on the\n"
      "packet's dst address exactly as in the paper's figure.\n\n");

  // -------------------------------------------------------------------------
  // Constant-query latency: fresh solver per probe vs one warm session, then
  // the engine path, same run, on the two largest bundled programs.
  constexpr int kRounds = 5;
  constexpr uint64_t kGateP99Us = 100;
  bool enginePassed = true;
  bool warmPassed = true;
  std::vector<std::pair<std::string, double>> metrics = {
      {"insert_analysis_ms", verdict.analysisTime.count() / 1000.0},
      {"insert_recompile", verdict.needsRecompilation ? 1.0 : 0.0}};

  std::printf("Constant-query hot path (%d rounds per phase):\n", kRounds);
  for (const char* prog : {"scion", "switch"}) {
    p4::CheckedProgram program =
        p4::loadProgramFromFile(net::programPath(prog));
    core::FlayService svc(program);
    for (const auto& u : net::fuzzUpdateSequence(program, 40, 7)) {
      svc.applyUpdate(u);
    }
    std::printf("%s:\n", prog);
    std::vector<core::CheckQuery> queries = solverQueries(svc);
    PhaseStats fresh = measureFresh(svc.arena(), queries, kRounds);
    printPhase("fresh solver/probe", fresh);
    PhaseStats warm = measureWarm(svc.arena(), queries, kRounds);
    printPhase("warm session/probe", warm);
    obs::HistogramStats engine = measureEngine(svc, kRounds);
    const double engineP50Us = engine.p50 / 1000.0;
    const double engineP99Us = engine.p99 / 1000.0;
    std::printf("  %-22s %5llu checks  | p50 %.2f p99 %.2f us\n",
                "engine (memo)", static_cast<unsigned long long>(engine.count),
                engineP50Us, engineP99Us);
    bool engineOk = engine.count > 0 && engineP99Us < kGateP99Us;
    bool warmOk = warm.queries > 0 && warm.checkP99 < fresh.checkP99;
    std::printf("  p99 gate (<%llu us on the engine path): %s\n",
                static_cast<unsigned long long>(kGateP99Us),
                engineOk ? "PASS" : "FAIL");
    std::printf("  warm gate (warm p99 %llu < fresh p99 %llu us): %s\n",
                static_cast<unsigned long long>(warm.checkP99),
                static_cast<unsigned long long>(fresh.checkP99),
                warmOk ? "PASS" : "FAIL");
    enginePassed &= engineOk;
    warmPassed &= warmOk;
    std::string prefix(prog);
    metrics.emplace_back(prefix + "_fresh_check_p50_us",
                         static_cast<double>(fresh.checkP50));
    metrics.emplace_back(prefix + "_fresh_check_p99_us",
                         static_cast<double>(fresh.checkP99));
    metrics.emplace_back(prefix + "_fresh_encode_p99_us",
                         static_cast<double>(fresh.encodeP99));
    metrics.emplace_back(prefix + "_fresh_solve_p99_us",
                         static_cast<double>(fresh.solveP99));
    metrics.emplace_back(prefix + "_incremental_check_p50_us",
                         static_cast<double>(warm.checkP50));
    metrics.emplace_back(prefix + "_incremental_check_p99_us",
                         static_cast<double>(warm.checkP99));
    metrics.emplace_back(prefix + "_incremental_encode_p99_us",
                         static_cast<double>(warm.encodeP99));
    metrics.emplace_back(prefix + "_incremental_solve_p99_us",
                         static_cast<double>(warm.solveP99));
    metrics.emplace_back(prefix + "_engine_check_p50_us", engineP50Us);
    metrics.emplace_back(prefix + "_engine_check_p99_us", engineP99Us);
    metrics.emplace_back(prefix + "_queries_per_round",
                         static_cast<double>(queries.size()));
  }
  metrics.emplace_back("p99_gate_us", static_cast<double>(kGateP99Us));
  metrics.emplace_back("p99_gate_passed", enginePassed ? 1.0 : 0.0);
  metrics.emplace_back("warm_gate_passed", warmPassed ? 1.0 : 0.0);

  flay::obs::writeBenchReport("fig5_constant_query", metrics);
  if (!enginePassed) {
    std::printf("\nFAIL: engine-path constant-query p99 exceeded the gate\n");
  }
  if (!warmPassed) {
    std::printf("\nFAIL: warm-session p99 did not beat the fresh solver\n");
  }
  return enginePassed && warmPassed ? 0 : 1;
}
