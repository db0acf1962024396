// IFC engine tests: the policy frontend, self-composition verdicts and
// delimited-release declassification on a hand-written program, the
// property harness (incremental == from-scratch after every update;
// soundness against a concrete interpreter taint oracle; declassification
// monotonicity) over randomized programs/policies/update streams, the
// warm-session scope-invalidation regression, and the pinned golden corpus
// for the bundled programs under two hand-written policies each.
//
// Regenerate goldens after an intentional verdict change with:
//   FLAY_UPDATE_GOLDEN=1 ./test_ifc

#include "ifc/ifc.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>

#include "flay/engine.h"
#include "net/fuzzer.h"
#include "net/workloads.h"
#include "p4/typecheck.h"
#include "sim/interpreter.h"

namespace flay::ifc {
namespace {

namespace core = ::flay::flay;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

// Two independent tables: `steer` picks the egress port from f0, `classify`
// derives metadata from f1. Both are empty until a test installs entries,
// so every flow starts trivially secure.
constexpr char kTinyProgram[] = R"(
header h_t { bit<16> f0; bit<16> f1; bit<16> f2; bit<16> f3; }
struct headers { h_t h; }
struct metadata { bit<16> m0; }
parser GenParser {
  state start { extract(hdr.h); transition accept; }
}
control Ing {
  action fwd(bit<9> port) { sm.egress_spec = port; }
  action set_m0(bit<16> p) { meta.m0 = p; }
  table steer {
    key = { hdr.h.f0 : exact; }
    actions = { fwd; noop; }
    default_action = noop;
    size = 64;
  }
  table classify {
    key = { hdr.h.f1 : exact; }
    actions = { set_m0; noop; }
    default_action = noop;
    size = 64;
  }
  apply {
    sm.egress_spec = 1;
    steer.apply();
    classify.apply();
  }
}
deparser GenDeparser { emit(hdr.h); }
pipeline(GenParser, Ing, GenDeparser);
)";

runtime::Update steerInsert(uint64_t key, uint64_t port) {
  runtime::TableEntry e;
  e.matches.push_back(runtime::FieldMatch::exact(BitVec(16, key)));
  e.actionName = "fwd";
  e.actionArgs.push_back(BitVec(9, port));
  return runtime::Update::insert("Ing.steer", std::move(e));
}

IfcPolicy tinyPolicy(const std::string& declassifyTable = "") {
  IfcPolicy p;
  p.labels["secret"] = {"hdr.h.f0"};
  SinkPolicy sink;
  sink.field = "sm.egress_spec";
  p.sinks.push_back(sink);
  if (!declassifyTable.empty()) {
    p.declassify.push_back({declassifyTable, "secret"});
  }
  return p;
}

FlowStatus onlyStatus(const IfcReport& report) {
  EXPECT_EQ(report.flows.size(), 1u);
  return report.flows.at(0).status;
}

// ---------------------------------------------------------------------------
// Policy frontend
// ---------------------------------------------------------------------------

TEST(IfcPolicy, ParseRenderFixpoint) {
  const char* text =
      "# comment\n"
      "label secret hdr.h.f0\n"
      "label secret hdr.h.f1\n"
      "label public hdr.h.f2\n"
      "sink sm.egress_spec allow public\n"
      "sink meta.m0 allow *\n"
      "sink hdr.h.f3 allow none\n"
      "declassify Ing.steer secret\n";
  IfcPolicy p = IfcPolicy::parse(text);
  EXPECT_EQ(p.labels.size(), 2u);
  EXPECT_EQ(p.sinks.size(), 3u);
  EXPECT_EQ(p.declassify.size(), 1u);
  EXPECT_EQ(p.labelsOf("hdr.h.f0"), std::set<std::string>{"secret"});
  EXPECT_TRUE(p.labelsOf("hdr.h.f3").empty());
  EXPECT_EQ(p.declassifiersFor("secret"),
            std::vector<std::string>{"Ing.steer"});
  EXPECT_TRUE(p.declassifiersFor("public").empty());
  std::string rendered = p.render();
  EXPECT_EQ(IfcPolicy::parse(rendered).render(), rendered);
}

TEST(IfcPolicy, ParseErrors) {
  EXPECT_THROW(IfcPolicy::parse("label secret\n"), std::invalid_argument);
  EXPECT_THROW(IfcPolicy::parse("sink a allow x\nsink a allow y\n"),
               std::invalid_argument);
  EXPECT_THROW(IfcPolicy::parse("sink a allow\n"), std::invalid_argument);
  EXPECT_THROW(IfcPolicy::parse("frobnicate a b\n"), std::invalid_argument);
  // A policy with no sinks checks nothing — rejected outright.
  EXPECT_THROW(IfcPolicy::parse("label secret hdr.h.f0\n"),
               std::invalid_argument);
}

TEST(IfcPolicy, ValidateRejectsUnknownNames) {
  auto checked = p4::loadProgramFromString(kTinyProgram);
  auto expectInvalid = [&](const std::string& text) {
    IfcPolicy p = IfcPolicy::parse(text);
    EXPECT_THROW(p.validate(checked), std::invalid_argument) << text;
  };
  expectInvalid("label s hdr.h.f9\nsink sm.egress_spec allow none\n");
  expectInvalid("label s hdr.h.f0\nsink hdr.nope allow none\n");
  expectInvalid(
      "label s hdr.h.f0\nsink sm.egress_spec allow none\n"
      "declassify Ing.missing s\n");
  // Declassifying a label with no source fields is meaningless.
  expectInvalid(
      "label s hdr.h.f0\nsink sm.egress_spec allow none\n"
      "declassify Ing.steer t\n");
  IfcPolicy ok = IfcPolicy::parse(
      "label s hdr.h.f0\nsink sm.egress_spec allow none\n"
      "declassify Ing.steer s\n");
  EXPECT_NO_THROW(ok.validate(checked));
}

// ---------------------------------------------------------------------------
// Verdicts on the tiny program
// ---------------------------------------------------------------------------

TEST(IfcEngine, EmptyConfigIsSecure) {
  auto checked = p4::loadProgramFromString(kTinyProgram);
  core::FlayService service(checked);
  IfcEngine engine(service, tinyPolicy());
  IfcReport report = engine.recheck();
  EXPECT_EQ(onlyStatus(report), FlowStatus::kSecure);
  // With `steer` empty, the egress is the constant 1: the taint pre-filter
  // alone settles the flow, no probe needed.
  EXPECT_TRUE(report.flows.at(0).sources.empty());
  EXPECT_EQ(report.violations(), 0u);
}

TEST(IfcEngine, InstalledEntryLeaks) {
  auto checked = p4::loadProgramFromString(kTinyProgram);
  core::FlayService service(checked);
  IfcEngine engine(service, tinyPolicy());
  EXPECT_EQ(onlyStatus(engine.recheck()), FlowStatus::kSecure);
  // An entry keyed on the secret field steers the port: packets differing
  // only in f0 now observably differ at the sink.
  service.applyUpdate(steerInsert(5, 7));
  IfcReport report = engine.recheck();
  EXPECT_EQ(onlyStatus(report), FlowStatus::kLeak);
  EXPECT_EQ(report.flows.at(0).sources,
            std::vector<std::string>{"hdr.h.f0"});
  EXPECT_EQ(report.violations(), 1u);
  // Removing the entry restores noninterference.
  uint64_t id = service.config().table("Ing.steer").entries().back().id;
  service.applyUpdate(runtime::Update::remove("Ing.steer", id));
  EXPECT_EQ(onlyStatus(engine.recheck()), FlowStatus::kSecure);
}

TEST(IfcEngine, DeclassifiedTableReleasesItsInstalledOutcome) {
  auto checked = p4::loadProgramFromString(kTinyProgram);
  core::FlayService service(checked);
  service.applyUpdate(steerInsert(5, 7));
  // Same leaking config as above, but the policy declassifies `steer`:
  // compared runs must agree on the installed entry's match outcome, and
  // under that agreement the egress value is fixed — secure.
  IfcEngine engine(service, tinyPolicy("Ing.steer"));
  IfcReport report = engine.recheck();
  EXPECT_EQ(onlyStatus(report), FlowStatus::kSecure);
  EXPECT_EQ(report.flows.at(0).declassifiers,
            std::vector<std::string>{"Ing.steer"});
}

TEST(IfcEngine, EmptyDeclassifiedTableReleasesNothing) {
  auto checked = p4::loadProgramFromString(kTinyProgram);
  core::FlayService service(checked);
  service.applyUpdate(steerInsert(5, 7));
  // Declassifying the *other* (empty) table must not sanction the leak
  // through `steer`: an empty table's match outcome is constant, so its
  // release constraint collapses to `true` and downgrades nothing.
  IfcEngine engine(service, tinyPolicy("Ing.classify"));
  EXPECT_EQ(onlyStatus(engine.recheck()), FlowStatus::kLeak);
}

TEST(IfcEngine, AllowedLabelProducesNoFlow) {
  auto checked = p4::loadProgramFromString(kTinyProgram);
  core::FlayService service(checked);
  IfcPolicy p = tinyPolicy();
  p.sinks.at(0).allowed.insert("secret");
  IfcEngine engine(service, p);
  service.applyUpdate(steerInsert(5, 7));
  IfcReport report = engine.recheck();
  EXPECT_TRUE(report.flows.empty());
  EXPECT_EQ(report.violations(), 0u);
}

TEST(IfcEngine, AttachedEngineRechecksOnEveryUpdate) {
  auto checked = p4::loadProgramFromString(kTinyProgram);
  core::FlayService service(checked);
  auto engine = std::make_shared<IfcEngine>(service, tinyPolicy());
  service.attachAnalysis(engine);
  engine->recheck();
  EXPECT_EQ(onlyStatus(engine->lastReport()), FlowStatus::kSecure);
  service.applyUpdate(steerInsert(5, 7));
  // No explicit recheck: the analysis notification already re-verdicted.
  EXPECT_EQ(onlyStatus(engine->lastReport()), FlowStatus::kLeak);
}

// ---------------------------------------------------------------------------
// Warm-session / memo regression (scope invalidation)
// ---------------------------------------------------------------------------

// IFC rechecks invalidate "ifc.<sink>" scopes on the service's shared check
// engine. That must retire only IFC entries: constant-verdict memos and
// warm probe sessions serving other scopes keep answering identically
// before, during, and after the invalidation.
TEST(IfcEngine, ScopeInvalidationDoesNotPoisonForeignVerdicts) {
  auto checked = p4::loadProgramFromString(kTinyProgram);
  core::FlayService service(checked);
  core::CheckEngine& ce = service.checkEngine();
  expr::ExprArena& arena = service.arena();

  // A non-trivial tautology over a data-plane symbol, memoized under a
  // specializer-style scope by a warm probe.
  expr::ExprRef f0 =
      arena.var("hdr.h.f0", 16, expr::SymbolClass::kDataPlane);
  expr::ExprRef three = arena.bvConst(BitVec(16, 3));
  expr::ExprRef tautology =
      arena.bOr(arena.eq(f0, three), arena.neq(f0, three));
  ASSERT_EQ(ce.boolVerdict(tautology, "spec.point"), core::TriVerdict::kTrue);

  auto engine = std::make_shared<IfcEngine>(service, tinyPolicy());
  service.attachAnalysis(engine);
  engine->recheck();

  // The update flips the IFC query for sm.egress_spec, forcing an
  // "ifc.sm.egress_spec" scope invalidation inside the attached recheck.
  service.applyUpdate(steerInsert(5, 7));
  EXPECT_EQ(onlyStatus(engine->lastReport()), FlowStatus::kLeak);

  EXPECT_EQ(ce.boolVerdict(tautology, "spec.point"), core::TriVerdict::kTrue);
  // An explicit IFC-scope invalidation on the warm engine: foreign memos
  // still answer, and the next IFC verdicts still match a fresh engine.
  ce.invalidateScope("ifc.sm.egress_spec");
  core::CheckOutcome outcome;
  EXPECT_EQ(ce.boolVerdict(tautology, "spec.point", &outcome),
            core::TriVerdict::kTrue);
  EXPECT_EQ(engine->recheck().render(),
            engine->recheckFromScratch().render());
  EXPECT_EQ(ce.boolVerdict(tautology, "spec.point"), core::TriVerdict::kTrue);
}

// ---------------------------------------------------------------------------
// Property harness: randomized programs, policies, and update streams
// ---------------------------------------------------------------------------

// PR-5-style generator (see test_incremental_compile.cpp), extended with
// port-steering and drop actions so the IFC observation (delivered, value)
// genuinely varies: tables match on header fields or earlier metadata and
// may set metadata, steer the egress port, or drop the packet.
std::string randomProgram(std::mt19937& rng, size_t numTables) {
  static const char* kKinds[] = {"exact", "ternary", "lpm"};
  std::ostringstream out;
  out << "header h_t { bit<16> f0; bit<16> f1; bit<16> f2; bit<16> f3; }\n"
      << "struct headers { h_t h; }\n"
      << "struct metadata {";
  for (size_t i = 0; i < numTables; ++i) out << " bit<16> m" << i << ";";
  out << " }\n"
      << "parser GenParser {\n"
      << "  state start { extract(hdr.h); transition accept; }\n"
      << "}\n"
      << "control Ing {\n";
  for (size_t i = 0; i < numTables; ++i) {
    bool steers = rng() % 2 == 0;
    bool drops = rng() % 4 == 0;
    out << "  action set_m" << i << "(bit<16> p) { meta.m" << i
        << " = p; }\n";
    if (steers) {
      out << "  action steer" << i << "(bit<9> p) { sm.egress_spec = p; }\n";
    }
    if (drops) {
      out << "  action drop" << i << "() { mark_to_drop(); }\n";
    }
    out << "  table t" << i << " {\n    key = {";
    size_t numKeys = 1 + rng() % 2;
    for (size_t k = 0; k < numKeys; ++k) {
      if (i > 0 && rng() % 3 == 0) {
        out << " meta.m" << rng() % i << " : exact;";
      } else {
        out << " hdr.h.f" << rng() % 4 << " : " << kKinds[rng() % 3] << ";";
      }
    }
    out << " }\n    actions = { set_m" << i << ";";
    if (steers) out << " steer" << i << ";";
    if (drops) out << " drop" << i << ";";
    out << " noop; }\n    default_action = noop;\n    size = 256;\n  }\n";
  }
  out << "  apply {\n    sm.egress_spec = 1;\n";
  for (size_t i = 0; i < numTables; ++i) out << "    t" << i << ".apply();\n";
  out << "  }\n}\n"
      << "deparser GenDeparser { emit(hdr.h); }\n"
      << "pipeline(GenParser, Ing, GenDeparser);\n";
  return out.str();
}

/// 1-2 labels over the four header fields, 1-3 deny-carrying sinks drawn
/// from the egress port, metadata, and raw header fields.
IfcPolicy randomPolicy(std::mt19937& rng, size_t numTables,
                       bool withDeclassify) {
  IfcPolicy p;
  static const char* kLabels[] = {"alpha", "beta"};
  size_t numLabels = 1 + rng() % 2;
  for (size_t l = 0; l < numLabels; ++l) {
    size_t numFields = 1 + rng() % 2;
    for (size_t f = 0; f < numFields; ++f) {
      p.labels[kLabels[l]].insert("hdr.h.f" + std::to_string(rng() % 4));
    }
  }
  SinkPolicy egress;
  egress.field = "sm.egress_spec";
  p.sinks.push_back(egress);
  if (rng() % 2 == 0) {
    SinkPolicy meta;
    meta.field = "meta.m" + std::to_string(rng() % numTables);
    // Sometimes allow the first label, leaving only the second in question.
    if (numLabels == 2 && rng() % 2 == 0) meta.allowed.insert(kLabels[0]);
    p.sinks.push_back(meta);
  }
  if (rng() % 3 == 0) {
    SinkPolicy hdr;
    hdr.field = "hdr.h.f" + std::to_string(rng() % 4);
    p.sinks.push_back(hdr);
  }
  if (withDeclassify && rng() % 2 == 0) {
    p.declassify.push_back(
        {"Ing.t" + std::to_string(rng() % numTables),
         kLabels[rng() % numLabels]});
  }
  return p;
}

/// Per-shard generator vitality: every shard must have applied real
/// updates and seen at least one LEAK verdict, or the random cases have
/// collapsed into checking nothing.
struct ShardStats {
  size_t applied = 0;
  size_t leaks = 0;
  size_t secureChecked = 0;

  void expectAlive() const {
    EXPECT_GT(applied, 0u) << "no fuzzed update ever applied";
    EXPECT_GT(leaks, 0u) << "no random case ever produced a LEAK";
  }
};

void countLeaks(const IfcReport& report, ShardStats* stats) {
  for (const auto& flow : report.flows) {
    if (flow.status == FlowStatus::kLeak) ++stats->leaks;
  }
}

/// Property (a): after every applied update the attached engine's
/// incremental report is byte-identical to a from-scratch engine's.
void runIncrementalCase(uint32_t seed, size_t updates, ShardStats* stats) {
  std::mt19937 rng(seed * 2654435761u + 1);
  size_t numTables = 2 + rng() % 4;
  auto checked = p4::loadProgramFromString(randomProgram(rng, numTables));
  core::FlayService service(checked);
  auto engine = std::make_shared<IfcEngine>(
      service, randomPolicy(rng, numTables, /*withDeclassify=*/true));
  service.attachAnalysis(engine);
  engine->recheck();
  ASSERT_EQ(engine->lastReport().render(),
            engine->recheckFromScratch().render());
  for (const auto& u : net::fuzzUpdateSequence(checked, updates, seed)) {
    try {
      service.applyUpdate(u);
    } catch (const std::invalid_argument&) {
      continue;  // fuzzed duplicate — state unchanged
    }
    ++stats->applied;
    IfcReport scratch = engine->recheckFromScratch();
    ASSERT_EQ(engine->lastReport().render(), scratch.render())
        << "incremental and from-scratch IFC verdicts diverged";
  }
  countLeaks(engine->lastReport(), stats);
}

TEST(IfcProperty, IncrementalMatchesScratchShard1) {
  ShardStats stats;
  for (uint32_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    runIncrementalCase(seed, 10, &stats);
  }
  stats.expectAlive();
}

TEST(IfcProperty, IncrementalMatchesScratchShard2) {
  ShardStats stats;
  for (uint32_t seed = 31; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    runIncrementalCase(seed, 10, &stats);
  }
  stats.expectAlive();
}

TEST(IfcProperty, IncrementalMatchesScratchShard3) {
  ShardStats stats;
  for (uint32_t seed = 61; seed <= 90; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    runIncrementalCase(seed, 10, &stats);
  }
  stats.expectAlive();
}

/// Concrete observation at a sink: delivered means the parser accepted and
/// the packet was not marked for drop — exactly the engine's O.
struct ConcreteObs {
  bool delivered = false;
  BitVec value;
};

ConcreteObs observe(const p4::CheckedProgram& checked,
                    const runtime::DeviceConfig& config,
                    const sim::Packet& packet, const std::string& sink) {
  sim::DataPlaneState state(checked);
  sim::Interpreter interp(checked, config, state);
  sim::ExecResult r = interp.process(packet);
  ConcreteObs obs;
  obs.delivered = r.parserAccepted && !r.dropped;
  if (obs.delivered) obs.value = r.field(sink);
  return obs;
}

/// Property (b), soundness: a flow the engine proved kSecure never
/// observably leaks on concrete packets. Packet pairs agree everywhere
/// except the flow's labeled source fields; for a secure flow the
/// (delivered, value) observation at the sink must be identical.
/// Declassification-free policies keep the oracle exact.
void runSoundnessCase(uint32_t seed, size_t updates, size_t pairs,
                      ShardStats* stats) {
  std::mt19937 rng(seed * 0x9e3779b9u + 7);
  size_t numTables = 2 + rng() % 4;
  auto checked = p4::loadProgramFromString(randomProgram(rng, numTables));
  core::FlayService service(checked);
  IfcPolicy policy = randomPolicy(rng, numTables, /*withDeclassify=*/false);
  IfcEngine engine(service, policy);
  for (const auto& u : net::fuzzUpdateSequence(checked, updates, seed)) {
    try {
      service.applyUpdate(u);
      ++stats->applied;
    } catch (const std::invalid_argument&) {
    }
  }
  IfcReport report = engine.recheck();
  countLeaks(report, stats);

  for (const auto& flow : report.flows) {
    if (flow.status != FlowStatus::kSecure) continue;
    ++stats->secureChecked;
    const std::set<std::string>& labeled = policy.labels.at(flow.label);
    for (size_t t = 0; t < pairs; ++t) {
      // h_t is four 16-bit fields: fK lives at byte offset 2K.
      sim::Packet a;
      a.bytes.resize(8);
      for (auto& b : a.bytes) b = static_cast<uint8_t>(rng());
      a.ingressPort = rng() % 4;
      sim::Packet b = a;
      for (const std::string& field : labeled) {
        size_t k = field.back() - '0';
        b.bytes[2 * k] = static_cast<uint8_t>(rng());
        b.bytes[2 * k + 1] = static_cast<uint8_t>(rng());
      }
      ConcreteObs oa = observe(checked, service.config(), a, flow.sink);
      ConcreteObs ob = observe(checked, service.config(), b, flow.sink);
      ASSERT_EQ(oa.delivered, ob.delivered)
          << "SECURE flow " << flow.label << " -> " << flow.sink
          << " leaked through deliverability (seed " << seed << ")";
      if (oa.delivered) {
        ASSERT_EQ(oa.value.toHexString(), ob.value.toHexString())
            << "SECURE flow " << flow.label << " -> " << flow.sink
            << " leaked through the sink value (seed " << seed << ")";
      }
    }
  }
}

TEST(IfcProperty, SoundVsInterpreterShard1) {
  ShardStats stats;
  for (uint32_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    runSoundnessCase(seed, 12, 16, &stats);
  }
  stats.expectAlive();
  EXPECT_GT(stats.secureChecked, 0u) << "oracle never saw a SECURE flow";
}

TEST(IfcProperty, SoundVsInterpreterShard2) {
  ShardStats stats;
  for (uint32_t seed = 31; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    runSoundnessCase(seed, 12, 16, &stats);
  }
  stats.expectAlive();
  EXPECT_GT(stats.secureChecked, 0u) << "oracle never saw a SECURE flow";
}

/// Property (c), monotonicity: adding a declassification annotation can
/// only release flows, never create a new violation.
void runMonotonicCase(uint32_t seed) {
  std::mt19937 rng(seed * 747796405u + 13);
  size_t numTables = 2 + rng() % 4;
  auto checked = p4::loadProgramFromString(randomProgram(rng, numTables));
  core::FlayService service(checked);
  for (const auto& u : net::fuzzUpdateSequence(checked, 12, seed)) {
    try {
      service.applyUpdate(u);
    } catch (const std::invalid_argument&) {
    }
  }
  IfcPolicy base = randomPolicy(rng, numTables, /*withDeclassify=*/false);
  IfcPolicy more = base;
  std::vector<std::string> labels = base.labelNames();
  more.declassify.push_back(
      {"Ing.t" + std::to_string(rng() % numTables),
       labels[rng() % labels.size()]});

  IfcEngine baseEngine(service, base);
  IfcEngine moreEngine(service, more);
  IfcReport baseReport = baseEngine.recheck();
  IfcReport moreReport = moreEngine.recheck();
  ASSERT_EQ(baseReport.flows.size(), moreReport.flows.size());
  for (size_t i = 0; i < baseReport.flows.size(); ++i) {
    const FlowVerdict& b = baseReport.flows[i];
    const FlowVerdict& m = moreReport.flows[i];
    ASSERT_EQ(b.label, m.label);
    ASSERT_EQ(b.sink, m.sink);
    EXPECT_FALSE(m.isViolation() && !b.isViolation())
        << "declassification created a violation for " << m.label << " -> "
        << m.sink << " (seed " << seed << ")";
  }
  EXPECT_LE(moreReport.violations(), baseReport.violations());
}

TEST(IfcProperty, DeclassificationMonotonicShard1) {
  for (uint32_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    runMonotonicCase(seed);
  }
}

TEST(IfcProperty, DeclassificationMonotonicShard2) {
  for (uint32_t seed = 31; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    runMonotonicCase(seed);
  }
}

// ---------------------------------------------------------------------------
// Golden corpus
// ---------------------------------------------------------------------------

std::string goldenPath(const std::string& name) {
  return std::string(FLAY_GOLDEN_DIR) + "/" + name + ".ifc.golden";
}

std::string policyPath(const std::string& name) {
  // programs/<x>.p4l lives next to programs/ifc/<name>.policy.
  std::string probe = net::programPath("x");
  std::string dir = probe.substr(0, probe.size() - std::string("/x.p4l").size());
  return dir + "/ifc/" + name + ".policy";
}

std::string readFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

struct GoldenCase {
  const char* program;
  const char* policy;  // "strict" or "open"
};

// gtest prints the parameter into each test's name; without this it dumps
// the two pointers' bytes, which move with every run under ASLR.
void PrintTo(const GoldenCase& gc, std::ostream* os) {
  *os << gc.program << "." << gc.policy;
}

class IfcGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

// The rendered verdict trajectory of each bundled program under each
// hand-written policy is pinned: a specializer/encoder/engine change that
// alters any IFC verdict shows up as a readable text diff.
TEST_P(IfcGoldenTest, VerdictTrajectoryMatchesGolden) {
  const GoldenCase& gc = GetParam();
  const std::string name = std::string(gc.program) + "." + gc.policy;
  auto checked = p4::loadProgramFromFile(net::programPath(gc.program));
  IfcPolicy policy = IfcPolicy::parseFile(
      policyPath(std::string(gc.program) + "-" + gc.policy));

  core::FlayService service(checked);
  auto engine = std::make_shared<IfcEngine>(service, policy);
  service.attachAnalysis(engine);

  std::ostringstream out;
  out << "# " << name << " — policy:\n" << policy.render();
  out << "initial\n" << engine->recheck().render();
  size_t applied = 0, rejected = 0;
  for (const auto& u : net::fuzzUpdateSequence(checked, 24, 7)) {
    try {
      service.applyUpdate(u);
    } catch (const std::invalid_argument&) {
      ++rejected;
      continue;
    }
    ++applied;
    if (applied % 8 == 0) {
      out << "after " << applied << " update(s)\n"
          << engine->lastReport().render();
    }
  }
  out << "final (" << applied << " applied, " << rejected << " rejected)\n"
      << engine->lastReport().render();
  // The trajectory must also agree with a from-scratch pass at the end.
  ASSERT_EQ(engine->lastReport().render(),
            engine->recheckFromScratch().render());
  std::string rendered = out.str();

  if (std::getenv("FLAY_UPDATE_GOLDEN") != nullptr) {
    std::ofstream gout(goldenPath(name), std::ios::binary);
    ASSERT_TRUE(gout) << "cannot write " << goldenPath(name);
    gout << rendered;
    GTEST_SKIP() << "regenerated " << goldenPath(name);
  }
  std::string expected = readFileOrEmpty(goldenPath(name));
  ASSERT_FALSE(expected.empty())
      << "missing golden file " << goldenPath(name)
      << " — regenerate with FLAY_UPDATE_GOLDEN=1";
  EXPECT_EQ(rendered, expected)
      << "IFC verdict trajectory of '" << name
      << "' drifted; if intentional, regenerate with FLAY_UPDATE_GOLDEN=1";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, IfcGoldenTest,
    ::testing::Values(GoldenCase{"scion", "strict"},
                      GoldenCase{"scion", "open"},
                      GoldenCase{"switch", "strict"},
                      GoldenCase{"switch", "open"},
                      GoldenCase{"middleblock", "strict"},
                      GoldenCase{"middleblock", "open"}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.program) + "_" + info.param.policy;
    });

}  // namespace
}  // namespace flay::ifc
