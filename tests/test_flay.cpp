#include <gtest/gtest.h>

#include <random>

#include "expr/analysis.h"
#include "expr/printer.h"
#include "flay/engine.h"
#include "flay/specializer.h"
#include "net/fuzzer.h"
#include "net/headers.h"
#include "net/workloads.h"
#include "sim/interpreter.h"

namespace flay::flay {
namespace {

using runtime::FieldMatch;
using runtime::TableEntry;
using runtime::Update;

// ---------------------------------------------------------------------------
// Fig. 5: constant-propagation query on egress_port
// ---------------------------------------------------------------------------

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

class Fig5Test : public ::testing::Test {
 protected:
  Fig5Test() : checked(p4::loadProgramFromString(kFig5Program)) {}

  /// The annotation for the final assignment to hdr.eth.dst (line 13).
  const ProgramPoint& dstAssignPoint(FlayService& service) {
    for (const auto& p : service.analysis().annotations.points()) {
      if (p.kind == PointKind::kAssignedValue &&
          p.label.find("assign hdr.eth.dst") != std::string::npos) {
        return p;
      }
    }
    throw std::logic_error("annotation not found");
  }

  TableEntry entry(uint64_t key, uint64_t port) {
    TableEntry e;
    e.matches.push_back(FieldMatch::exact(BitVec(48, key)));
    e.actionName = "set";
    e.actionArgs.push_back(BitVec(9, port));
    return e;
  }

  p4::CheckedProgram checked;
};

TEST_F(Fig5Test, EmptyTableSpecializesToConstant) {
  FlayService service(checked);
  // Block B of Fig. 5: empty table -> egress_port is 0 -> dst is 0xAAAA....
  const ProgramPoint& p = dstAssignPoint(service);
  ASSERT_TRUE(service.arena().isConst(p.specialized));
  EXPECT_EQ(service.arena().constValue(p.specialized),
            BitVec::parse(48, "0xAAAAAAAAAAAA"));
}

TEST_F(Fig5Test, GeneralExpressionMentionsPlaceholders) {
  FlayService service(checked);
  const ProgramPoint& p = dstAssignPoint(service);
  // Block A: the *unspecialized* expression references control-plane
  // placeholders of port_table.
  auto cpSyms = expr::collectSymbols(service.arena(), p.expr,
                                     expr::SymbolClass::kControlPlane);
  EXPECT_FALSE(cpSyms.empty());
  std::string rendered = expr::toString(service.arena(), p.expr);
  EXPECT_NE(rendered.find("Ingress.port_table"), std::string::npos);
}

TEST_F(Fig5Test, InsertingEntryChangesSemantics) {
  FlayService service(checked);
  // Block C: insert 0xDEADBEEFF00D -> set(1).
  auto verdict = service.applyUpdate(
      Update::insert("Ingress.port_table", entry(0xDEADBEEFF00Dull, 1)));
  EXPECT_TRUE(verdict.expressionsChanged);
  EXPECT_TRUE(verdict.needsRecompilation);
  EXPECT_TRUE(verdict.changedComponents.count("Ingress.port_table") != 0);

  const ProgramPoint& p = dstAssignPoint(service);
  EXPECT_FALSE(service.arena().isConst(p.specialized));
  // The specialized expression should test the packet's dst address.
  std::string rendered = expr::toString(service.arena(), p.specialized);
  EXPECT_NE(rendered.find("@hdr.eth.dst@"), std::string::npos);
  EXPECT_NE(rendered.find("0xdeadbeeff00d"), std::string::npos);
}

TEST_F(Fig5Test, HitConditionSpecializesToKeyComparison) {
  FlayService service(checked);
  service.applyUpdate(
      Update::insert("Ingress.port_table", entry(0xDEADBEEFF00Dull, 1)));
  const TableInfo& info = service.analysis().table("Ingress.port_table");
  expr::ExprRef hit = service.specialized(info.hitPoint);
  // hit == (@hdr.eth.dst@ == 0xdeadbeeff00d)
  std::string rendered = expr::toString(service.arena(), hit);
  EXPECT_EQ(rendered, "(@hdr.eth.dst@ == 0xdeadbeeff00d)");
}

TEST_F(Fig5Test, SemanticsPreservingUpdateDetected) {
  FlayService service(checked);
  service.applyUpdate(
      Update::insert("Ingress.port_table", entry(0xDEADBEEFF00Dull, 1)));
  // A second entry for a different key widens the hit condition — the
  // expressions change — but no specialization decision flips: the table
  // already needs its general implementation. This is exactly the
  // "trivial update that doesn't need recompilation" of §2.
  auto verdict = service.applyUpdate(
      Update::insert("Ingress.port_table", entry(0x1234, 1)));
  EXPECT_TRUE(verdict.expressionsChanged);
  EXPECT_FALSE(verdict.needsRecompilation);
  // Reaffirming the default action changes nothing at all.
  auto verdict2 = service.applyUpdate(
      Update::setDefault("Ingress.port_table", "noop", {}));
  EXPECT_FALSE(verdict2.expressionsChanged);
  EXPECT_FALSE(verdict2.needsRecompilation);
}

TEST_F(Fig5Test, SpecializedProgramDropsTableWhenEmpty) {
  FlayService service(checked);
  Specializer specializer(service);
  auto result = specializer.specialize();
  EXPECT_EQ(result.stats.removedTables, 1u);
  // Table declaration gone from the specialized program.
  EXPECT_EQ(result.program.controls[0].tables.size(), 0u);
  // Constant propagation turned the ternary into a constant assignment.
  EXPECT_GE(result.stats.propagatedConstants, 1u);
}

// ---------------------------------------------------------------------------
// Fig. 3: lifecycle of eth_table under updates (1)-(5)
// ---------------------------------------------------------------------------

const char* kFig3Program = R"(
header eth_t { bit<48> dst; bit<48> src; bit<16> type; }
struct headers { eth_t eth; }
parser P { state start { extract(hdr.eth); transition accept; } }
control Ingress {
  action set(bit<16> type) { hdr.eth.type = type; }
  action drop() { mark_to_drop(); }
  table eth_table {
    key = { hdr.eth.dst : ternary; }
    actions = { set; drop; noop; }
    default_action = noop;
  }
  apply { eth_table.apply(); }
}
deparser D { emit(hdr.eth); }
pipeline(P, Ingress, D);
)";

class Fig3Test : public ::testing::Test {
 protected:
  Fig3Test() : checked(p4::loadProgramFromString(kFig3Program)) {}

  TableEntry ternaryEntry(uint64_t key, uint64_t mask, uint64_t type,
                          int32_t priority) {
    TableEntry e;
    e.matches.push_back(
        FieldMatch::ternary(BitVec(48, key), BitVec(48, mask)));
    e.actionName = "set";
    e.actionArgs.push_back(BitVec(16, type));
    e.priority = priority;
    return e;
  }

  p4::CheckedProgram checked;
};

TEST_F(Fig3Test, Step1EmptyTableIsRemoved) {
  FlayService service(checked);
  auto result = Specializer(service).specialize();
  EXPECT_EQ(result.stats.removedTables, 1u);  // impl. A
  EXPECT_TRUE(result.program.controls[0].tables.empty());
}

TEST_F(Fig3Test, Step2ZeroMaskEntryInlinesAction) {
  FlayService service(checked);
  // Entry 1: [key: 0x1, mask: 0x0] -> set(0x800): matches every packet.
  auto verdict = service.applyUpdate(Update::insert(
      "Ingress.eth_table", ternaryEntry(0x1, 0x0, 0x800, 1)));
  EXPECT_TRUE(verdict.needsRecompilation);
  auto result = Specializer(service).specialize();
  EXPECT_EQ(result.stats.inlinedTables, 1u);  // impl. B
  EXPECT_TRUE(result.program.controls[0].tables.empty());
  // The inlined body assigns the constant 0x800.
  bool foundInline = false;
  for (const auto& s : result.program.controls[0].applyBody) {
    if (s->op == p4::StmtOp::kAssign &&
        s->rhs->value == BitVec(16, 0x800)) {
      foundInline = true;
    }
  }
  EXPECT_TRUE(foundInline);
}

TEST_F(Fig3Test, Step3FullMaskBecomesExactMatch) {
  FlayService service(checked);
  uint64_t fullMask = 0xFFFFFFFFFFFFull;
  service.applyUpdate(Update::insert(
      "Ingress.eth_table", ternaryEntry(0x2, fullMask, 0x900, 1)));
  auto result = Specializer(service).specialize();
  // impl. C: table kept, ternary key tightened to exact, drop removed.
  ASSERT_EQ(result.program.controls[0].tables.size(), 1u);
  const p4::TableDecl& t = result.program.controls[0].tables[0];
  EXPECT_EQ(t.keys[0].matchKind, p4::MatchKind::kExact);
  EXPECT_EQ(result.stats.convertedKeys, 1u);
  EXPECT_GE(result.stats.removedActions, 1u);  // drop is unused
  bool hasDrop = false;
  for (const auto& a : t.actionNames) hasDrop |= a == "drop";
  EXPECT_FALSE(hasDrop);
}

TEST_F(Fig3Test, Step4PartialMaskKeepsTernary) {
  FlayService service(checked);
  uint64_t fullMask = 0xFFFFFFFFFFFFull;
  service.applyUpdate(Update::insert(
      "Ingress.eth_table", ternaryEntry(0x2, fullMask, 0x900, 2)));
  auto verdict = service.applyUpdate(Update::insert(
      "Ingress.eth_table", ternaryEntry(0x5, 0x8, 0x700, 1)));
  EXPECT_TRUE(verdict.needsRecompilation)
      << "full-mask exact table regressing to ternary must recompile";
  auto result = Specializer(service).specialize();
  ASSERT_EQ(result.program.controls[0].tables.size(), 1u);
  EXPECT_EQ(result.program.controls[0].tables[0].keys[0].matchKind,
            p4::MatchKind::kTernary);  // impl. D needs TCAM again
}

TEST_F(Fig3Test, Step5EclipsedEntryDoesNotChangeSemantics) {
  FlayService service(checked);
  uint64_t fullMask = 0xFFFFFFFFFFFFull;
  service.applyUpdate(Update::insert(
      "Ingress.eth_table", ternaryEntry(0x2, fullMask, 0x900, 10)));
  service.applyUpdate(Update::insert(
      "Ingress.eth_table", ternaryEntry(0x5, 0x8, 0x700, 9)));
  // Entry 3 at lower priority, fully eclipsed by entry 2: entry 2 matches
  // every key with bit 3 == 0, and entry 3's region [key 0x6, mask 0xE]
  // pins bit 3 to 0. It can never win a lookup, so the update is
  // semantics-preserving and needs no recompilation (Fig. 3, step 5; the
  // mask is adapted from the paper's 0x7 so the region is genuinely
  // covered by entry 2 alone).
  auto verdict = service.applyUpdate(Update::insert(
      "Ingress.eth_table", ternaryEntry(0x6, 0xE, 0x200, 1)));
  EXPECT_FALSE(verdict.expressionsChanged);
  EXPECT_FALSE(verdict.needsRecompilation);
}

// ---------------------------------------------------------------------------
// Incremental behaviour: taint, batches, over-approximation
// ---------------------------------------------------------------------------

const char* kTwoTableProgram = R"(
header h_t { bit<8> a; bit<8> b; }
struct headers { h_t h; }
parser P { state start { extract(hdr.h); transition accept; } }
control C {
  action set_a(bit<8> v) { hdr.h.a = v; }
  action set_b(bit<8> v) { hdr.h.b = v; }
  table t1 {
    key = { hdr.h.a : exact; }
    actions = { set_a; noop; }
    default_action = noop;
  }
  table t2 {
    key = { hdr.h.b : ternary; }
    actions = { set_b; noop; }
    default_action = noop;
  }
  apply { t1.apply(); t2.apply(); }
}
deparser D { emit(hdr.h); }
pipeline(P, C, D);
)";

TEST(FlayIncremental, UpdatesOnlyTouchTaintedComponents) {
  auto checked = p4::loadProgramFromString(kTwoTableProgram);
  FlayService service(checked);
  TableEntry e;
  e.matches.push_back(FieldMatch::exact(BitVec(8, 1)));
  e.actionName = "set_a";
  e.actionArgs.push_back(BitVec(8, 42));
  auto verdict = service.applyUpdate(Update::insert("C.t1", e));
  EXPECT_TRUE(verdict.needsRecompilation);
  for (const auto& c : verdict.changedComponents) {
    EXPECT_EQ(c.find("C.t2"), std::string::npos)
        << "t2 must not be re-specialized by a t1 update";
  }
}

TEST(FlayIncremental, TaintMapCoversBothTables) {
  auto checked = p4::loadProgramFromString(kTwoTableProgram);
  FlayService service(checked);
  const auto& annotations = service.analysis().annotations;
  EXPECT_FALSE(annotations.affectedPoints("C.t1").empty());
  EXPECT_FALSE(annotations.affectedPoints("C.t2").empty());
}

TEST(FlayIncremental, BatchProcessesEachObjectOnce) {
  auto checked = p4::loadProgramFromString(kTwoTableProgram);
  FlayService service(checked);
  std::vector<Update> batch;
  for (int i = 0; i < 50; ++i) {
    TableEntry e;
    e.matches.push_back(FieldMatch::exact(BitVec(8, i)));
    e.actionName = "set_a";
    e.actionArgs.push_back(BitVec(8, i));
    batch.push_back(Update::insert("C.t1", e));
  }
  auto verdict = service.applyBatch(batch);
  EXPECT_TRUE(verdict.expressionsChanged);
  EXPECT_EQ(service.config().table("C.t1").size(), 50u);
}

TEST(FlayIncremental, OverapproximationKicksInPastThreshold) {
  auto checked = p4::loadProgramFromString(kTwoTableProgram);
  FlayOptions options;
  options.encoder.overapproxThreshold = 10;
  FlayService service(checked, options);

  net::EntryFuzzer fuzzer(7);
  auto entries =
      fuzzer.uniqueEntries(service.config().table("C.t2"), 11);
  std::vector<Update> batch;
  for (auto& e : entries) batch.push_back(Update::insert("C.t2", e));
  auto verdict = service.applyBatch(batch);
  EXPECT_TRUE(verdict.overapproximated);

  // Past the threshold the placeholders stay free: the specialized hit
  // expression is the placeholder itself (Block A form).
  const TableInfo& info = service.analysis().table("C.t2");
  EXPECT_EQ(service.specialized(info.hitPoint), info.hitSymbol);

  // Further inserts keep the over-approximation and do not flag changes.
  auto more = fuzzer.uniqueEntries(service.config().table("C.t2"), 5);
  for (auto& e : more) {
    auto v = service.applyUpdate(Update::insert("C.t2", e));
    EXPECT_TRUE(v.overapproximated);
    EXPECT_FALSE(v.expressionsChanged);
  }
}

TEST(FlayIncremental, PreciseModeIsSlowerThanOverapprox) {
  auto checked = p4::loadProgramFromString(kTwoTableProgram);
  // Precise mode with many entries vs overapprox: compare analysis times.
  FlayOptions precise;
  precise.encoder.overapproxThreshold = 100000;
  FlayService precisService(checked, precise);
  FlayOptions approx;
  approx.encoder.overapproxThreshold = 10;
  FlayService approxService(checked, approx);

  net::EntryFuzzer fuzzer(3);
  auto entries =
      fuzzer.uniqueEntries(precisService.config().table("C.t2"), 200);
  std::vector<Update> batch;
  for (auto& e : entries) batch.push_back(Update::insert("C.t2", e));
  precisService.applyBatch(batch);
  approxService.applyBatch(batch);

  // One more update each; precise must redo the 200-entry encoding.
  TableEntry probe;
  probe.matches.push_back(
      FieldMatch::ternary(BitVec(8, 0xAA), BitVec(8, 0xFF)));
  probe.actionName = "set_b";
  probe.actionArgs.push_back(BitVec(8, 1));
  probe.priority = 100000;
  auto slowVerdict = precisService.applyUpdate(Update::insert("C.t2", probe));
  auto fastVerdict = approxService.applyUpdate(Update::insert("C.t2", probe));
  EXPECT_FALSE(slowVerdict.overapproximated);
  EXPECT_TRUE(fastVerdict.overapproximated);
  EXPECT_GT(slowVerdict.analysisTime.count(), fastVerdict.analysisTime.count());
}

// ---------------------------------------------------------------------------
// Value sets
// ---------------------------------------------------------------------------

const char* kValueSetProgram = R"(
header e_t { bit<16> tag; bit<8> body; }
header v_t { bit<16> inner; }
struct headers { e_t e; v_t v; }
parser P {
  value_set<bit<16>>(4) vlan_tags;
  state start {
    extract(hdr.e);
    transition select(hdr.e.tag) {
      vlan_tags: parse_vlan;
      default: accept;
    }
  }
  state parse_vlan { extract(hdr.v); transition accept; }
}
control C {
  apply { if (hdr.v.isValid()) { sm.egress_spec = 2; } }
}
deparser D { emit(hdr.e); emit(hdr.v); }
pipeline(P, C, D);
)";

TEST(FlayValueSets, EmptyValueSetPrunesSelectCase) {
  auto checked = p4::loadProgramFromString(kValueSetProgram);
  FlayService service(checked);
  auto result = Specializer(service).specialize();
  EXPECT_GE(result.stats.removedSelectCases, 1u);
  // With the case gone, parse_vlan is unreachable: hdr.v is never valid and
  // the if-branch is eliminated too.
  EXPECT_GE(result.stats.eliminatedBranches, 1u);
}

TEST(FlayValueSets, PopulatedValueSetChangesSemantics) {
  auto checked = p4::loadProgramFromString(kValueSetProgram);
  FlayService service(checked);
  auto verdict = service.applyUpdate(Update::valueSetInsert(
      "P.vlan_tags", BitVec(16, 0x8100), BitVec::allOnes(16)));
  EXPECT_TRUE(verdict.needsRecompilation);
  auto result = Specializer(service).specialize();
  EXPECT_EQ(result.stats.removedSelectCases, 0u);
}

// ---------------------------------------------------------------------------
// Action profiles
// ---------------------------------------------------------------------------

TEST(FlayActionProfiles, EmptyProfileMeansTableNeverHits) {
  auto checked = p4::loadProgramFromString(R"(
header h_t { bit<8> a; }
struct headers { h_t h; }
parser P { state start { extract(hdr.h); transition accept; } }
control C {
  action_profile(8) prof;
  action set_a(bit<8> v) { hdr.h.a = v; }
  table t {
    key = { hdr.h.a : exact; }
    actions = { set_a; noop; }
    default_action = noop;
    implementation = prof;
  }
  apply { t.apply(); }
}
deparser D { emit(hdr.h); }
pipeline(P, C, D);
)");
  FlayService service(checked);
  auto result = Specializer(service).specialize();
  EXPECT_EQ(result.stats.removedTables, 1u);
}

// ---------------------------------------------------------------------------
// Differential testing: specialized == original under the active config
// ---------------------------------------------------------------------------

const char* kDiffProgram = R"(
header eth_t { bit<48> dst; bit<48> src; bit<16> type; }
header ipv4_t {
  bit<8> ttl; bit<8> proto; bit<32> src; bit<32> dst;
}
struct headers { eth_t eth; ipv4_t ipv4; }
parser P {
  state start {
    extract(hdr.eth);
    transition select(hdr.eth.type) {
      0x800: parse_ipv4;
      default: accept;
    }
  }
  state parse_ipv4 { extract(hdr.ipv4); transition accept; }
}
control Ingress {
  action fwd(bit<9> port) { sm.egress_spec = port; }
  action drop_pkt() { mark_to_drop(); }
  table route {
    key = { hdr.ipv4.dst : lpm; }
    actions = { fwd; drop_pkt; noop; }
    default_action = drop_pkt;
  }
  table acl {
    key = { hdr.ipv4.src : ternary; hdr.ipv4.proto : ternary; }
    actions = { drop_pkt; noop; }
    default_action = noop;
  }
  table empty_t {
    key = { hdr.eth.src : exact; }
    actions = { fwd; noop; }
    default_action = noop;
  }
  apply {
    if (hdr.ipv4.isValid()) {
      route.apply();
      acl.apply();
      if (hdr.ipv4.ttl == 0) { mark_to_drop(); } else { hdr.ipv4.ttl = hdr.ipv4.ttl - 1; }
    } else {
      fwd(1);
    }
    empty_t.apply();
  }
}
deparser D { emit(hdr.eth); emit(hdr.ipv4); }
pipeline(P, Ingress, D);
)";

class DiffTest : public ::testing::Test {
 protected:
  DiffTest() : checked(p4::loadProgramFromString(kDiffProgram)) {}

  /// Runs `count` random packets through original and specialized programs
  /// and checks the externally visible outcomes match.
  void expectEquivalent(FlayService& service, uint64_t seed, int count) {
    auto result = Specializer(service).specialize();
    p4::CheckedProgram specialized = recheck(std::move(result.program));
    runtime::DeviceConfig specializedConfig =
        migrateConfig(specialized, service.config());

    sim::DataPlaneState stateA(checked);
    sim::DataPlaneState stateB(specialized);
    sim::Interpreter interpA(checked, service.config(), stateA);
    sim::Interpreter interpB(specialized, specializedConfig, stateB);

    std::mt19937_64 rng(seed);
    for (int i = 0; i < count; ++i) {
      sim::Packet p = randomPacket(rng);
      sim::ExecResult a = interpA.process(p);
      sim::ExecResult b = interpB.process(p);
      ASSERT_EQ(a.parserAccepted, b.parserAccepted) << "packet " << i;
      ASSERT_EQ(a.dropped, b.dropped) << "packet " << i;
      if (!a.dropped) {
        ASSERT_EQ(a.egressPort, b.egressPort) << "packet " << i;
        ASSERT_EQ(a.outputBytes, b.outputBytes) << "packet " << i;
      }
    }
  }

  sim::Packet randomPacket(std::mt19937_64& rng) {
    net::EthHeader eth;
    eth.dst = rng() & 0xFFFFFFFFFFFFull;
    eth.src = rng() & 0xFFFFFFFFFFFFull;
    // Bias towards IPv4 so parsed branches get coverage.
    eth.type = (rng() % 4 != 0) ? 0x800 : static_cast<uint16_t>(rng());
    net::PacketBuilder b;
    b.eth(eth);
    if (eth.type == 0x800) {
      b.raw(BitVec(8, rng() % 4))        // ttl in {0..3}: exercises expiry
          .raw(BitVec(8, rng() % 2 == 0 ? 6 : 17))  // proto
          .raw(BitVec(32, rng()))
          .raw(BitVec(32, rng() % 2 == 0 ? (0x0A000000 | (rng() & 0xFFFF))
                                         : rng()));
    }
    sim::Packet p;
    p.bytes = b.build();
    p.ingressPort = static_cast<uint32_t>(rng() % 8);
    return p;
  }

  p4::CheckedProgram checked;
};

TEST_F(DiffTest, EmptyConfigSpecializationIsEquivalent) {
  FlayService service(checked);
  expectEquivalent(service, 42, 300);
}

TEST_F(DiffTest, RoutedConfigSpecializationIsEquivalent) {
  FlayService service(checked);
  TableEntry route;
  route.matches.push_back(FieldMatch::lpm(BitVec(32, 0x0A000000), 8));
  route.actionName = "fwd";
  route.actionArgs.push_back(BitVec(9, 3));
  service.applyUpdate(Update::insert("Ingress.route", route));
  TableEntry route2;
  route2.matches.push_back(FieldMatch::lpm(BitVec(32, 0x0A010000), 16));
  route2.actionName = "fwd";
  route2.actionArgs.push_back(BitVec(9, 4));
  service.applyUpdate(Update::insert("Ingress.route", route2));
  expectEquivalent(service, 99, 300);
}

TEST_F(DiffTest, AclConfigSpecializationIsEquivalent) {
  FlayService service(checked);
  TableEntry route;
  route.matches.push_back(FieldMatch::lpm(BitVec(32, 0), 0));
  route.actionName = "fwd";
  route.actionArgs.push_back(BitVec(9, 2));
  service.applyUpdate(Update::insert("Ingress.route", route));
  TableEntry acl;
  acl.matches.push_back(
      FieldMatch::ternary(BitVec(32, 0), BitVec(32, 0)));
  acl.matches.push_back(
      FieldMatch::ternary(BitVec(8, 17), BitVec(8, 0xFF)));
  acl.actionName = "drop_pkt";
  acl.priority = 10;
  service.applyUpdate(Update::insert("Ingress.acl", acl));
  expectEquivalent(service, 1234, 300);
}

TEST_F(DiffTest, FullMaskTernaryConversionIsEquivalent) {
  FlayService service(checked);
  TableEntry acl;
  acl.matches.push_back(
      FieldMatch::ternary(BitVec(32, 0xC0A80101), BitVec::allOnes(32)));
  acl.matches.push_back(
      FieldMatch::ternary(BitVec(8, 6), BitVec(8, 0xFF)));
  acl.actionName = "drop_pkt";
  acl.priority = 5;
  service.applyUpdate(Update::insert("Ingress.acl", acl));
  auto result = Specializer(service).specialize();
  EXPECT_GE(result.stats.convertedKeys, 2u);
  expectEquivalent(service, 777, 300);
}

// ---------------------------------------------------------------------------
// Analysis bookkeeping
// ---------------------------------------------------------------------------

TEST(FlayAnalysis, SkipParserModeProducesFreeSymbols) {
  auto checked = p4::loadProgramFromString(kDiffProgram);
  FlayOptions options;
  options.analysis.analyzeParser = false;
  FlayService service(checked, options);
  // In skip-parser mode the validity of ipv4 is a free symbol, so the
  // isValid branch cannot be eliminated even with an empty config (the
  // empty tables still specialize away — that is parser-independent).
  auto result = Specializer(service).specialize();
  ASSERT_FALSE(result.program.controls[0].applyBody.empty());
  EXPECT_EQ(result.program.controls[0].applyBody[0]->op, p4::StmtOp::kIf);
  EXPECT_EQ(result.stats.eliminatedBranches, 0u);
}

TEST(FlayAnalysis, AnalysisTimesAreRecorded) {
  auto checked = p4::loadProgramFromString(kDiffProgram);
  FlayService service(checked);
  EXPECT_GT(service.dataPlaneAnalysisTime().count(), 0);
  auto verdict = service.applyUpdate(
      Update::setDefault("Ingress.acl", "noop", {}));
  EXPECT_GE(verdict.analysisTime.count(), 0);
}

TEST(FlayAnalysis, MultipleApplySitesRejected) {
  EXPECT_THROW(
      {
        auto checked = p4::loadProgramFromString(R"(
header h_t { bit<8> a; }
struct headers { h_t h; }
parser P { state start { extract(hdr.h); transition accept; } }
control C {
  table t { key = { hdr.h.a : exact; } actions = { noop; } }
  apply { t.apply(); t.apply(); }
}
deparser D { emit(hdr.h); }
pipeline(P, C, D);
)");
        FlayService service(checked);
      },
      std::logic_error);
}

TEST(FlayAnalysis, PrunableHeadersReported) {
  auto checked = p4::loadProgramFromString(R"(
header a_t { bit<8> x; }
header unused_t { bit<16> y; }
struct headers { a_t a; unused_t u; }
parser P {
  state start { extract(hdr.a); transition next; }
  state next { extract(hdr.u); transition accept; }
}
control C { apply { sm.egress_spec = (bit<9>) hdr.a.x; } }
deparser D { emit(hdr.a); emit(hdr.u); }
pipeline(P, C, D);
)");
  FlayService service(checked);
  auto result = Specializer(service).specialize();
  ASSERT_EQ(result.stats.prunableHeaders.size(), 1u);
  EXPECT_EQ(result.stats.prunableHeaders[0], "hdr.u");
}

}  // namespace
}  // namespace flay::flay

namespace flay::flay {
namespace chained {
using runtime::FieldMatch;
using runtime::TableEntry;
using runtime::Update;

// With resolved chained encodings, specialization propagates THROUGH
// tables: an always-matching upstream entry pins the metadata a downstream
// table keys on, so the downstream table folds to a constant decision too.
TEST(FlayChained, SpecializationPropagatesThroughTableChain) {
  auto checked = p4::loadProgramFromString(R"(
header h_t { bit<8> a; }
struct headers { h_t h; }
struct metadata { bit<8> x; }
parser P { state start { extract(hdr.h); transition accept; } }
control C {
  action set_x(bit<8> v) { meta.x = v; }
  action set_port(bit<9> p) { sm.egress_spec = p; }
  table first {
    key = { hdr.h.a : ternary; }
    actions = { set_x; noop; }
    default_action = noop;
  }
  table second {
    key = { meta.x : exact; }
    actions = { set_port; noop; }
    default_action = noop;
  }
  apply { first.apply(); second.apply(); }
}
deparser D { emit(hdr.h); }
pipeline(P, C, D);
)");
  FlayService service(checked);

  // first: wildcard entry -> set_x(5): meta.x is ALWAYS 5.
  TableEntry always;
  always.matches.push_back(
      FieldMatch::ternary(BitVec(8, 0), BitVec(8, 0)));
  always.actionName = "set_x";
  always.actionArgs.push_back(BitVec(8, 5));
  always.priority = 1;
  service.applyUpdate(Update::insert("C.first", always));

  // second: entry for x == 5 -> set_port(7): always hits.
  TableEntry hit5;
  hit5.matches.push_back(FieldMatch::exact(BitVec(8, 5)));
  hit5.actionName = "set_port";
  hit5.actionArgs.push_back(BitVec(9, 7));
  service.applyUpdate(Update::insert("C.second", hit5));

  const TableInfo& second = service.analysis().table("C.second");
  EXPECT_TRUE(service.arena().isTrue(service.specialized(second.hitPoint)))
      << "the chain resolves: second's hit folds to constant true";

  // Both tables inline: the final program has no tables and the egress
  // port is the propagated constant 7.
  auto result = Specializer(service).specialize();
  EXPECT_EQ(result.stats.inlinedTables, 2u);
  EXPECT_TRUE(result.program.controls[0].tables.empty());

  // And the egress value annotation is the constant 7.
  for (const auto& p : service.analysis().annotations.points()) {
    if (p.kind == PointKind::kFinalValue &&
        p.label == "final:sm.egress_spec") {
      ASSERT_TRUE(service.arena().isConst(p.specialized));
      EXPECT_EQ(service.arena().constValue(p.specialized).toUint64(), 7u);
    }
  }
}

// If the upstream table is over-approximated, the chain must degrade
// conservatively: downstream stays general, never wrongly constant.
TEST(FlayChained, OverapproxUpstreamKeepsDownstreamGeneral) {
  auto checked = p4::loadProgramFromString(R"(
header h_t { bit<8> a; }
struct headers { h_t h; }
struct metadata { bit<8> x; }
parser P { state start { extract(hdr.h); transition accept; } }
control C {
  action set_x(bit<8> v) { meta.x = v; }
  action set_port(bit<9> p) { sm.egress_spec = p; }
  table first {
    key = { hdr.h.a : ternary; }
    actions = { set_x; noop; }
    default_action = noop;
    size = 256;
  }
  table second {
    key = { meta.x : exact; }
    actions = { set_port; noop; }
    default_action = noop;
  }
  apply { first.apply(); second.apply(); }
}
deparser D { emit(hdr.h); }
pipeline(P, C, D);
)");
  FlayOptions options;
  options.encoder.overapproxThreshold = 2;
  FlayService service(checked, options);

  net::EntryFuzzer fuzzer(17);
  auto entries = fuzzer.uniqueEntries(service.config().table("C.first"), 5);
  std::vector<Update> batch;
  for (auto& e : entries) batch.push_back(Update::insert("C.first", e));
  auto verdict = service.applyBatch(batch);
  EXPECT_TRUE(verdict.overapproximated);

  TableEntry hit5;
  hit5.matches.push_back(FieldMatch::exact(BitVec(8, 5)));
  hit5.actionName = "set_port";
  hit5.actionArgs.push_back(BitVec(9, 7));
  service.applyUpdate(Update::insert("C.second", hit5));

  const TableInfo& second = service.analysis().table("C.second");
  expr::ExprRef hit = service.specialized(second.hitPoint);
  EXPECT_FALSE(service.arena().isConst(hit))
      << "free upstream placeholders must keep the chain general";
}

}  // namespace chained
}  // namespace flay::flay

namespace flay::flay {
namespace deadheaders {

TEST(FlayDeadHeaders, UnreachedHeaderReportedDead) {
  auto checked = p4::loadProgramFromString(R"(
header a_t { bit<8> x; }
header v_t { bit<16> tag; }
struct headers { a_t a; v_t v; }
parser P {
  value_set<bit<8>>(4) vs;
  state start {
    extract(hdr.a);
    transition select(hdr.a.x) {
      vs: parse_v;
      default: accept;
    }
  }
  state parse_v { extract(hdr.v); transition accept; }
}
control C { apply { sm.egress_spec = 1; } }
deparser D { emit(hdr.a); emit(hdr.v); }
pipeline(P, C, D);
)");
  FlayService service(checked);
  // Empty value set: parse_v is unreachable, hdr.v can never become valid.
  auto result = Specializer(service).specialize();
  ASSERT_EQ(result.stats.deadHeaders.size(), 1u);
  EXPECT_EQ(result.stats.deadHeaders[0], "hdr.v");

  // Populate the value set: hdr.v is live again.
  service.applyUpdate(runtime::Update::valueSetInsert(
      "P.vs", BitVec(8, 0x42), BitVec::allOnes(8)));
  auto result2 = Specializer(service).specialize();
  EXPECT_TRUE(result2.stats.deadHeaders.empty());
}

}  // namespace deadheaders
// ---------------------------------------------------------------------------
// Migration shares the tables specialization left unchanged
// ---------------------------------------------------------------------------

namespace migration {

/// A table as migration rebuilt it before sharing: a fresh table under the
/// specialized decl with the original's default action and its normalized
/// entries inserted in precedence order (ids 1..n).
runtime::TableState rebuild(const p4::CheckedProgram& specialized,
                            const runtime::TableState& original,
                            const std::string& name) {
  runtime::DeviceConfig fresh(specialized);
  runtime::TableState table = fresh.table(name);
  table.setDefaultAction(original.defaultActionName(),
                         original.defaultActionArgs());
  for (const TableEntry* e : original.normalizedEntries()) {
    TableEntry copy = *e;
    copy.id = 0;
    table.insert(std::move(copy));
  }
  return table;
}

std::string renderIgnoringIds(const TableEntry& e) {
  std::string s = e.toString();
  for (const FieldMatch& m : e.matches) {
    s += " kind" + std::to_string(static_cast<int>(m.kind)) + " mask " +
         m.mask.toHexString() + " len " + std::to_string(m.prefixLen);
  }
  return s;
}

/// Migrates `service`'s config onto its specialization and checks every
/// shared table against the rebuild it replaces: the same normalized
/// entries apart from ids, the same counts, and the same interpreter
/// results (fields, egress, bytes, extern state) on fuzzed packets. Every
/// migrated table, shared or not, must sit under the specialized program's
/// declarations. Returns the migrated config and its specialized program.
std::pair<runtime::DeviceConfig, size_t> expectSharedTablesMatchRebuilds(
    const p4::CheckedProgram& checked, const FlayService& service,
    const p4::CheckedProgram& specialized) {
  const runtime::DeviceConfig& original = service.config();
  runtime::DeviceConfig shared = migrateConfig(specialized, original);
  runtime::DeviceConfig rebuilt = shared;

  size_t sharedTables = 0;
  for (const auto& [name, table] : shared.tables()) {
    const p4::ControlDecl* control = nullptr;
    for (const auto& c : specialized.program.controls) {
      if (&c == &table.control()) control = &c;
    }
    EXPECT_NE(control, nullptr) << name << " is not under the specialized program";
    if (control == nullptr) continue;
    bool declFound = false;
    for (const auto& d : control->tables) declFound |= &d == &table.decl();
    EXPECT_TRUE(declFound) << name;

    if (!original.hasTable(name) ||
        &table.entries() != &original.table(name).entries()) {
      continue;
    }
    ++sharedTables;
    runtime::TableState& r = rebuilt.table(name);
    r = rebuild(specialized, original.table(name), name);
    const auto& a = table.normalizedEntries();
    const auto& b = r.normalizedEntries();
    EXPECT_EQ(a.size(), b.size()) << name;
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      EXPECT_EQ(renderIgnoringIds(*a[i]), renderIgnoringIds(*b[i]))
          << name << " entry " << i;
    }
    EXPECT_EQ(table.defaultActionName(), r.defaultActionName()) << name;
    EXPECT_EQ(table.actionCounts(), r.actionCounts()) << name;
    EXPECT_EQ(table.maskedCounts(), r.maskedCounts()) << name;
  }

  sim::DataPlaneState stateShared(specialized);
  sim::DataPlaneState stateRebuilt(specialized);
  sim::Interpreter viaShared(specialized, shared, stateShared);
  sim::Interpreter viaRebuilt(specialized, rebuilt, stateRebuilt);
  net::PacketFuzzer fuzzer(checked, original, 29);
  for (int i = 0; i < 300; ++i) {
    sim::Packet packet = fuzzer.randomPacket();
    sim::ExecResult a = viaShared.process(packet);
    sim::ExecResult b = viaRebuilt.process(packet);
    EXPECT_EQ(a.parserAccepted, b.parserAccepted) << "packet " << i;
    EXPECT_EQ(a.dropped, b.dropped) << "packet " << i;
    EXPECT_EQ(a.egressPort, b.egressPort) << "packet " << i;
    EXPECT_EQ(a.outputBytes, b.outputBytes) << "packet " << i;
    EXPECT_TRUE(a.fields == b.fields) << "packet " << i;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(stateShared.externSnapshot(), stateRebuilt.externSnapshot());
  return {std::move(shared), sharedTables};
}

// migrateConfig re-seats an original table's contents under the specialized
// program when specialization left its schema unchanged and nothing in it
// is eclipsed. On fuzzed configs of three programs, every shared table must
// be interchangeable with the rebuild it replaces.
TEST(MigrationSharing, SharedTablesMatchTheRebuildTheyReplace) {
  for (const char* prog : {"middleblock", "switch", "scion"}) {
    SCOPED_TRACE(prog);
    p4::CheckedProgram checked =
        p4::loadProgramFromFile(net::programPath(prog));
    FlayService service(checked);
    if (std::string(prog) == "scion") {
      // A generic fuzzed script leaves scion's path checks failing, so the
      // specializer removes every table; light up both underlay chains and
      // add fuzzed routes instead.
      service.bulkLoad(net::scionCommonConfig());
      service.bulkLoad(net::scionV4Config(8));
      service.bulkLoad(net::scionV6Config(8));
      service.bulkLoad(net::scionV4RouteBurst(64));
    } else {
      service.bulkLoad(net::fuzzUpdateSequence(checked, 400, 23));
    }
    p4::CheckedProgram specialized =
        recheck(Specializer(service).specialize().program);
    EXPECT_GT(
        expectSharedTablesMatchRebuilds(checked, service, specialized).second,
        2u);
  }
}

// A table whose keys the specializer tightened (full-mask ternary -> exact)
// is rebuilt, not shared: its entries are converted to the new match kinds
// and lose their priorities. A table that kept its schema is shared.
TEST(MigrationSharing, ChangedSchemasAreRebuilt) {
  p4::CheckedProgram checked = p4::loadProgramFromString(kDiffProgram);
  FlayService service(checked);
  TableEntry route;
  route.matches.push_back(FieldMatch::lpm(BitVec(32, 0x0A000000), 8));
  route.actionName = "fwd";
  route.actionArgs.push_back(BitVec(9, 3));
  service.applyUpdate(Update::insert("Ingress.route", route));
  route.matches[0] = FieldMatch::lpm(BitVec(32, 0x0A010000), 16);
  route.actionName = "drop_pkt";
  route.actionArgs.clear();
  service.applyUpdate(Update::insert("Ingress.route", route));
  // Every declared action reachable: the route table keeps its schema.
  route.matches[0] = FieldMatch::lpm(BitVec(32, 0x0B000000), 8);
  route.actionName = "noop";
  service.applyUpdate(Update::insert("Ingress.route", route));
  TableEntry acl;
  acl.matches.push_back(
      FieldMatch::ternary(BitVec(32, 0xC0A80101), BitVec::allOnes(32)));
  acl.matches.push_back(FieldMatch::ternary(BitVec(8, 6), BitVec(8, 0xFF)));
  acl.actionName = "drop_pkt";
  acl.priority = 5;
  service.applyUpdate(Update::insert("Ingress.acl", acl));
  p4::CheckedProgram specialized =
      recheck(Specializer(service).specialize().program);
  auto [migrated, sharedTables] =
      expectSharedTablesMatchRebuilds(checked, service, specialized);
  EXPECT_EQ(sharedTables, 1u);
  EXPECT_EQ(&migrated.table("Ingress.route").entries(),
            &service.config().table("Ingress.route").entries());
  const runtime::TableState& migratedAcl = migrated.table("Ingress.acl");
  EXPECT_NE(&migratedAcl.entries(),
            &service.config().table("Ingress.acl").entries());
  ASSERT_EQ(migratedAcl.size(), 1u);
  for (const FieldMatch& m : migratedAcl.entries()[0].matches) {
    EXPECT_EQ(m.kind, p4::MatchKind::kExact);
  }
  EXPECT_EQ(migratedAcl.entries()[0].priority, 0);
}

// A table that keeps its schema but holds an eclipsed entry is rebuilt
// without that entry rather than shared with it.
TEST(MigrationSharing, TablesWithEclipsedEntriesAreRebuilt) {
  p4::CheckedProgram checked = p4::loadProgramFromString(kDiffProgram);
  FlayService service(checked);
  auto acl = [&](uint64_t src, uint64_t srcMask, uint64_t proto,
                 uint64_t protoMask, const char* action, int32_t priority) {
    TableEntry e;
    e.matches.push_back(
        FieldMatch::ternary(BitVec(32, src), BitVec(32, srcMask)));
    e.matches.push_back(
        FieldMatch::ternary(BitVec(8, proto), BitVec(8, protoMask)));
    e.actionName = action;
    e.priority = priority;
    service.applyUpdate(Update::insert("Ingress.acl", e));
  };
  acl(0, 0, 17, 0xFF, "noop", 10);
  acl(0x0A000001, 0xFFFFFFFF, 17, 0xFF, "drop_pkt", 1);  // eclipsed
  acl(0xC0A80101, 0xFFFFFFFF, 0, 0, "drop_pkt", 5);
  const runtime::TableState& original = service.config().table("Ingress.acl");
  ASSERT_EQ(original.normalizedEntries().size(), 2u);
  p4::CheckedProgram specialized =
      recheck(Specializer(service).specialize().program);
  runtime::DeviceConfig migrated =
      expectSharedTablesMatchRebuilds(checked, service, specialized).first;
  const runtime::TableState& migratedAcl = migrated.table("Ingress.acl");
  EXPECT_EQ(migratedAcl.decl().keys.size(), 2u);
  EXPECT_NE(&migratedAcl.entries(), &original.entries());
  EXPECT_EQ(migratedAcl.size(), 2u);
}

}  // namespace migration
}  // namespace flay::flay
