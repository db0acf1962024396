// Engine-level tests: verdict semantics for every update kind, binding
// resolution, and batch/sequential consistency.

#include <gtest/gtest.h>

#include "expr/printer.h"
#include "flay/engine.h"
#include "flay/specializer.h"
#include "net/fuzzer.h"
#include "p4/printer.h"
#include "sim/interpreter.h"

namespace flay::flay {
namespace {

using runtime::FieldMatch;
using runtime::TableEntry;
using runtime::Update;

const char* kProgram = R"(
header h_t { bit<8> a; bit<8> b; }
struct headers { h_t h; }
parser P { state start { extract(hdr.h); transition accept; } }
control C {
  action set_a(bit<8> v) { hdr.h.a = v; }
  action set_b(bit<8> v) { hdr.h.b = v; }
  action drop_pkt() { mark_to_drop(); }
  table t {
    key = { hdr.h.a : ternary; }
    actions = { set_a; set_b; drop_pkt; noop; }
    default_action = noop;
    size = 256;
  }
  apply { t.apply(); sm.egress_spec = 1; }
}
deparser D { emit(hdr.h); }
pipeline(P, C, D);
)";

TableEntry ternary(uint64_t v, uint64_t m, const char* action, uint64_t arg,
                   int32_t prio) {
  TableEntry e;
  e.matches.push_back(FieldMatch::ternary(BitVec(8, v), BitVec(8, m)));
  e.actionName = action;
  if (std::string(action) != "drop_pkt" && std::string(action) != "noop") {
    e.actionArgs.push_back(BitVec(8, arg));
  }
  e.priority = prio;
  return e;
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : checked(p4::loadProgramFromString(kProgram)) {}
  p4::CheckedProgram checked;
};

TEST_F(EngineTest, DeleteRestoresEmptyTableDecision) {
  FlayService service(checked);
  auto v1 = service.applyUpdate(
      Update::insert("C.t", ternary(1, 0xFF, "set_a", 9, 1)));
  EXPECT_TRUE(v1.needsRecompilation);  // empty -> live

  uint64_t id = service.config().table("C.t").entries()[0].id;
  auto v2 = service.applyUpdate(Update::remove("C.t", id));
  EXPECT_TRUE(v2.needsRecompilation);  // live -> empty again

  // The hit point is back to constant false.
  const TableInfo& info = service.analysis().table("C.t");
  EXPECT_TRUE(service.arena().isFalse(service.specialized(info.hitPoint)));
}

TEST_F(EngineTest, ModifyChangingActionTriggersRecompile) {
  FlayService service(checked);
  service.applyUpdate(Update::insert("C.t", ternary(1, 0xFF, "set_a", 9, 1)));
  uint64_t id = service.config().table("C.t").entries()[0].id;

  // Modify to a *different action*: reachable-action set changes.
  TableEntry modified = ternary(1, 0xFF, "drop_pkt", 0, 1);
  modified.id = id;
  auto verdict = service.applyUpdate(Update::modify("C.t", modified));
  EXPECT_TRUE(verdict.needsRecompilation);
}

TEST_F(EngineTest, ModifyChangingOnlyArgumentForwards) {
  FlayService service(checked);
  service.applyUpdate(Update::insert("C.t", ternary(1, 0xFF, "set_a", 9, 1)));
  service.applyUpdate(Update::insert("C.t", ternary(2, 0xFF, "set_a", 7, 2)));
  uint64_t id = service.config().table("C.t").entries()[0].id;

  // Same action, same key, new argument value: the expressions change but
  // the implementation stays general for that action.
  TableEntry modified = ternary(1, 0xFF, "set_a", 42, 1);
  modified.id = id;
  auto verdict = service.applyUpdate(Update::modify("C.t", modified));
  EXPECT_TRUE(verdict.expressionsChanged);
  EXPECT_FALSE(verdict.needsRecompilation);
}

TEST_F(EngineTest, SingleAlwaysMatchingEntryArgChangeIsSemantic) {
  // With ONE always-matching entry, the action argument is a propagated
  // constant (Fig. 3 B); changing it flips the constant -> recompile.
  FlayService service(checked);
  service.applyUpdate(Update::insert("C.t", ternary(0, 0, "set_a", 9, 1)));
  uint64_t id = service.config().table("C.t").entries()[0].id;
  TableEntry modified = ternary(0, 0, "set_a", 10, 1);
  modified.id = id;
  auto verdict = service.applyUpdate(Update::modify("C.t", modified));
  EXPECT_TRUE(verdict.needsRecompilation)
      << "an inlined constant changed value: the inlined body must change";
}

TEST_F(EngineTest, DefaultActionChangeTriggersRecompile) {
  FlayService service(checked);
  // Miss-path behaviour changes from noop to drop: recompile.
  auto verdict = service.applyUpdate(Update::setDefault("C.t", "drop_pkt", {}));
  EXPECT_TRUE(verdict.needsRecompilation);
  // Setting it to the same thing again: nothing changes.
  auto verdict2 = service.applyUpdate(Update::setDefault("C.t", "drop_pkt", {}));
  EXPECT_FALSE(verdict2.expressionsChanged);
}

// A table whose hit specializes to false has its default action's body
// inlined. Re-pointing the default at an action some entry already uses
// leaves the reachable-action set unchanged, but not the specialized
// program: the verdict must still say recompile.
TEST(EngineDefaultAction, SetDefaultToUsedActionOnNeverHitTableRecompiles) {
  p4::CheckedProgram checked = p4::loadProgramFromString(R"(
header h_t { bit<8> a; bit<8> b; }
struct headers { h_t h; }
struct metadata { bit<8> k; }
parser P { state start { extract(hdr.h); transition accept; } }
control C {
  action drop_pkt() { mark_to_drop(); }
  table t {
    key = { meta.k : exact; }
    actions = { drop_pkt; noop; }
    default_action = noop;
    size = 16;
  }
  apply {
    sm.egress_spec = (bit<9>) hdr.h.b;
    meta.k = 7;
    if (hdr.h.a == 1) { t.apply(); }
  }
}
deparser D { emit(hdr.h); }
pipeline(P, C, D);
)");
  FlayService service(checked);
  auto exact = [](uint64_t k, const char* action) {
    TableEntry e;
    e.matches.push_back(FieldMatch::exact(BitVec(8, k)));
    e.actionName = action;
    return e;
  };
  service.applyUpdate(Update::insert("C.t", exact(1, "drop_pkt")));
  service.applyUpdate(Update::insert("C.t", exact(2, "noop")));
  const TableInfo& info = service.analysis().table("C.t");
  ASSERT_TRUE(service.arena().isFalse(service.specialized(info.hitPoint)));
  std::string before =
      p4::printProgram(Specializer(service).specialize().program);

  auto verdict = service.applyUpdate(Update::setDefault("C.t", "drop_pkt", {}));
  std::string after =
      p4::printProgram(Specializer(service).specialize().program);
  ASSERT_NE(before, after) << "the inlined default body changed";
  EXPECT_TRUE(verdict.needsRecompilation);
}

// Above the over-approximation threshold the table digest tracks every
// installed action, so the specializer must keep every installed action
// too. Pruning the action of an eclipsed entry there lets a delete of the
// eclipsing entry re-expose it without a recompile verdict, and
// migrateConfig then drops the re-exposed entry from the device: a packet
// it matches misses on the installed program.
TEST_F(EngineTest, DeletingEclipsingEntryAboveThresholdKeepsDeviceCurrent) {
  FlayOptions options;
  options.encoder.overapproxThreshold = 2;
  FlayService service(checked, options);
  service.applyUpdate(Update::insert("C.t", ternary(0x00, 0x00, "set_b", 1, 10)));
  service.applyUpdate(  // eclipsed by the wildcard above
      Update::insert("C.t", ternary(0x05, 0xFF, "set_a", 0x42, 5)));
  service.applyUpdate(Update::insert("C.t", ternary(0x07, 0xFF, "set_b", 2, 20)));
  service.applyUpdate(Update::insert("C.t", ternary(0x10, 0xF0, "set_b", 3, 1)));
  auto installedResult = Specializer(service).specialize();
  std::string installedText = p4::printProgram(installedResult.program);
  p4::CheckedProgram installed = recheck(std::move(installedResult.program));

  uint64_t wildcard = service.config().table("C.t").entries()[0].id;
  auto verdict = service.applyUpdate(Update::remove("C.t", wildcard));
  std::string respecialized =
      p4::printProgram(Specializer(service).specialize().program);
  if (!verdict.needsRecompilation) {
    EXPECT_EQ(respecialized, installedText)
        << "the specialized program changed without a recompile verdict";
  } else {
    installed = recheck(Specializer(service).specialize().program);
  }

  // hdr.h.a = 0x05 now hits the formerly eclipsed set_a entry.
  sim::Packet packet;
  packet.bytes = {0x05, 0x00};
  runtime::DeviceConfig migrated = migrateConfig(installed, service.config());
  sim::DataPlaneState origState(checked), specState(installed);
  sim::ExecResult want =
      sim::Interpreter(checked, service.config(), origState).process(packet);
  sim::ExecResult got =
      sim::Interpreter(installed, migrated, specState).process(packet);
  ASSERT_EQ(want.outputBytes, (std::vector<uint8_t>{0x42, 0x00}));
  EXPECT_EQ(got.outputBytes, want.outputBytes);
}

TEST_F(EngineTest, MalformedUpdateThrowsAndLeavesStateIntact) {
  FlayService service(checked);
  TableEntry bad;
  bad.matches.push_back(FieldMatch::exact(BitVec(8, 1)));  // wrong kind
  bad.actionName = "set_a";
  bad.actionArgs.push_back(BitVec(8, 1));
  EXPECT_THROW(service.applyUpdate(Update::insert("C.t", bad)),
               std::invalid_argument);
  EXPECT_TRUE(service.config().table("C.t").empty());
  // Engine still fully functional afterwards.
  auto v = service.applyUpdate(
      Update::insert("C.t", ternary(1, 0xFF, "set_a", 1, 1)));
  EXPECT_TRUE(v.needsRecompilation);
}

TEST_F(EngineTest, BatchWithMalformedUpdateAnalyzesAppliedPrefix) {
  // Regression: applyBatch used to install updates 0..k-1 and then throw on
  // a malformed update k WITHOUT re-analyzing, leaving the annotations
  // describing a config that no longer exists.
  FlayService service(checked);
  std::vector<Update> batch;
  batch.push_back(Update::insert("C.t", ternary(1, 0xFF, "set_a", 9, 1)));
  TableEntry bad;
  bad.matches.push_back(FieldMatch::exact(BitVec(8, 1)));  // wrong match kind
  bad.actionName = "set_a";
  bad.actionArgs.push_back(BitVec(8, 1));
  batch.push_back(Update::insert("C.t", bad));
  batch.push_back(Update::insert("C.t", ternary(2, 0xFF, "set_b", 7, 2)));

  EXPECT_THROW(service.applyBatch(batch), std::invalid_argument);

  // The prefix before the malformed update is installed...
  ASSERT_EQ(service.config().table("C.t").size(), 1u);
  // ...and the annotations reflect it: the hit point must no longer be the
  // constant false of the empty table.
  const TableInfo& info = service.analysis().table("C.t");
  EXPECT_FALSE(service.arena().isFalse(service.specialized(info.hitPoint)));

  // The service must match a clean service that only ever saw the prefix.
  FlayService reference(checked);
  reference.applyUpdate(batch[0]);
  const auto& pa = service.analysis().annotations.points();
  const auto& pb = reference.analysis().annotations.points();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(expr::toString(service.arena(), pa[i].specialized),
              expr::toString(reference.arena(), pb[i].specialized))
        << pa[i].label;
  }
}

TEST_F(EngineTest, EmptyBatchWithOnlyMalformedUpdateThrowsCleanly) {
  FlayService service(checked);
  TableEntry bad;
  bad.matches.push_back(FieldMatch::exact(BitVec(8, 1)));
  bad.actionName = "set_a";
  bad.actionArgs.push_back(BitVec(8, 1));
  EXPECT_THROW(service.applyBatch({Update::insert("C.t", bad)}),
               std::invalid_argument);
  EXPECT_TRUE(service.config().table("C.t").empty());
  const TableInfo& info = service.analysis().table("C.t");
  EXPECT_TRUE(service.arena().isFalse(service.specialized(info.hitPoint)));
}

TEST_F(EngineTest, EmptyToFirstEntryLifecycle) {
  // Fig. 3 lifecycle around the empty state, using an argument-less action
  // so the verdicts isolate the table digest (no param constants involved).
  FlayService service(checked);
  const TableInfo& info = service.analysis().table("C.t");
  EXPECT_TRUE(service.arena().isFalse(service.specialized(info.hitPoint)));

  // Empty -> first exact-valued entry: semantics change (the hit condition
  // stops being constant false) and must recompile exactly because of that,
  // landing directly in the exact-encodable state.
  auto v1 = service.applyUpdate(
      Update::insert("C.t", ternary(3, 0xFF, "drop_pkt", 0, 1)));
  EXPECT_TRUE(v1.needsRecompilation);
  EXPECT_EQ(v1.changedComponents.count("C.t"), 1u);

  // Second exact-valued entry with the same action: the hit expression
  // changes but the implementation shape does not — no recompile. This pins
  // that the empty state did not leave a stale "masked" digest behind.
  auto v2 = service.applyUpdate(
      Update::insert("C.t", ternary(4, 0xFF, "drop_pkt", 0, 2)));
  EXPECT_TRUE(v2.expressionsChanged);
  EXPECT_FALSE(v2.needsRecompilation);

  // A genuinely masked entry changes the key shape: recompile (B -> C).
  auto v3 = service.applyUpdate(
      Update::insert("C.t", ternary(0x10, 0xF0, "drop_pkt", 0, 3)));
  EXPECT_TRUE(v3.needsRecompilation);

  // Deleting everything returns to the empty-table implementation.
  std::vector<uint64_t> ids;
  for (const auto& e : service.config().table("C.t").entries()) {
    ids.push_back(e.id);
  }
  UpdateVerdict last;
  for (uint64_t id : ids) {
    last = service.applyUpdate(Update::remove("C.t", id));
  }
  EXPECT_TRUE(last.needsRecompilation);
  EXPECT_TRUE(service.arena().isFalse(service.specialized(info.hitPoint)));
}

TEST_F(EngineTest, BatchEqualsSequentialSpecialization) {
  // Property: the final specialized state after applyBatch(u1..uN) equals
  // the state after applying u1..uN one at a time.
  std::vector<Update> updates;
  updates.push_back(Update::insert("C.t", ternary(0x10, 0xF0, "set_a", 1, 5)));
  updates.push_back(Update::insert("C.t", ternary(0x20, 0xF0, "set_b", 2, 4)));
  updates.push_back(Update::insert("C.t", ternary(0, 0, "drop_pkt", 0, 1)));
  updates.push_back(Update::setDefault("C.t", "drop_pkt", {}));

  FlayService batched(checked);
  batched.applyBatch(updates);
  FlayService sequential(checked);
  for (const auto& u : updates) sequential.applyUpdate(u);

  // Compare every specialized annotation by rendered form (the services
  // own distinct arenas, so refs are not comparable directly).
  const auto& pa = batched.analysis().annotations.points();
  const auto& pb = sequential.analysis().annotations.points();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(expr::toString(batched.arena(), pa[i].specialized),
              expr::toString(sequential.arena(), pb[i].specialized))
        << pa[i].label;
  }
}

TEST_F(EngineTest, ResolveSymbolReflectsBindings) {
  FlayService service(checked);
  const TableInfo& info = service.analysis().table("C.t");
  // Empty table: hit bound to false.
  EXPECT_TRUE(service.arena().isFalse(service.resolveSymbol(info.hitSymbol)));
  // Param symbol bound to zero placeholder constant.
  auto it = info.paramSymbols.find("set_a.v");
  ASSERT_NE(it, info.paramSymbols.end());
  EXPECT_TRUE(service.arena().isConst(service.resolveSymbol(it->second)));

  // Over-approximated: symbols become free again.
  FlayOptions options;
  options.encoder.overapproxThreshold = 1;
  FlayService approx(checked, options);
  net::EntryFuzzer fuzzer(3);
  auto entries = fuzzer.uniqueEntries(approx.config().table("C.t"), 3);
  std::vector<Update> batch;
  for (auto& e : entries) batch.push_back(Update::insert("C.t", e));
  approx.applyBatch(batch);
  const TableInfo& infoB = approx.analysis().table("C.t");
  EXPECT_EQ(approx.resolveSymbol(infoB.hitSymbol), infoB.hitSymbol);
}

TEST_F(EngineTest, TaintAblationGivesSameVerdicts) {
  FlayOptions noTaint;
  noTaint.useTaintMap = false;
  FlayService a(checked);
  FlayService b(checked, noTaint);
  for (const auto& u :
       {Update::insert("C.t", ternary(0x10, 0xF0, "set_a", 1, 5)),
        Update::insert("C.t", ternary(0x22, 0xFF, "set_a", 2, 4)),
        Update::setDefault("C.t", "drop_pkt", {})}) {
    auto va = a.applyUpdate(u);
    auto vb = b.applyUpdate(u);
    EXPECT_EQ(va.needsRecompilation, vb.needsRecompilation);
    EXPECT_EQ(va.expressionsChanged, vb.expressionsChanged);
  }
}

}  // namespace
}  // namespace flay::flay
