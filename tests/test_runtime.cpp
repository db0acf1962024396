#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "flay/encoder.h"
#include "net/fuzzer.h"
#include "p4/typecheck.h"
#include "runtime/device_config.h"

namespace flay::runtime {
namespace {

const char* kProgram = R"(
header h_t { bit<8> a; bit<8> b; bit<32> ip; }
struct headers { h_t h; }
parser P { state start { extract(hdr.h); transition accept; } }
control C {
  action set_a(bit<8> v) { hdr.h.a = v; }
  action drop_pkt() { mark_to_drop(); }
  table exact_t {
    key = { hdr.h.a : exact; }
    actions = { set_a; drop_pkt; noop; }
    default_action = noop;
    size = 16;
  }
  table ternary_t {
    key = { hdr.h.a : ternary; hdr.h.b : ternary; }
    actions = { set_a; noop; }
    default_action = noop;
  }
  table lpm_t {
    key = { hdr.h.ip : lpm; }
    actions = { set_a; noop; }
    default_action = noop;
  }
  apply { exact_t.apply(); ternary_t.apply(); lpm_t.apply(); }
}
deparser D { emit(hdr.h); }
pipeline(P, C, D);
)";

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest()
      : checked(p4::loadProgramFromString(kProgram)), config(checked) {}
  p4::CheckedProgram checked;
  DeviceConfig config;

  TableEntry exactEntry(uint64_t key, const std::string& action,
                        std::vector<BitVec> args = {}) {
    TableEntry e;
    e.matches.push_back(FieldMatch::exact(BitVec(8, key)));
    e.actionName = action;
    e.actionArgs = std::move(args);
    return e;
  }
};

TEST_F(RuntimeTest, ConfigEnumeratesTables) {
  EXPECT_TRUE(config.hasTable("C.exact_t"));
  EXPECT_TRUE(config.hasTable("C.ternary_t"));
  EXPECT_TRUE(config.hasTable("C.lpm_t"));
  EXPECT_FALSE(config.hasTable("C.ghost"));
  EXPECT_EQ(config.tables().size(), 3u);
}

TEST_F(RuntimeTest, InsertLookupRemove) {
  TableState& t = config.table("C.exact_t");
  uint64_t id = t.insert(exactEntry(7, "set_a", {BitVec(8, 99)}));
  EXPECT_EQ(t.size(), 1u);
  const TableEntry* hit = t.lookup({BitVec(8, 7)});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->actionName, "set_a");
  EXPECT_EQ(hit->actionArgs[0].toUint64(), 99u);
  EXPECT_EQ(t.lookup({BitVec(8, 8)}), nullptr);
  t.remove(id);
  EXPECT_TRUE(t.empty());
}

TEST_F(RuntimeTest, RejectsSchemaViolations) {
  TableState& t = config.table("C.exact_t");
  // Wrong width.
  TableEntry wrongWidth;
  wrongWidth.matches.push_back(FieldMatch::exact(BitVec(16, 7)));
  wrongWidth.actionName = "noop";
  EXPECT_THROW(t.insert(wrongWidth), std::invalid_argument);
  // Wrong match kind.
  TableEntry wrongKind;
  wrongKind.matches.push_back(
      FieldMatch::ternary(BitVec(8, 7), BitVec(8, 0xFF)));
  wrongKind.actionName = "noop";
  EXPECT_THROW(t.insert(wrongKind), std::invalid_argument);
  // Unknown action.
  EXPECT_THROW(t.insert(exactEntry(1, "ghost")), std::invalid_argument);
  // Wrong arity.
  EXPECT_THROW(t.insert(exactEntry(1, "set_a")), std::invalid_argument);
  // Priority on non-ternary table.
  TableEntry prio = exactEntry(1, "noop");
  prio.priority = 5;
  EXPECT_THROW(t.insert(prio), std::invalid_argument);
  // Duplicates.
  t.insert(exactEntry(1, "noop"));
  EXPECT_THROW(t.insert(exactEntry(1, "noop")), std::invalid_argument);
}

TEST_F(RuntimeTest, TableCapacityEnforced) {
  TableState& t = config.table("C.exact_t");
  for (uint64_t i = 0; i < 16; ++i) t.insert(exactEntry(i, "noop"));
  EXPECT_THROW(t.insert(exactEntry(16, "noop")), std::invalid_argument);
}

TEST_F(RuntimeTest, TernaryPriorityWins) {
  TableState& t = config.table("C.ternary_t");
  TableEntry low;
  low.matches.push_back(FieldMatch::ternary(BitVec(8, 0), BitVec(8, 0)));
  low.matches.push_back(FieldMatch::ternary(BitVec(8, 0), BitVec(8, 0)));
  low.actionName = "noop";
  low.priority = 1;
  t.insert(low);

  TableEntry high;
  high.matches.push_back(
      FieldMatch::ternary(BitVec(8, 0xA0), BitVec(8, 0xF0)));
  high.matches.push_back(FieldMatch::ternary(BitVec(8, 0), BitVec(8, 0)));
  high.actionName = "set_a";
  high.actionArgs.push_back(BitVec(8, 1));
  high.priority = 10;
  t.insert(high);

  const TableEntry* hit = t.lookup({BitVec(8, 0xAB), BitVec(8, 3)});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->actionName, "set_a");
  // Key outside the high-priority region falls to the wildcard.
  hit = t.lookup({BitVec(8, 0x10), BitVec(8, 3)});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->actionName, "noop");
}

TEST_F(RuntimeTest, LongestPrefixWins) {
  TableState& t = config.table("C.lpm_t");
  TableEntry p8;
  p8.matches.push_back(FieldMatch::lpm(BitVec(32, 0x0A000000), 8));
  p8.actionName = "set_a";
  p8.actionArgs.push_back(BitVec(8, 8));
  t.insert(p8);
  TableEntry p24;
  p24.matches.push_back(FieldMatch::lpm(BitVec(32, 0x0A010200), 24));
  p24.actionName = "set_a";
  p24.actionArgs.push_back(BitVec(8, 24));
  t.insert(p24);

  const TableEntry* hit = t.lookup({BitVec(32, 0x0A010203)});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->actionArgs[0].toUint64(), 24u);
  hit = t.lookup({BitVec(32, 0x0AFF0001)});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->actionArgs[0].toUint64(), 8u);
  EXPECT_EQ(t.lookup({BitVec(32, 0x0B000000)}), nullptr);
}

TEST_F(RuntimeTest, NormalizedEntriesDropEclipsed) {
  TableState& t = config.table("C.ternary_t");
  // High-priority wildcard eclipses everything below.
  TableEntry wildcard;
  wildcard.matches.push_back(FieldMatch::ternary(BitVec(8, 0), BitVec(8, 0)));
  wildcard.matches.push_back(FieldMatch::ternary(BitVec(8, 0), BitVec(8, 0)));
  wildcard.actionName = "set_a";
  wildcard.actionArgs.push_back(BitVec(8, 1));
  wildcard.priority = 100;
  t.insert(wildcard);

  TableEntry eclipsed;
  eclipsed.matches.push_back(
      FieldMatch::ternary(BitVec(8, 5), BitVec(8, 0xFF)));
  eclipsed.matches.push_back(
      FieldMatch::ternary(BitVec(8, 6), BitVec(8, 0xFF)));
  eclipsed.actionName = "noop";
  eclipsed.priority = 1;
  t.insert(eclipsed);

  auto normalized = t.normalizedEntries();
  ASSERT_EQ(normalized.size(), 1u);
  EXPECT_EQ(normalized[0]->actionName, "set_a");
  // The table shape's actions reflect only the visible entries + default.
  auto shape = ::flay::flay::tableShape(t, /*overapproxThreshold=*/100);
  EXPECT_EQ(shape.actions, (std::vector<std::string>{"noop", "set_a"}));
  EXPECT_FALSE(shape.empty);
  EXPECT_EQ(shape.exactable, (std::vector<bool>{false, false}));
}

TEST_F(RuntimeTest, EclipsedByNarrowerEntryIsKept) {
  TableState& t = config.table("C.ternary_t");
  TableEntry narrow;
  narrow.matches.push_back(FieldMatch::ternary(BitVec(8, 5), BitVec(8, 0xFF)));
  narrow.matches.push_back(FieldMatch::ternary(BitVec(8, 0), BitVec(8, 0)));
  narrow.actionName = "noop";
  narrow.priority = 100;
  t.insert(narrow);
  TableEntry wide;
  wide.matches.push_back(FieldMatch::ternary(BitVec(8, 0), BitVec(8, 0)));
  wide.matches.push_back(FieldMatch::ternary(BitVec(8, 0), BitVec(8, 0)));
  wide.actionName = "set_a";
  wide.actionArgs.push_back(BitVec(8, 1));
  wide.priority = 1;
  t.insert(wide);
  // The wide entry is NOT eclipsed (it matches keys the narrow one doesn't).
  EXPECT_EQ(t.normalizedEntries().size(), 2u);
}

TEST_F(RuntimeTest, DefaultActionOverride) {
  TableState& t = config.table("C.exact_t");
  EXPECT_EQ(t.defaultActionName(), "noop");
  t.setDefaultAction("drop_pkt", {});
  EXPECT_EQ(t.defaultActionName(), "drop_pkt");
  EXPECT_THROW(t.setDefaultAction("ghost", {}), std::invalid_argument);
  EXPECT_THROW(t.setDefaultAction("set_a", {}), std::invalid_argument);
  t.setDefaultAction("set_a", {BitVec(8, 3)});
  EXPECT_EQ(t.defaultActionArgs()[0].toUint64(), 3u);
}

TEST_F(RuntimeTest, UpdatesThroughDeviceConfig) {
  Update ins = Update::insert("C.exact_t", exactEntry(5, "noop"));
  EXPECT_EQ(config.apply(ins), "C.exact_t");
  EXPECT_EQ(config.table("C.exact_t").size(), 1u);

  uint64_t id = config.table("C.exact_t").entries()[0].id;
  Update del = Update::remove("C.exact_t", id);
  config.apply(del);
  EXPECT_TRUE(config.table("C.exact_t").empty());

  Update bad = Update::insert("C.ghost", exactEntry(5, "noop"));
  EXPECT_THROW(config.apply(bad), std::invalid_argument);
}

TEST_F(RuntimeTest, FieldMatchCovers) {
  auto exact5 = FieldMatch::exact(BitVec(8, 5));
  auto wildcard = FieldMatch::ternary(BitVec(8, 0), BitVec(8, 0));
  auto highNibble = FieldMatch::ternary(BitVec(8, 0x50), BitVec(8, 0xF0));
  EXPECT_TRUE(wildcard.covers(exact5));
  EXPECT_FALSE(exact5.covers(wildcard));
  EXPECT_TRUE(wildcard.covers(highNibble));
  EXPECT_TRUE(highNibble.covers(FieldMatch::exact(BitVec(8, 0x5A))));
  EXPECT_FALSE(highNibble.covers(exact5));
  EXPECT_TRUE(exact5.covers(exact5));
}

TEST_F(RuntimeTest, FuzzerGeneratesValidUniqueEntries) {
  net::EntryFuzzer fuzzer(1234);
  TableState& t = config.table("C.ternary_t");
  auto entries = fuzzer.uniqueEntries(t, 200);
  EXPECT_EQ(entries.size(), 200u);
  size_t inserted = 0;
  for (auto& e : entries) {
    t.insert(std::move(e));
    ++inserted;
  }
  EXPECT_EQ(t.size(), inserted);
}

TEST_F(RuntimeTest, FuzzerRespectsExclusions) {
  net::EntryFuzzer fuzzer(99);
  TableState& t = config.table("C.exact_t");
  auto entries = fuzzer.uniqueEntries(t, 10, {"drop_pkt", "set_a"});
  for (const auto& e : entries) EXPECT_EQ(e.actionName, "noop");
}

TEST_F(RuntimeTest, FuzzerRejectsTinyKeyspace) {
  net::EntryFuzzer fuzzer(7);
  TableState& t = config.table("C.exact_t");
  EXPECT_THROW(fuzzer.uniqueEntries(t, 10000), std::invalid_argument);
}

TEST_F(RuntimeTest, ValueSetStateMatching) {
  ValueSetState vs("test", 16, 4);
  EXPECT_TRUE(vs.empty());
  vs.insert(BitVec(16, 0x8100));
  vs.insert(BitVec(16, 0x9000), BitVec(16, 0xF000));
  EXPECT_TRUE(vs.matches(BitVec(16, 0x8100)));
  EXPECT_FALSE(vs.matches(BitVec(16, 0x8101)));
  EXPECT_TRUE(vs.matches(BitVec(16, 0x9ABC)));
  EXPECT_THROW(vs.insert(BitVec(8, 1)), std::invalid_argument);
  vs.remove(BitVec(16, 0x8100), BitVec::allOnes(16));
  EXPECT_FALSE(vs.matches(BitVec(16, 0x8100)));
}

// ---------------------------------------------------------------------------
// Deterministic tie-breaking. lookup() and normalizedEntries() share one
// comparator (TableState::precedes); these tests pin the tie-break rules —
// equal precedence resolves to the lowest entry id (oldest insert) — so a
// future "optimization" that diverges the two paths, or makes the winner
// depend on container order, fails loudly.

TEST_F(RuntimeTest, TernaryEqualPriorityTieBreaksByInsertOrder) {
  TableState& t = config.table("C.ternary_t");
  // Two overlapping entries at the same priority: a catch-all and a more
  // specific one. The key below matches both; only the id decides.
  TableEntry catchAll;
  catchAll.matches.push_back(FieldMatch::ternary(BitVec(8, 0), BitVec(8, 0)));
  catchAll.matches.push_back(FieldMatch::ternary(BitVec(8, 0), BitVec(8, 0)));
  catchAll.actionName = "set_a";
  catchAll.actionArgs.push_back(BitVec(8, 1));
  catchAll.priority = 7;
  TableEntry specific;
  specific.matches.push_back(
      FieldMatch::ternary(BitVec(8, 0x55), BitVec(8, 0xFF)));
  specific.matches.push_back(FieldMatch::ternary(BitVec(8, 0), BitVec(8, 0)));
  specific.actionName = "set_a";
  specific.actionArgs.push_back(BitVec(8, 2));
  specific.priority = 7;

  uint64_t first = t.insert(catchAll);
  uint64_t second = t.insert(specific);
  ASSERT_LT(first, second);

  const TableEntry* hit = t.lookup({BitVec(8, 0x55), BitVec(8, 0xAA)});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, first) << "equal priority must resolve to the oldest id";
  EXPECT_EQ(hit->actionArgs[0].toUint64(), 1u);

  // normalizedEntries() shares the comparator: the winner sorts first.
  auto sorted = t.normalizedEntries();
  ASSERT_FALSE(sorted.empty());
  EXPECT_EQ(sorted.front()->id, first);

  // Higher priority still beats an older entry.
  TableEntry urgent = specific;
  urgent.matches[0] = FieldMatch::ternary(BitVec(8, 0x55), BitVec(8, 0xFF));
  urgent.actionArgs[0] = BitVec(8, 3);
  urgent.priority = 9;
  uint64_t third = t.insert(urgent);
  const TableEntry* hit2 = t.lookup({BitVec(8, 0x55), BitVec(8, 0xAA)});
  ASSERT_NE(hit2, nullptr);
  EXPECT_EQ(hit2->id, third);
}

TEST_F(RuntimeTest, LpmEqualPrefixLenOrdersByInsertOrder) {
  TableState& t = config.table("C.lpm_t");
  auto entry = [](uint64_t net, uint32_t prefixLen, uint64_t arg) {
    TableEntry e;
    e.matches.push_back(FieldMatch::lpm(BitVec(32, net), prefixLen));
    e.actionName = "set_a";
    e.actionArgs.push_back(BitVec(8, arg));
    return e;
  };
  // Sibling /8 routes: equal prefix length, disjoint — the normalized order
  // between them is pinned to insert order (lowest id first), so the
  // specialized program is stable across runs and container orders.
  uint64_t second = 0, first = 0;
  first = t.insert(entry(0x0B000000, 8, 2));   // 11/8 inserted first
  second = t.insert(entry(0x0A000000, 8, 1));  // 10/8 inserted second
  ASSERT_LT(first, second);

  auto sorted = t.normalizedEntries();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0]->id, first);
  EXPECT_EQ(sorted[1]->id, second);

  // Lookup picks the (unique) matching entry either way.
  const TableEntry* hit = t.lookup({BitVec(32, 0x0A00002A)});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, second);

  // A longer prefix beats an older shorter one, id notwithstanding.
  uint64_t third = t.insert(entry(0x0A000000, 16, 3));  // 10.0/16
  const TableEntry* hit2 = t.lookup({BitVec(32, 0x0A00002A)});
  ASSERT_NE(hit2, nullptr);
  EXPECT_EQ(hit2->id, third);
  auto resorted = t.normalizedEntries();
  ASSERT_FALSE(resorted.empty());
  EXPECT_EQ(resorted.front()->id, third) << "longest prefix sorts first";
}

// The signature/id indexes behind O(1) duplicate detection must stay
// consistent across the full mutation cycle: duplicate rejects, remove
// releases the signature, and modify keeps id lookups working.
TEST_F(RuntimeTest, DuplicateIndexSurvivesMutationCycle) {
  TableState& t = config.table("C.exact_t");
  uint64_t id = t.insert(exactEntry(1, "set_a", {BitVec(8, 10)}));
  // Same match signature, different action: still a duplicate.
  EXPECT_THROW(t.insert(exactEntry(1, "drop_pkt")), std::invalid_argument);

  t.remove(id);
  EXPECT_EQ(t.size(), 0u);
  uint64_t id2 = t.insert(exactEntry(1, "drop_pkt"));
  EXPECT_NE(id, id2) << "ids are never reused";
  EXPECT_THROW(t.insert(exactEntry(1, "set_a", {BitVec(8, 9)})),
               std::invalid_argument);

  // Modify by id keeps the entry findable and its signature claimed.
  TableEntry mod = exactEntry(1, "set_a", {BitVec(8, 42)});
  mod.id = id2;
  t.modify(mod);
  const TableEntry* hit = t.lookup({BitVec(8, 1)});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->actionName, "set_a");
  EXPECT_THROW(t.insert(exactEntry(1, "noop")), std::invalid_argument);

  t.insert(exactEntry(2, "set_a", {BitVec(8, 1)}));
  EXPECT_THROW(t.insert(exactEntry(2, "set_a", {BitVec(8, 1)})),
               std::invalid_argument);
  EXPECT_EQ(t.size(), 2u);
}

// normalizedEntries() skips its quadratic eclipse scan for exact/lpm
// tables — but only while no modify()-made duplicate match sets exist,
// the one way two such entries can shadow each other.
TEST_F(RuntimeTest, ModifyMadeDuplicateDisablesNoEclipseFastPath) {
  TableState& t = config.table("C.lpm_t");
  auto mk = [](uint64_t net, uint32_t plen, uint64_t arg) {
    TableEntry e;
    e.matches.push_back(FieldMatch::lpm(BitVec(32, net), plen));
    e.actionName = "set_a";
    e.actionArgs.push_back(BitVec(8, arg));
    return e;
  };
  uint64_t a = t.insert(mk(0x0A000000, 8, 1));
  uint64_t b = t.insert(mk(0x0B000000, 8, 2));
  EXPECT_EQ(t.normalizedEntries().size(), 2u);

  TableEntry dup = mk(0x0A000000, 8, 3);
  dup.id = b;
  t.modify(dup);
  auto norm = t.normalizedEntries();
  ASSERT_EQ(norm.size(), 1u);
  EXPECT_EQ(norm[0]->id, a) << "earlier id must shadow the duplicate";

  // Removing the original releases the signature; the fast path applies
  // again and the surviving entry normalizes alone.
  t.remove(a);
  auto after = t.normalizedEntries();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0]->id, b);
}

/// A random entry for `t` from a small key space, so that inserts collide
/// and entries eclipse one another often.
TableEntry randomEntry(std::mt19937_64& rng, const TableState& t) {
  TableEntry e;
  for (const auto& k : t.decl().keys) {
    uint32_t w = k.expr->width;
    switch (k.matchKind) {
      case p4::MatchKind::kExact:
        e.matches.push_back(FieldMatch::exact(BitVec(w, rng() % 6)));
        break;
      case p4::MatchKind::kTernary: {
        static const uint64_t kMasks[] = {0x00, 0x0F, 0xF0, 0xFF, 0xFF};
        e.matches.push_back(FieldMatch::ternary(
            BitVec(w, rng() % 24), BitVec(w, kMasks[rng() % 5])));
        break;
      }
      case p4::MatchKind::kLpm:
        e.matches.push_back(FieldMatch::lpm(
            BitVec(w, ((rng() % 3) << 24) | ((rng() % 3) << 16)),
            static_cast<uint32_t>(rng() % 5) * 8));
        break;
    }
  }
  const auto& actions = t.decl().actionNames;
  e.actionName = rng() % 8 == 0 ? "NoAction" : actions[rng() % actions.size()];
  if (e.actionName == "set_a") e.actionArgs.push_back(BitVec(8, rng() % 4));
  if (t.usesPriority()) e.priority = 1 + static_cast<int32_t>(rng() % 3);
  return e;
}

/// One step of a seeded mutation script on `t`: insert, modify (a third of
/// them copying another entry's match set, i.e. a modify-made duplicate),
/// remove, restoreEntry of a removed entry with its id, or clear. Returns
/// false for a skipped step (nothing to restore); throws
/// std::invalid_argument for a rejected one.
bool randomMutation(std::mt19937_64& rng, TableState& t,
                    std::vector<TableEntry>& removed) {
  uint64_t op = rng() % 100;
  auto pick = [&]() -> const TableEntry& {
    return t.entries()[rng() % t.size()];
  };
  if (op < 40 || t.empty()) {
    t.insert(randomEntry(rng, t));
  } else if (op < 60) {
    TableEntry mod = randomEntry(rng, t);
    if (rng() % 3 == 0) {
      const TableEntry& other = pick();
      mod.matches = other.matches;
      mod.priority = other.priority;
    }
    mod.id = pick().id;
    t.modify(std::move(mod));
  } else if (op < 82) {
    TableEntry victim = pick();
    t.remove(victim.id);
    removed.push_back(std::move(victim));
  } else if (op < 97) {
    if (removed.empty()) return false;
    TableEntry back = std::move(removed.back());
    removed.pop_back();
    t.restoreEntry(std::move(back));
  } else {
    removed.insert(removed.end(), t.entries().begin(), t.entries().end());
    t.clear();
  }
  return true;
}

// The two counts TableState keeps on every mutation (installed entries per
// action, and per key the entries not exact-valued on it) must equal a
// recount over entries() after every step of a random mutation script,
// rejected steps included. Key exactness read off the counts must equal
// exactness over normalizedEntries(): an entry masked on a key is only ever
// eclipsed by an entry masked on that key.
TEST_F(RuntimeTest, CountsMatchRecountUnderRandomMutationScripts) {
  std::mt19937_64 rng(20261017);
  auto check = [](const TableState& t, const std::string& where) {
    std::vector<size_t> actions(t.actionCounts().size(), 0);
    std::vector<size_t> masked(t.decl().keys.size(), 0);
    for (const TableEntry& e : t.entries()) {
      size_t slot = 0;
      while (slot < actions.size() && t.actionSlotName(slot) != e.actionName) {
        ++slot;
      }
      ASSERT_LT(slot, actions.size()) << where << ": " << e.actionName;
      ++actions[slot];
      for (size_t k = 0; k < masked.size(); ++k) {
        if (!e.matches[k].isExactValued()) ++masked[k];
      }
    }
    EXPECT_EQ(t.actionCounts(), actions) << where;
    EXPECT_EQ(t.maskedCounts(), masked) << where;
    const auto& normalized = t.normalizedEntries();
    for (size_t k = 0; k < masked.size(); ++k) {
      bool exact = true;
      for (const TableEntry* e : normalized) {
        exact &= e->matches[k].isExactValued();
      }
      EXPECT_EQ(t.maskedCounts()[k] == 0, exact) << where << ", key " << k;
    }
    // The shape's actions: the normalized entries' at or below the
    // threshold, every installed entry's above it.
    auto sortedUnique = [&t](auto first, auto last, auto name) {
      std::vector<std::string> v{t.defaultActionName()};
      for (; first != last; ++first) v.push_back(name(*first));
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
      return v;
    };
    auto visible = sortedUnique(normalized.begin(), normalized.end(),
                                [](const TableEntry* e) { return e->actionName; });
    auto installed = sortedUnique(t.entries().begin(), t.entries().end(),
                                  [](const TableEntry& e) { return e.actionName; });
    EXPECT_EQ(::flay::flay::tableShape(t, t.size()).actions, visible) << where;
    EXPECT_EQ(::flay::flay::tableShape(t, 0).actions, installed) << where;
  };

  for (const char* name : {"C.exact_t", "C.ternary_t", "C.lpm_t"}) {
    TableState& t = config.table(name);
    std::vector<TableEntry> removed;  // restoreEntry candidates, ids kept
    size_t applied = 0;
    for (int step = 0; step < 400; ++step) {
      std::string where = std::string(name) + " step " + std::to_string(step);
      try {
        if (!randomMutation(rng, t, removed)) continue;
        ++applied;
      } catch (const std::invalid_argument&) {
        // Rejected (duplicate, full table, restored id clash): the counts
        // must be untouched, which the check below verifies.
      }
      check(t, where);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(applied, 200u) << name;
  }
}

/// Everything a copy of a table must keep: entries with their ids, the
/// default action, the id allocator, both counts, and the normalized view.
std::string render(const TableState& t) {
  std::string s = "default " + t.defaultActionName();
  for (const BitVec& arg : t.defaultActionArgs()) s += " " + arg.toHexString();
  s += "; next " + std::to_string(t.nextId()) + "; entries";
  for (const TableEntry& e : t.entries()) {
    s += " #" + std::to_string(e.id) + " " + e.toString();
  }
  s += "; actions";
  for (size_t n : t.actionCounts()) s += " " + std::to_string(n);
  s += "; masked";
  for (size_t n : t.maskedCounts()) s += " " + std::to_string(n);
  s += "; normalized";
  for (const TableEntry* e : t.normalizedEntries()) {
    s += " #" + std::to_string(e->id);
  }
  return s;
}

/// Ids of the normalized view computed afresh, bypassing `t`'s memo: a
/// mutation of a copy clones the contents, and a clone starts without one.
std::vector<uint64_t> freshNormalizedIds(const TableState& t) {
  TableState fresh = t;
  fresh.setNextId(fresh.nextId());
  std::vector<uint64_t> ids;
  for (const TableEntry* e : fresh.normalizedEntries()) ids.push_back(e->id);
  return ids;
}

// Copies share their contents until one side mutates, and every mutator
// clones shared contents first: a ring of copies taken between the steps of
// a random mutation script (default-action flips and id-allocator bumps
// included) must each keep rendering exactly as when it was taken, whether
// the source or the copy is mutated afterwards. A fresh copy's entries()
// is its source's until a successful mutation of either; the normalized
// view memoized per contents version must equal a fresh computation.
TEST_F(RuntimeTest, CopiesKeepTheirContentsUnderRandomMutationScripts) {
  std::mt19937_64 rng(20261019);
  struct Held {
    TableState table;
    std::string reference;
    std::vector<TableEntry> removed;
  };
  for (const char* name : {"C.exact_t", "C.ternary_t", "C.lpm_t"}) {
    TableState& t = config.table(name);
    std::vector<TableEntry> removed;
    std::deque<Held> ring;
    size_t mutated = 0, copyMutated = 0;
    auto mutate = [&](TableState& target, std::vector<TableEntry>& pool) {
      uint64_t op = rng() % 20;
      if (op == 0) {
        const auto& actions = target.decl().actionNames;
        std::string action = actions[rng() % actions.size()];
        std::vector<BitVec> args;
        if (action == "set_a") args.push_back(BitVec(8, rng() % 4));
        target.setDefaultAction(action, std::move(args));
        return true;
      }
      if (op == 1) {
        target.setNextId(target.nextId() + 1 + rng() % 3);
        return true;
      }
      return randomMutation(rng, target, pool);
    };
    for (int step = 0; step < 400; ++step) {
      std::string where = std::string(name) + " step " + std::to_string(step);
      if (!ring.empty() && rng() % 8 == 0) {
        // Mutate a held copy: the source must not notice.
        Held& h = ring[rng() % ring.size()];
        std::string before = render(t);
        try {
          if (mutate(h.table, h.removed)) {
            h.reference = render(h.table);
            ++copyMutated;
          }
        } catch (const std::invalid_argument&) {
        }
        EXPECT_EQ(render(t), before) << where;
      } else {
        const std::vector<TableEntry>* block = &t.entries();
        bool ok = false;
        try {
          ok = mutate(t, removed);
        } catch (const std::invalid_argument&) {
        }
        if (ok) {
          ++mutated;
          for (const Held& h : ring) {
            EXPECT_NE(&h.table.entries(), &t.entries()) << where;
          }
        } else {
          EXPECT_EQ(&t.entries(), block) << where << ": rejected step cloned";
        }
      }
      for (const Held& h : ring) {
        ASSERT_EQ(render(h.table), h.reference) << where;
      }
      std::vector<uint64_t> memo;
      for (const TableEntry* e : t.normalizedEntries()) memo.push_back(e->id);
      ASSERT_EQ(memo, freshNormalizedIds(t)) << where;
      if (rng() % 2 == 0) {
        ring.push_back({t, render(t), removed});
        EXPECT_EQ(&ring.back().table.entries(), &t.entries()) << where;
        if (ring.size() > 6) ring.pop_front();
      }
    }
    EXPECT_GT(mutated, 150u) << name;
    EXPECT_GT(copyMutated, 10u) << name;
  }
}

// Copies of a config can be read and dropped on other threads while the
// owner keeps mutating it: after each update the owner hands a copy to
// whichever reader takes it first, readers copy it again, normalize every
// table (several threads at once on the same contents) and drop both, and
// the owner's next mutation decides between cloning and mutating in place
// as those drops land. Run under ThreadSanitizer, this guards the
// sole-owner test and the memo.
TEST_F(RuntimeTest, ConfigCopiesCanBeReadAndDroppedOnOtherThreads) {
  std::mutex mu;
  std::shared_ptr<const DeviceConfig> handoff;
  std::atomic<bool> done{false};
  std::atomic<size_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const DeviceConfig> taken;
        {
          std::lock_guard<std::mutex> lock(mu);
          taken = std::move(handoff);
        }
        if (taken == nullptr) {
          std::this_thread::yield();
          continue;
        }
        const DeviceConfig copy = *taken;
        for (const DeviceConfig* view : {taken.get(), &copy}) {
          for (const auto& [name, table] : view->tables()) {
            const auto& normalized = table.normalizedEntries();
            const TableEntry* first = table.entries().data();
            for (const TableEntry* e : normalized) {
              ASSERT_TRUE(e >= first && e < first + table.size()) << name;
            }
            ASSERT_LE(normalized.size(), table.size()) << name;
          }
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::mt19937_64 rng(7);
  std::vector<TableEntry> removed[2];
  const char* names[] = {"C.ternary_t", "C.lpm_t"};
  // Keep mutating until the readers have overlapped with the mutations.
  for (int step = 0; step < 600 || reads.load(std::memory_order_relaxed) < 200;
       ++step) {
    size_t which = rng() % 2;
    try {
      randomMutation(rng, config.table(names[which]), removed[which]);
    } catch (const std::invalid_argument&) {
    }
    auto copy = std::make_shared<const DeviceConfig>(config);
    std::lock_guard<std::mutex> lock(mu);
    handoff = std::move(copy);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  for (const char* name : names) {
    const TableState& t = config.table(name);
    std::vector<uint64_t> memo;
    for (const TableEntry* e : t.normalizedEntries()) memo.push_back(e->id);
    EXPECT_EQ(memo, freshNormalizedIds(t)) << name;
  }
}

}  // namespace
}  // namespace flay::runtime
