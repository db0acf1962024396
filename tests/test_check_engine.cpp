// Tests for the parallel semantics-check engine: thread-pool plumbing, the
// expression-id verdict memo (hits, never memoizing timeouts, zero probes on
// a repeated parallel prefetch), verdict parity across jobs settings and
// against a fresh solver, and warm clause-group retirement when components
// respecialize.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <stdexcept>
#include <string>

#include "expr/analysis.h"
#include "flay/check_engine.h"
#include "flay/engine.h"
#include "flay/specializer.h"
#include "obs/obs.h"
#include "p4/printer.h"
#include "smt/solver.h"
#include "support/thread_pool.h"

namespace flay::flay {
namespace {

using runtime::FieldMatch;
using runtime::TableEntry;
using runtime::Update;

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, RunsEveryTask) {
  support::ThreadPool pool(3);
  std::atomic<int> hits{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&hits] { hits.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.run(std::move(tasks));
  EXPECT_EQ(hits.load(), 100);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  support::ThreadPool pool(2);
  std::atomic<int> hits{0};
  for (int batch = 0; batch < 5; ++batch) {
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 10; ++i) {
      tasks.push_back([&hits] { hits.fetch_add(1); });
    }
    pool.run(std::move(tasks));
  }
  EXPECT_EQ(hits.load(), 50);
}

TEST(ThreadPool, PropagatesFirstException) {
  support::ThreadPool pool(2);
  std::atomic<int> hits{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([&hits, i] {
      if (i == 3) throw std::runtime_error("boom");
      hits.fetch_add(1);
    });
  }
  EXPECT_THROW(pool.run(std::move(tasks)), std::runtime_error);
  // The batch drains fully even when one task throws.
  EXPECT_EQ(hits.load(), 7);
}

TEST(ThreadPool, ZeroThreadsStillWorks) {
  support::ThreadPool pool(0);  // clamped to one worker
  std::atomic<int> hits{0};
  std::vector<std::function<void()>> tasks{[&hits] { hits.fetch_add(1); }};
  pool.run(std::move(tasks));
  EXPECT_EQ(hits.load(), 1);
}

TEST(ThreadPool, EmptyBatchReturnsImmediately) {
  support::ThreadPool pool(2);
  pool.run({});
  // Still usable afterwards.
  std::atomic<int> hits{0};
  pool.run({[&hits] { hits.fetch_add(1); }});
  EXPECT_EQ(hits.load(), 1);
}

// A worker waiting for its own batch to finish could never observe the
// pending count reach zero — its own task is part of it. run() rejects the
// reentrant call instead of deadlocking, and the rejection surfaces through
// the outer run() like any other task exception.
TEST(ThreadPool, NestedRunOnSamePoolIsRejected) {
  support::ThreadPool pool(2);
  std::atomic<bool> threw{false};
  std::vector<std::function<void()>> tasks{[&pool, &threw] {
    std::vector<std::function<void()>> inner{[] {}};
    try {
      pool.run(std::move(inner));
    } catch (const std::logic_error&) {
      threw = true;
      throw;
    }
  }};
  EXPECT_THROW(pool.run(std::move(tasks)), std::logic_error);
  EXPECT_TRUE(threw.load());
}

// Nesting across *distinct* pools is fine (and load-bearing: fleet drain
// tasks run controllers whose check engines own their own pools).
TEST(ThreadPool, NestedRunOnDifferentPoolWorks) {
  support::ThreadPool outer(2);
  support::ThreadPool inner(2);
  std::atomic<int> hits{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([&inner, &hits] {
      inner.run({[&hits] { hits.fetch_add(1); }});
    });
  }
  outer.run(std::move(tasks));
  EXPECT_EQ(hits.load(), 4);
}

// ---------------------------------------------------------------------------
// CheckEngine through a FlayService

const char* kProgram = R"(
header h_t { bit<8> a; bit<8> b; }
struct headers { h_t h; }
parser P { state start { extract(hdr.h); transition accept; } }
control C {
  action set_a(bit<8> v) { hdr.h.a = v; }
  action set_b(bit<8> v) { hdr.h.b = v; }
  action drop_pkt() { mark_to_drop(); }
  table t1 {
    key = { hdr.h.a : ternary; }
    actions = { set_a; drop_pkt; noop; }
    default_action = noop;
    size = 256;
  }
  table t2 {
    key = { hdr.h.b : exact; }
    actions = { set_b; noop; }
    default_action = noop;
    size = 256;
  }
  apply {
    t1.apply();
    t2.apply();
    if (hdr.h.a == 3) { sm.egress_spec = 2; } else { sm.egress_spec = 1; }
  }
}
deparser D { emit(hdr.h); }
pipeline(P, C, D);
)";

TableEntry ternaryEntry(uint64_t v, uint64_t m, const char* action,
                        uint64_t arg, int32_t prio) {
  TableEntry e;
  e.matches.push_back(FieldMatch::ternary(BitVec(8, v), BitVec(8, m)));
  e.actionName = action;
  if (std::string(action) == "set_a") e.actionArgs.push_back(BitVec(8, arg));
  e.priority = prio;
  return e;
}

TableEntry exactEntry(uint64_t v, uint64_t arg) {
  TableEntry e;
  e.matches.push_back(FieldMatch::exact(BitVec(8, v)));
  e.actionName = "set_b";
  e.actionArgs.push_back(BitVec(8, arg));
  return e;
}

class CheckEngineTest : public ::testing::Test {
 protected:
  CheckEngineTest() : checked(p4::loadProgramFromString(kProgram)) {}

  void populate(FlayService& service) {
    service.applyUpdate(
        Update::insert("C.t1", ternaryEntry(1, 0xFF, "set_a", 9, 1)));
    service.applyUpdate(
        Update::insert("C.t1", ternaryEntry(2, 0xFF, "set_a", 7, 1)));
    service.applyUpdate(Update::insert("C.t2", exactEntry(4, 11)));
  }

  SpecializationResult specializeWith(FlayService& service, size_t jobs) {
    SpecializerOptions sopts;
    sopts.jobs = jobs;
    return Specializer(service, sopts).specialize();
  }

  std::vector<CheckQuery> allPoints(const FlayService& service) {
    std::vector<CheckQuery> queries;
    for (const auto& p : service.analysis().annotations.points()) {
      queries.push_back({p.specialized, p.component});
    }
    return queries;
  }

  static uint64_t counter(const char* name) {
    return obs::Registry::global().counter(name).value();
  }

  p4::CheckedProgram checked;
};

// The acceptance property of the engine: the specialized program and every
// stat derived from verdicts are identical whatever the jobs count and
// whether the memo is cold (first specialize) or warm (a repeat).
TEST_F(CheckEngineTest, VerdictsIdenticalAcrossJobsAndCacheSettings) {
  std::string reference;
  SpecializationStats refStats;
  for (size_t jobs : {size_t{1}, size_t{4}}) {
    FlayService service(checked);
    populate(service);
    for (const char* memo : {"cold", "warm"}) {
      SpecializationResult result = specializeWith(service, jobs);
      std::string printed = p4::printProgram(result.program);
      if (reference.empty()) {
        reference = printed;
        refStats = result.stats;
        continue;
      }
      EXPECT_EQ(printed, reference) << "jobs=" << jobs << " memo=" << memo;
      EXPECT_EQ(result.stats.totalChanges(), refStats.totalChanges());
      EXPECT_EQ(result.stats.solverQueries, refStats.solverQueries);
      EXPECT_EQ(result.stats.solverTimeouts, refStats.solverTimeouts);
    }
  }
}

// A second specialize of unchanged state is served from the memo: same
// verdicts, and not a single new probe.
TEST_F(CheckEngineTest, RepeatSpecializeHitsCache) {
  FlayService service(checked);
  populate(service);
  SpecializationResult first = specializeWith(service, 1);
  ASSERT_GT(first.stats.solverQueries, 0u);
  const uint64_t probes = counter("smt.constant_queries");
  const uint64_t hits = counter("cache.hits");

  SpecializationResult second = specializeWith(service, 1);
  EXPECT_EQ(p4::printProgram(first.program), p4::printProgram(second.program));
  EXPECT_EQ(counter("smt.constant_queries"), probes);
  EXPECT_GT(counter("cache.hits"), hits);
}

// Respecializing a component retires its warm clause groups, and the next
// specialize answers exactly like a service that never saw the old
// formulas.
TEST_F(CheckEngineTest, UpdateInvalidatesChangedComponentEntries) {
  FlayService service(checked);
  populate(service);
  specializeWith(service, 1);
  const uint64_t retired = counter("smt.groups_retired");

  // Change t1's config: its points respecialize, its scope is invalidated.
  const Update update =
      Update::insert("C.t1", ternaryEntry(3, 0xFF, "drop_pkt", 0, 2));
  service.applyUpdate(update);
  EXPECT_GT(counter("smt.groups_retired"), retired);

  SpecializationResult after = specializeWith(service, 1);
  EXPECT_EQ(after.stats.solverTimeouts, 0u);
  FlayService cold(checked);
  populate(cold);
  cold.applyUpdate(update);
  EXPECT_EQ(p4::printProgram(after.program),
            p4::printProgram(specializeWith(cold, 1).program));
}

// With jobs = 4 a batch is sliced across four warm sessions. Repeating the
// prefetch runs zero probes: the memo answers every expression whichever
// slot settled it the first time.
TEST_F(CheckEngineTest, RepeatedParallelPrefetchRunsNoProbes) {
  FlayService service(checked);
  populate(service);
  CheckEngineOptions eopts;
  eopts.jobs = 4;
  service.checkEngine().configure(eopts);
  std::vector<CheckQuery> queries = allPoints(service);

  const uint64_t before = counter("parallel.prefetch_queries");
  service.checkEngine().prefetch(queries);
  const uint64_t probed = counter("parallel.prefetch_queries");
  ASSERT_GT(probed, before + 1) << "the batch must span several slots";
  const uint64_t probes = counter("smt.constant_queries");

  service.checkEngine().prefetch(queries);
  EXPECT_EQ(counter("parallel.prefetch_queries"), probed);
  EXPECT_EQ(counter("smt.constant_queries"), probes);
}

// Direct prefetch API: staging the whole annotation set and then asking
// verdicts gives the same answers as asking cold, and marks them as queried.
TEST_F(CheckEngineTest, PrefetchedVerdictsMatchLazyOnes) {
  FlayService parallel(checked);
  populate(parallel);
  FlayService lazy(checked);
  populate(lazy);

  CheckEngineOptions eopts;
  eopts.jobs = 4;
  parallel.checkEngine().configure(eopts);

  parallel.checkEngine().prefetch(allPoints(parallel));

  // Compare every boolean point's verdict against the serial engine.
  for (const auto& p : parallel.analysis().annotations.points()) {
    if (!parallel.arena().isBool(p.specialized)) continue;
    TriVerdict staged =
        parallel.checkEngine().boolVerdict(p.specialized, p.component);
    const auto& lp = lazy.analysis().annotations.point(p.id);
    TriVerdict cold = lazy.checkEngine().boolVerdict(lp.specialized,
                                                     lp.component);
    EXPECT_EQ(static_cast<int>(staged), static_cast<int>(cold))
        << "point " << p.id << " (" << p.label << ")";
  }
}

// Parity under churn: a fuzzed update script drives a service whose engine
// probes through warm sessions (delta CNF, clause-group retirement on every
// respecialized component), and after every round every program point's
// engine verdict must match a fresh smt::probeConstant, the reference.
TEST_F(CheckEngineTest, FuzzedUpdateScriptKeepsDeltaAndFullEncodingInParity) {
  FlayService warm(checked);
  const CheckEngineOptions limits;
  std::mt19937 rng(20260808);
  std::vector<uint64_t> t1Ids, t2Ids;
  uint64_t nextId = 1;
  for (int round = 0; round < 12; ++round) {
    // One random update.
    Update u = Update::insert("C.t1", ternaryEntry(0, 0, "noop", 0, 1));
    switch (rng() % 5) {
      case 0:
        u = Update::insert(
            "C.t1", ternaryEntry(rng() % 256, rng() % 2 ? 0xFF : 0xF0,
                                 rng() % 2 ? "set_a" : "drop_pkt", rng() % 256,
                                 static_cast<int32_t>(1 + rng() % 4)));
        t1Ids.push_back(nextId++);
        break;
      case 1:
        u = Update::insert("C.t2", exactEntry(rng() % 256, rng() % 256));
        t2Ids.push_back(nextId++);
        break;
      case 2:
        if (!t1Ids.empty()) {
          size_t k = rng() % t1Ids.size();
          u = Update::remove("C.t1", t1Ids[k]);
          t1Ids.erase(t1Ids.begin() + static_cast<ptrdiff_t>(k));
        }
        break;
      case 3:
        if (!t2Ids.empty()) {
          size_t k = rng() % t2Ids.size();
          u = Update::remove("C.t2", t2Ids[k]);
          t2Ids.erase(t2Ids.begin() + static_cast<ptrdiff_t>(k));
        }
        break;
      default:
        u = Update::setDefault("C.t1", rng() % 2 ? "drop_pkt" : "noop", {});
        break;
    }
    try {
      warm.applyUpdate(u);
    } catch (const std::exception&) {
      continue;  // duplicate/malformed draw
    }
    // Point-by-point verdict parity on the freshly specialized expressions.
    const expr::ExprArena& arena = warm.arena();
    for (const auto& p : warm.analysis().annotations.points()) {
      expr::ExprRef e = p.specialized;
      if (arena.isConst(e) ||
          expr::dagSize(arena, e) > limits.solverDagLimit) {
        continue;  // settled (or left unknown) without any probe
      }
      smt::ConstantProbe ref =
          smt::probeConstant(arena, e, limits.solverConflictBudget);
      if (arena.isBool(e)) {
        TriVerdict expected = !ref.constant ? TriVerdict::kUnknown
                              : ref.boolValue ? TriVerdict::kTrue
                                              : TriVerdict::kFalse;
        TriVerdict v = warm.checkEngine().boolVerdict(e, p.component);
        ASSERT_EQ(static_cast<int>(v), static_cast<int>(expected))
            << "round " << round << " point " << p.id << " (" << p.label
            << ")";
      } else {
        auto w = warm.checkEngine().constVerdict(e, p.component);
        ASSERT_EQ(w.has_value(), ref.constant)
            << "round " << round << " point " << p.id;
        if (w.has_value()) {
          ASSERT_EQ(w->toHexString(), ref.value.toHexString());
        }
      }
    }
  }
}

// Builds an unsat pigeonhole formula PH(5,4) as a boolean expression: small
// enough for the DAG limit, but expensive enough that a near-zero conflict
// budget reliably expires on it.
expr::ExprRef pigeonholeExpr(expr::ExprArena& arena) {
  using expr::ExprRef;
  constexpr int P = 5, H = 4;
  ExprRef x[P][H];
  for (int p = 0; p < P; ++p) {
    for (int h = 0; h < H; ++h) {
      x[p][h] = arena.boolVar("ph" + std::to_string(p) + "_" +
                                  std::to_string(h),
                              expr::SymbolClass::kDataPlane);
    }
  }
  ExprRef all = arena.boolConst(true);
  for (int p = 0; p < P; ++p) {
    ExprRef some = arena.boolConst(false);
    for (int h = 0; h < H; ++h) some = arena.bOr(some, x[p][h]);
    all = arena.bAnd(all, some);
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) {
        all = arena.bAnd(
            all, arena.bOr(arena.bNot(x[p1][h]), arena.bNot(x[p2][h])));
      }
    }
  }
  return all;
}

// Regression pin: a verdict that times out (kUnknown) is never memoized —
// neither by a prefetch nor by a lazy check. If it were, the later budget
// raise would keep serving the stale kUnknown instead of settling the
// question.
TEST(CheckEngineTimeout, UnknownNeverCachedInEitherMode) {
  expr::ExprArena arena;
  expr::ExprRef ph = pigeonholeExpr(arena);
  CheckEngine engine(arena);
  CheckEngineOptions eopts;
  eopts.solverConflictBudget = 2;
  engine.configure(eopts);
  auto probes = [] {
    return obs::Registry::global().counter("smt.constant_queries").value();
  };

  // Prefetch path: the staged result is the timeout, and the next prefetch
  // probes again.
  const uint64_t beforePrefetch = probes();
  engine.prefetch({{ph, "C.t"}});
  CheckOutcome staged;
  EXPECT_EQ(static_cast<int>(engine.boolVerdict(ph, "C.t", &staged)),
            static_cast<int>(TriVerdict::kUnknown));
  EXPECT_TRUE(staged.timedOut);
  EXPECT_GT(probes(), beforePrefetch);
  const uint64_t afterPrefetch = probes();
  engine.prefetch({{ph, "C.t"}});
  EXPECT_GT(probes(), afterPrefetch) << "a timed-out verdict was memoized";

  // Lazy path: every check of the starved question probes again.
  engine.prefetch({});
  CheckOutcome starved;
  EXPECT_EQ(static_cast<int>(engine.boolVerdict(ph, "C.t", &starved)),
            static_cast<int>(TriVerdict::kUnknown));
  EXPECT_TRUE(starved.timedOut);
  EXPECT_FALSE(starved.cacheHit) << "a timed-out verdict was memoized";

  // With the budget lifted the same engine settles the question — which a
  // memoized kUnknown would have made impossible — and from then on the
  // memo answers.
  eopts.solverConflictBudget = 0;
  engine.configure(eopts);
  CheckOutcome settled;
  EXPECT_EQ(static_cast<int>(engine.boolVerdict(ph, "C.t", &settled)),
            static_cast<int>(TriVerdict::kFalse));
  EXPECT_FALSE(settled.timedOut);
  EXPECT_FALSE(settled.cacheHit);
  CheckOutcome memoized;
  EXPECT_EQ(static_cast<int>(engine.boolVerdict(ph, "C.t", &memoized)),
            static_cast<int>(TriVerdict::kFalse));
  EXPECT_TRUE(memoized.cacheHit);
}

// Scope invalidation retires the matching warm clause groups: after a
// component's scope is invalidated, new expressions over the retired
// formulas re-encode them and still answer correctly (a stale group would
// leave the old gates' activation guard dangling and could flip verdicts).
TEST(CheckEngineTimeout, ScopeInvalidationKeepsWarmSessionSound) {
  expr::ExprArena arena;
  expr::ExprRef ph = pigeonholeExpr(arena);
  CheckEngine engine(arena);
  EXPECT_EQ(static_cast<int>(engine.boolVerdict(ph, "C.t")),
            static_cast<int>(TriVerdict::kFalse));
  engine.invalidateScope("C.t");

  // Unsettled expressions sharing ph's structure probe through the session
  // whose group for "C.t" was just retired.
  expr::ExprRef q = arena.boolVar("q", expr::SymbolClass::kDataPlane);
  EXPECT_EQ(static_cast<int>(engine.boolVerdict(
                arena.bOr(ph, arena.bNot(ph)), "C.t")),
            static_cast<int>(TriVerdict::kTrue));
  EXPECT_EQ(static_cast<int>(engine.boolVerdict(arena.bAnd(ph, q), "C.t")),
            static_cast<int>(TriVerdict::kFalse));
  EXPECT_EQ(static_cast<int>(engine.boolVerdict(arena.bOr(ph, q), "C.t")),
            static_cast<int>(TriVerdict::kUnknown));
  // The memo still answers the settled question.
  CheckOutcome outcome;
  EXPECT_EQ(static_cast<int>(engine.boolVerdict(ph, "C.t", &outcome)),
            static_cast<int>(TriVerdict::kFalse));
  EXPECT_TRUE(outcome.cacheHit);
}

}  // namespace
}  // namespace flay::flay
