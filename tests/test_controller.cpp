#include "controller/controller.h"

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "controller/device.h"
#include "controller/fault_plan.h"
#include "net/fuzzer.h"
#include "net/workloads.h"
#include "obs/obs.h"
#include "oracle/oracle.h"
#include "p4/typecheck.h"
#include "sat/solver.h"
#include "smt/solver.h"
#include "support/backoff.h"

namespace flay::controller {
namespace {

namespace fs = std::filesystem;

p4::CheckedProgram load(const char* name) {
  return p4::loadProgramFromFile(net::programPath(name));
}

/// Fresh state directory per test; removed on scope exit.
class StateDir {
 public:
  explicit StateDir(const char* tag) {
    path_ = fs::temp_directory_path() /
            (std::string("flay-test-") + tag + "-" +
             std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~StateDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// Fuzzed scripts are generated against the *initial* config, so a replayed
/// update can become inapplicable (duplicate id, deleted target). The
/// controller surfaces that as std::invalid_argument after rolling back;
/// every driver in this file skips those exactly like flayc crashtest does.
size_t applyScript(FaultTolerantController& c,
                   const std::vector<runtime::Update>& script, size_t count) {
  size_t applied = 0;
  for (size_t i = 0; i < count && i < script.size(); ++i) {
    try {
      c.apply(script[i]);
      ++applied;
    } catch (const std::invalid_argument&) {
    }
  }
  return applied;
}

uint64_t counterValue(const char* name) {
  return obs::Registry::global().counter(name).value();
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

// ---------------------------------------------------------------------------
// Update wire format: the journal's round-trip law.
// ---------------------------------------------------------------------------

// Property test over fuzzed scripts: fromString(p, u.toString()) reproduces
// the exact rendering for every update kind the fuzzer emits, across
// programs and seeds. This is the law crash recovery replays depend on.
TEST(UpdateWireFormat, FuzzedRoundTripAcrossProgramsAndSeeds) {
  for (const char* name : {"middleblock", "switch", "scion", "dash"}) {
    p4::CheckedProgram checked = load(name);
    for (uint64_t seed : {1u, 2u, 3u}) {
      auto script = net::fuzzUpdateSequence(checked, 60, seed);
      ASSERT_FALSE(script.empty()) << name;
      for (const auto& u : script) {
        std::string wire = u.toString();
        runtime::Update parsed = runtime::Update::fromString(checked, wire);
        EXPECT_EQ(parsed.toString(), wire) << name << " seed " << seed;
      }
    }
  }
}

TEST(UpdateWireFormat, MalformedTextThrows) {
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 1, 1);
  ASSERT_FALSE(script.empty());
  std::string good = script[0].toString();

  EXPECT_THROW(runtime::Update::fromString(checked, ""),
               std::invalid_argument);
  EXPECT_THROW(runtime::Update::fromString(checked, "frobnicate x y"),
               std::invalid_argument);
  // Truncation mid-record (the torn-tail shape a crash can leave).
  EXPECT_THROW(
      runtime::Update::fromString(checked, good.substr(0, good.size() / 2)),
      std::invalid_argument);
  // Structurally fine, but the object does not exist in this program.
  EXPECT_THROW(
      runtime::Update::fromString(checked, "insert No.Such.Table [] -> x()"),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Transactional batches.
// ---------------------------------------------------------------------------

// Regression for the PR 1 applyBatch fix: when the k-th update of a batch
// throws, the engine must leave the already-applied prefix fully analyzed
// (annotations in sync with the installed config), not half-updated.
TEST(TransactionalBatch, EngineMidBatchThrowKeepsPrefixAnalyzed) {
  p4::CheckedProgram checked = load("middleblock");
  flay::FlayService svc(checked);
  auto script = net::fuzzUpdateSequence(checked, 4, 11);
  ASSERT_GE(script.size(), 1u);

  runtime::Update poison =
      runtime::Update::insert("No.Such.Table", runtime::TableEntry{});
  EXPECT_THROW(svc.applyBatch({script[0], poison}), std::invalid_argument);

  // The prefix really landed...
  flay::FlayService reference(checked);
  reference.applyUpdate(script[0]);
  // ...and the incremental annotations match a from-scratch analysis of the
  // installed state (the property PR 1's fix restored).
  oracle::ConsistencyReport rep = oracle::checkIncrementalConsistency(svc);
  EXPECT_TRUE(rep.consistent) << rep.mismatchedPoints.size()
                              << " points out of sync after mid-batch throw";
}

// The controller layers the strong exception guarantee on top: a failed
// batch rolls back even the successfully applied prefix, nothing of it
// reaches the journal, and a post-crash recovery agrees with the rolled-back
// state.
TEST(TransactionalBatch, ControllerRollsBackFailedBatchAndAbortsJournal) {
  StateDir dir("rollback");
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 10, 3);
  ASSERT_GE(script.size(), 3u);

  ControllerOptions opts;
  opts.stateDir = dir.str();
  std::string before;
  uint64_t committed = 0;
  {
    FaultTolerantController ctrl(checked, nullptr, opts);
    applyScript(ctrl, script, 2);
    before = ctrl.stateDigest();
    committed = ctrl.committedUpdates();

    uint64_t rollbacksBefore = counterValue("controller.rollbacks");
    runtime::Update poison =
        runtime::Update::insert("No.Such.Table", runtime::TableEntry{});
    EXPECT_THROW(ctrl.applyBatch({script[2], poison}), std::invalid_argument);

    EXPECT_EQ(ctrl.stateDigest(), before) << "failed batch left state behind";
    EXPECT_EQ(ctrl.committedUpdates(), committed);
    EXPECT_EQ(counterValue("controller.rollbacks"), rollbacksBefore + 1);
  }
  // The rolled-back batch must not replay: it was never journaled.
  FaultTolerantController recovered(checked, nullptr, opts);
  EXPECT_EQ(recovered.stateDigest(), before);
  EXPECT_EQ(recovered.replayedUpdates(), committed);
}

// A transaction is journaled only once its in-memory apply succeeded, so a
// batch that rolls back leaves the journal byte-identical.
TEST(TransactionalBatch, RolledBackBatchLeavesJournalUntouched) {
  StateDir dir("rollback-bytes");
  p4::CheckedProgram checked = load("middleblock");
  auto entries = net::middleblockAclEntries(2);

  ControllerOptions opts;
  opts.stateDir = dir.str();
  FaultTolerantController ctrl(checked, nullptr, opts);
  ctrl.apply(entries[0]);
  const std::string path = dir.str() + "/journal.jsonl";
  const std::string before = readFile(path);
  ASSERT_FALSE(before.empty());

  runtime::Update poison =
      runtime::Update::insert("No.Such.Table", runtime::TableEntry{});
  EXPECT_THROW(ctrl.applyBatch({entries[1], poison}), std::invalid_argument);
  EXPECT_EQ(readFile(path), before);
}

// ---------------------------------------------------------------------------
// Write-ahead journal + crash recovery.
// ---------------------------------------------------------------------------

// Kill-at-any-point: for every prefix length k, a controller recovered from
// the journal (checkpoints included) matches the uninterrupted run's digest
// exactly. This is the unit-sized version of `flayc crashtest`.
TEST(CrashRecovery, RecoversToExactDigestAtEveryKillPoint) {
  p4::CheckedProgram checked = load("middleblock");
  const size_t kUpdates = 12;
  auto script = net::fuzzUpdateSequence(checked, kUpdates, 5);

  // Reference digests from one uninterrupted run.
  std::vector<std::string> reference;
  {
    StateDir dir("crash-ref");
    ControllerOptions opts;
    opts.stateDir = dir.str();
    FaultTolerantController ctrl(checked, nullptr, opts);
    reference.push_back(ctrl.stateDigest());
    for (size_t i = 0; i < script.size(); ++i) {
      try {
        ctrl.apply(script[i]);
      } catch (const std::invalid_argument&) {
      }
      reference.push_back(ctrl.stateDigest());
    }
  }

  // Small checkpoint interval so kill points land before, on, and after
  // checkpoint boundaries.
  for (size_t k = 1; k <= script.size(); ++k) {
    StateDir dir("crash-kill");
    ControllerOptions opts;
    opts.stateDir = dir.str();
    opts.checkpointEvery = 4;
    {
      FaultTolerantController ctrl(checked, nullptr, opts);
      for (size_t i = 0; i < k; ++i) {
        try {
          ctrl.apply(script[i]);
        } catch (const std::invalid_argument&) {
        }
      }
      // Destructor without any shutdown flush = SIGKILL equivalent: every
      // record was fsync'd at commit time.
    }
    FaultTolerantController recovered(checked, nullptr, opts);
    EXPECT_EQ(recovered.stateDigest(), reference[k]) << "kill point " << k;
  }
}

// A torn tail (partial record from a crash mid-write) must not poison
// recovery: the committed prefix still replays.
TEST(CrashRecovery, TornJournalTailIsIgnored) {
  StateDir dir("torn");
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 6, 9);

  ControllerOptions opts;
  opts.stateDir = dir.str();
  std::string digest;
  {
    FaultTolerantController ctrl(checked, nullptr, opts);
    applyScript(ctrl, script, script.size());
    digest = ctrl.stateDigest();
  }
  {
    std::FILE* f =
        std::fopen((dir.str() + "/journal.jsonl").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"seq\":999999,\"type\":\"upd", f);  // no newline: torn
    std::fclose(f);
  }
  FaultTolerantController recovered(checked, nullptr, opts);
  EXPECT_EQ(recovered.stateDigest(), digest);
}

// Commits made after recovering from a torn tail must survive the next
// restart: the journal cuts the torn line off on open, so the next commit
// record starts a line of its own instead of being glued onto the torn one.
TEST(CrashRecovery, CommitsAfterTornTailRecoverySurviveRestart) {
  StateDir dir("torn-restart");
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 12, 9);
  ASSERT_EQ(script.size(), 12u);
  const std::vector<runtime::Update> first(script.begin(), script.begin() + 6);
  const std::vector<runtime::Update> rest(script.begin() + 6, script.end());

  ControllerOptions opts;
  opts.stateDir = dir.str();
  size_t applied = 0;
  {
    FaultTolerantController ctrl(checked, nullptr, opts);
    applied = applyScript(ctrl, first, first.size());
  }
  {
    std::FILE* f = std::fopen((dir.str() + "/journal.jsonl").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"seq\":999999,\"type\":\"upd", f);  // no newline: torn
    std::fclose(f);
  }
  std::string acknowledged;
  {
    FaultTolerantController recovered(checked, nullptr, opts);
    EXPECT_EQ(recovered.replayedUpdates(), applied);
    applied += applyScript(recovered, rest, rest.size());
    acknowledged = recovered.stateDigest();
  }
  FaultTolerantController restarted(checked, nullptr, opts);
  EXPECT_EQ(restarted.stateDigest(), acknowledged);
  EXPECT_EQ(restarted.replayedUpdates(), applied);
}

// Only an unterminated final line is a torn tail. A complete line that does
// not parse, whether a damaged record or one in the retired
// begin/update/commit format, is corruption: the controller refuses to
// start instead of silently dropping every commit after that line.
TEST(CrashRecovery, MalformedCompleteLineRefusesToStart) {
  StateDir dir("corrupt");
  p4::CheckedProgram checked = load("middleblock");
  auto entries = net::middleblockAclEntries(3);

  ControllerOptions opts;
  opts.stateDir = dir.str();
  {
    FaultTolerantController ctrl(checked, nullptr, opts);
    for (const auto& u : entries) ctrl.apply(u);
  }
  const std::string path = dir.str() + "/journal.jsonl";
  std::string journal = readFile(path);
  const size_t secondLine = journal.find('\n') + 1;
  ASSERT_NE(secondLine, 0u);
  writeFile(path, journal.substr(0, secondLine) +
                      "{\"seq\":2,\"type\":\"gar\n" +
                      journal.substr(secondLine));
  try {
    FaultTolerantController corrupt(checked, nullptr, opts);
    ADD_FAILURE() << "a garbage middle line was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }

  writeFile(path, "{\"seq\":1,\"type\":\"begin\",\"n\":1}\n");
  EXPECT_THROW({ FaultTolerantController old(checked, nullptr, opts); },
               std::runtime_error);

  writeFile(path, "{\"seq\":1,\"type\":\"ifc\",\"text\":\"x\"}\n");
  EXPECT_THROW({ FaultTolerantController audit(checked, nullptr, opts); },
               std::runtime_error);
}

TEST(CrashRecovery, CheckpointBoundsReplayWork) {
  StateDir dir("ckpt");
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 10, 7);

  ControllerOptions opts;
  opts.stateDir = dir.str();
  opts.checkpointEvery = 0;  // only explicit checkpoints
  std::string digest;
  size_t applied = 0;
  {
    FaultTolerantController ctrl(checked, nullptr, opts);
    applied = applyScript(ctrl, script, script.size());
    ctrl.checkpointNow();
    digest = ctrl.stateDigest();
  }
  FaultTolerantController recovered(checked, nullptr, opts);
  EXPECT_EQ(recovered.stateDigest(), digest);
  // Everything before the checkpoint came from the snapshot, not replay.
  EXPECT_EQ(recovered.replayedUpdates(), 0u) << "applied " << applied;
}

// One record per committed transaction: N single-update applies leave N
// commit records of one update each, and the record counter rises by N.
TEST(Journal, EachCommittedApplyWritesOneRecord) {
  StateDir dir("one-record");
  p4::CheckedProgram checked = load("middleblock");
  auto entries = net::middleblockAclEntries(8);

  ControllerOptions opts;
  opts.stateDir = dir.str();
  opts.checkpointEvery = 0;
  FaultTolerantController ctrl(checked, nullptr, opts);
  const uint64_t recordsBefore = counterValue("controller.journal_records");
  for (const auto& u : entries) ctrl.apply(u);
  EXPECT_EQ(counterValue("controller.journal_records"),
            recordsBefore + entries.size());

  const std::string path = dir.str() + "/journal.jsonl";
  std::vector<JournalRecord> records = Journal::load(path);
  ASSERT_EQ(records.size(), entries.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].type, JournalRecord::Type::kCommit);
    EXPECT_EQ(records[i].seq, i + 1);
    ASSERT_EQ(records[i].updates.size(), 1u);
    EXPECT_EQ(records[i].updates[0], entries[i].toString());
  }
  const std::string journal = readFile(path);
  EXPECT_EQ(journal.substr(0, journal.find('\n')),
            "{\"seq\":1,\"type\":\"commit\",\"updates\":[\"" +
                entries[0].toString() + "\"]}");
}

// appendBegin and appendUpdate only stage: a group that is never committed
// never reaches the file, and a new appendBegin discards it.
TEST(Journal, UncommittedGroupNeverReachesFile) {
  StateDir dir("staged");
  auto entries = net::middleblockAclEntries(2);
  const std::string path = dir.str() + "/journal.jsonl";
  {
    Journal journal(path);
    journal.open();
    journal.appendBegin(2);
    journal.appendUpdate(entries[0]);
    journal.appendUpdate(entries[1]);
  }
  EXPECT_EQ(fs::file_size(path), 0u);
  {
    Journal journal(path);
    journal.open();
    journal.appendBegin(1);
    journal.appendUpdate(entries[0]);
    journal.appendBegin(1);
    journal.appendUpdate(entries[1]);
    EXPECT_EQ(journal.appendCommit(), 1u);
  }
  std::vector<JournalRecord> records = Journal::load(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].updates,
            std::vector<std::string>{entries[1].toString()});
}

// ---------------------------------------------------------------------------
// Device retry/backoff + graceful degradation.
// ---------------------------------------------------------------------------

// Transient install failures are absorbed by bounded retry: the device ends
// up current and the retry counter proves the path fired.
TEST(DeviceFaults, TransientInstallFailuresAreRetried) {
  p4::CheckedProgram checked = load("middleblock");
  FaultPlan plan;
  plan.failFirstInstalls = 2;
  SimulatedDevice device(plan);

  uint64_t retriesBefore = counterValue("controller.retries");
  ControllerOptions opts;
  opts.maxInstallRetries = 4;
  FaultTolerantController ctrl(checked, &device, opts);

  EXPECT_FALSE(ctrl.degraded());
  EXPECT_EQ(device.injectedInstallFailures(), 2u);
  EXPECT_GE(device.installAttempts(), 3u);
  EXPECT_GE(counterValue("controller.retries"), retriesBefore + 2);
}

// A sustained outage exhausts the retry budget: the controller degrades
// (device pinned to the last good program), queues what it cannot forward,
// and recovers once the outage ends — all visible in the counters.
TEST(DeviceFaults, OutageDegradesThenRecovers) {
  p4::CheckedProgram checked = load("middleblock");
  FaultPlan plan;
  plan.outageStart = 2;  // initial install (attempt 1) succeeds
  plan.outageLength = 8;
  SimulatedDevice device(plan);

  ControllerOptions opts;
  opts.maxInstallRetries = 1;
  opts.tryRecoverEvery = 0;  // recovery only when the test asks
  FaultTolerantController ctrl(checked, &device, opts);
  ASSERT_FALSE(ctrl.degraded());

  uint64_t degradationsBefore = counterValue("controller.degradations");
  uint64_t recoveriesBefore =
      counterValue("controller.degradation_recoveries");

  auto script = net::fuzzUpdateSequence(checked, 40, 13);
  size_t i = 0;
  for (; i < script.size() && !ctrl.degraded(); ++i) {
    try {
      ctrl.apply(script[i]);
    } catch (const std::invalid_argument&) {
    }
  }
  ASSERT_TRUE(ctrl.degraded())
      << "script never forced a recompile during the outage";
  EXPECT_EQ(counterValue("controller.degradations"), degradationsBefore + 1);

  // While degraded, updates keep committing to the authoritative analysis;
  // non-forwardable ones queue for the pinned program.
  size_t before = ctrl.committedUpdates();
  for (; i < script.size(); ++i) {
    try {
      ctrl.apply(script[i]);
    } catch (const std::invalid_argument&) {
    }
  }
  EXPECT_GT(ctrl.committedUpdates(), before);

  // Burn through the outage window, then recovery must succeed and drain
  // the queue.
  bool healthy = false;
  for (int attempt = 0; attempt < 16 && !healthy; ++attempt) {
    healthy = ctrl.tryRecover();
  }
  EXPECT_TRUE(healthy);
  EXPECT_FALSE(ctrl.degraded());
  EXPECT_EQ(ctrl.queuedUpdates(), 0u);
  EXPECT_GE(counterValue("controller.degradation_recoveries"),
            recoveriesBefore + 1);
}

// The backoff schedule is exponential with jitter and capped; it is
// recorded, never slept, so tests never pay it in wall-clock.
TEST(DeviceFaults, BackoffScheduleIsRecordedWithoutSleeping) {
  p4::CheckedProgram checked = load("middleblock");
  FaultPlan plan;
  plan.failFirstInstalls = 3;
  SimulatedDevice device(plan);

  obs::Histogram& backoff =
      obs::Registry::global().histogram("controller.backoff_us");
  backoff.reset();  // other tests' controllers record here too

  ControllerOptions opts;
  opts.maxInstallRetries = 4;
  opts.backoffBaseMicros = 100;
  opts.backoffMaxMicros = 250;
  FaultTolerantController ctrl(checked, &device, opts);

  EXPECT_FALSE(ctrl.degraded());
  EXPECT_GE(backoff.count(), 3u);
  // Cap + jitter bound: every recorded backoff is < max + base.
  EXPECT_LT(backoff.max(), 250u + 100u);
}

// The one backoff schedule (install retries here, fleet re-admission in
// FleetController::tryRecoverAll) never backs off less after more failures:
// its capped part is non-decreasing and stays at max once it gets there. A
// shift that wraps mod 2^64 breaks this once the base's set bits shift out
// — attempt 62 for base 200, attempts 55-62 for base 1024 — which a policy
// that never gives up (maxAttempts = 0) reaches.
TEST(DeviceFaults, BackoffSaturatesAtMaxAndNeverDecreases) {
  for (uint64_t max : {uint64_t{5000}, uint64_t{50000}, uint64_t{200000}}) {
    for (uint64_t base : {uint64_t{1}, uint64_t{200}, uint64_t{500},
                          uint64_t{1024}}) {
      SCOPED_TRACE("base " + std::to_string(base) + ", max " +
                   std::to_string(max));
      std::mt19937_64 rng(base);
      uint64_t prev = 0;
      bool reached = false;
      for (uint32_t attempt = 1; attempt <= 100; ++attempt) {
        uint64_t capped = support::cappedBackoffMicros(base, max, attempt);
        if (attempt == 1) {
          EXPECT_EQ(capped, std::min(base, max));
        }
        EXPECT_GE(capped, prev) << "attempt " << attempt;
        EXPECT_LE(capped, max) << "attempt " << attempt;
        if (reached) {
          EXPECT_EQ(capped, max) << "attempt " << attempt;
        }
        reached |= capped == max;
        uint64_t full = support::backoffMicros(base, max, attempt, rng);
        EXPECT_GE(full, capped) << "attempt " << attempt;
        EXPECT_LT(full - capped, base) << "attempt " << attempt;
        prev = capped;
      }
      EXPECT_TRUE(reached);
    }
  }
}

// ---------------------------------------------------------------------------
// Fail-safe solver deadlines.
// ---------------------------------------------------------------------------

/// Pigeonhole principle PHP(pigeons, holes): unsatisfiable for
/// pigeons > holes, and famously expensive for CDCL — guaranteed to burn
/// more than one conflict, which is all the budget tests need.
void addPigeonhole(sat::Solver& s, uint32_t pigeons, uint32_t holes) {
  std::vector<std::vector<uint32_t>> x(pigeons);
  for (uint32_t p = 0; p < pigeons; ++p) {
    for (uint32_t h = 0; h < holes; ++h) x[p].push_back(s.newVar());
  }
  for (uint32_t p = 0; p < pigeons; ++p) {
    std::vector<sat::Lit> clause;
    for (uint32_t h = 0; h < holes; ++h) {
      clause.push_back(sat::Lit::make(x[p][h], false));
    }
    s.addClause(clause);
  }
  for (uint32_t h = 0; h < holes; ++h) {
    for (uint32_t p1 = 0; p1 < pigeons; ++p1) {
      for (uint32_t p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.addClause({sat::Lit::make(x[p1][h], true),
                     sat::Lit::make(x[p2][h], true)});
      }
    }
  }
}

TEST(SolverDeadline, SatBudgetExhaustionReturnsUnknown) {
  sat::Solver s;
  addPigeonhole(s, 6, 5);
  s.setConflictBudget(1);
  EXPECT_EQ(s.solve(), sat::Result::kUnknown);
  EXPECT_EQ(s.numBudgetExhaustions(), 1u);

  // Lifting the deadline settles the instance (and learned clauses from the
  // budgeted attempt were kept, never discarded).
  s.setConflictBudget(0);
  EXPECT_EQ(s.solve(), sat::Result::kUnsat);
  EXPECT_EQ(s.numBudgetExhaustions(), 1u);
}

TEST(SolverDeadline, SmtBudgetedConstantValueReportsTimeout) {
  expr::ExprArena arena;
  // x*x + x == x*(x+1) is valid but structurally distinct (the arena's
  // hash-consing cannot fold it), and proving it after bit-blasting a
  // 12-bit multiplier needs real search; one conflict is never enough.
  expr::ExprRef x = arena.var("x", 12, expr::SymbolClass::kDataPlane);
  expr::ExprRef one = arena.bvConst(12, 1);
  expr::ExprRef lhs = arena.add(arena.mul(x, x), x);
  expr::ExprRef rhs = arena.mul(x, arena.add(x, one));
  expr::ExprRef identity = arena.eq(lhs, rhs);

  smt::ConstantProbe c = smt::probeConstant(arena, identity, 1);
  EXPECT_TRUE(c.timedOut);
  EXPECT_FALSE(c.constant) << "deadline expiry must read as non-constant";
}

// The specializer's use of the deadline is fail-safe: a starved solver can
// only lose specializations, never produce a program that fails to recheck.
// (The conservative fallback on kUnknown keeps the general implementation.)
TEST(SolverDeadline, StarvedSpecializerStaysConservative) {
  p4::CheckedProgram checked = load("middleblock");

  flay::FlayService svc(checked);
  flay::SpecializerOptions starved;
  starved.solverConflictBudget = 1;
  flay::Specializer specializer(svc, starved);
  flay::SpecializationResult result = specializer.specialize();
  EXPECT_NO_THROW(flay::recheck(std::move(result.program)));

  flay::FlayService svc2(checked);
  flay::SpecializerOptions unlimited;
  unlimited.solverConflictBudget = 0;
  flay::Specializer full(svc2, unlimited);
  flay::SpecializationResult fullResult = full.specialize();
  // Degraded quality is allowed; extra changes are not.
  EXPECT_LE(result.stats.totalChanges(), fullResult.stats.totalChanges());
}

// ---------------------------------------------------------------------------
// Streaming bulk apply through the controller.
// ---------------------------------------------------------------------------

// Each chunk commits as one journal transaction, so a controller recovered
// after the stream lands on the exact same digest — and the bulk path's
// state matches a controller that applied the same stream sequentially.
TEST(BulkApply, JournalsPerChunkAndRecoversToSameDigest) {
  StateDir dir("bulk");
  p4::CheckedProgram checked = load("middleblock");
  auto stream = net::middleblockAclEntries(150);

  ControllerOptions opts;
  opts.stateDir = dir.str();
  std::string digest;
  uint64_t committed = 0;
  {
    FaultTolerantController ctrl(checked, nullptr, opts);
    flay::BulkLoadOptions bopts;
    bopts.chunkSize = 32;
    BulkApplyResult res = ctrl.applyBulk(stream, bopts);
    EXPECT_EQ(res.report.applied, stream.size());
    EXPECT_EQ(res.report.rejected, 0u);
    EXPECT_TRUE(res.deviceCurrent);
    EXPECT_FALSE(res.degraded);
    digest = ctrl.stateDigest();
    committed = ctrl.committedUpdates();
    EXPECT_EQ(committed, stream.size());
  }
  FaultTolerantController recovered(checked, nullptr, opts);
  EXPECT_EQ(recovered.stateDigest(), digest);
  // The end-of-stream checkpoint may absorb the whole journal; whatever is
  // left to replay can't exceed what was committed.
  EXPECT_LE(recovered.replayedUpdates(), committed);

  StateDir seqDir("bulk-seq");
  ControllerOptions seqOpts;
  seqOpts.stateDir = seqDir.str();
  FaultTolerantController seq(checked, nullptr, seqOpts);
  applyScript(seq, stream, stream.size());
  EXPECT_EQ(seq.stateDigest(), digest);
}

// A bulk chunk commits through the same three journal calls: 150 entries in
// chunks of 32 leave five commit records, each holding its chunk's updates.
TEST(BulkApply, CommitsOneRecordPerChunk) {
  StateDir dir("bulk-records");
  p4::CheckedProgram checked = load("middleblock");
  auto stream = net::middleblockAclEntries(150);

  ControllerOptions opts;
  opts.stateDir = dir.str();
  opts.checkpointEvery = 0;
  FaultTolerantController ctrl(checked, nullptr, opts);
  const uint64_t recordsBefore = counterValue("controller.journal_records");
  flay::BulkLoadOptions bopts;
  bopts.chunkSize = 32;
  ASSERT_EQ(ctrl.applyBulk(stream, bopts).report.applied, stream.size());
  EXPECT_EQ(counterValue("controller.journal_records"), recordsBefore + 5);

  std::vector<JournalRecord> records =
      Journal::load(dir.str() + "/journal.jsonl");
  ASSERT_EQ(records.size(), 5u);
  size_t next = 0;
  for (const JournalRecord& rec : records) {
    EXPECT_EQ(rec.type, JournalRecord::Type::kCommit);
    EXPECT_EQ(rec.updates.size(), std::min<size_t>(32, stream.size() - next));
    for (const std::string& text : rec.updates) {
      ASSERT_LT(next, stream.size());
      EXPECT_EQ(text, stream[next++].toString());
    }
  }
  EXPECT_EQ(next, stream.size());
}

// applyBatch and applyBulk share one device step. Fed the same updates one
// call at a time through a sustained outage, the two controllers forward
// and queue exactly the same updates: a degraded stream forwards whatever
// stays semantics-preserving for the pinned program and touches no queued
// target, like a batch, instead of queueing everything.
TEST(BulkApply, DegradedStreamForwardsLikeABatch) {
  p4::CheckedProgram checked = load("middleblock");
  auto script = net::fuzzUpdateSequence(checked, 80, /*seed=*/7);
  FaultPlan plan = FaultPlan::parse("outage=4+1000000");
  SimulatedDevice batchDevice(plan);
  SimulatedDevice bulkDevice(plan);
  ControllerOptions opts;
  opts.tryRecoverEvery = 0;
  FaultTolerantController batch(checked, &batchDevice, opts);
  FaultTolerantController bulk(checked, &bulkDevice, opts);

  uint64_t forwardedWhileDegraded = 0;
  for (size_t i = 0; i < script.size(); ++i) {
    const bool wasDegraded = batch.degraded();
    const uint64_t visibleBefore = batch.deviceVisibleUpdates();
    bool rejected = false;
    try {
      batch.applyBatch({script[i]});
    } catch (const std::invalid_argument&) {
      rejected = true;
    }
    BulkApplyResult r = bulk.applyBulk({script[i]});
    EXPECT_EQ(r.report.rejected, rejected ? 1u : 0u) << "update " << i;
    ASSERT_EQ(bulk.degraded(), batch.degraded()) << "update " << i;
    ASSERT_EQ(bulk.deviceVisibleUpdates(), batch.deviceVisibleUpdates())
        << "update " << i;
    ASSERT_EQ(bulk.queuedUpdates(), batch.queuedUpdates()) << "update " << i;
    if (wasDegraded) {
      forwardedWhileDegraded += batch.deviceVisibleUpdates() - visibleBefore;
    }
  }
  // The script reaches both degraded branches: forward and queue.
  EXPECT_TRUE(batch.degraded());
  EXPECT_GT(forwardedWhileDegraded, 0u);
  EXPECT_GT(batch.queuedUpdates(), 0u);
  EXPECT_EQ(bulk.stateDigest(), batch.stateDigest());
}

using Feed = std::function<void(FaultTolerantController&,
                                const std::vector<runtime::Update>&)>;

/// Death-test child: a controller commits 10 ACL entries one by one, then
/// `feed` sends 140 more in transactions of 32 under a file-size limit that
/// lets the journal take the first two and 16 bytes of the third. The third
/// commit fails; the state left in memory must be the state recovery
/// rebuilds from the journal, the committed count that of the first two,
/// and the device must have taken every committed update. Exits 0 when all
/// three hold (and the failure surfaced as an exception).
[[noreturn]] void failThirdCommit(const std::string& root, const Feed& feed) {
  p4::CheckedProgram checked = load("middleblock");
  auto stream = net::middleblockAclEntries(150);
  std::vector<runtime::Update> warmup(stream.begin(), stream.begin() + 10);
  std::vector<runtime::Update> rest(stream.begin() + 10, stream.end());
  std::vector<runtime::Update> fitting(rest.begin(), rest.begin() + 64);
  ControllerOptions opts;
  opts.checkpointEvery = 0;

  // The journal's size once the first two transactions landed, taken from
  // an identical controller without a limit: the records are byte-equal.
  opts.stateDir = root + "/unlimited";
  fs::create_directories(opts.stateDir);
  uintmax_t fitBytes = 0;
  uint64_t fitCommitted = 0;
  {
    SimulatedDevice device{FaultPlan{}};
    FaultTolerantController ref(checked, &device, opts);
    for (const auto& u : warmup) ref.apply(u);
    feed(ref, fitting);
    fitBytes = fs::file_size(opts.stateDir + "/journal.jsonl");
    fitCommitted = ref.committedUpdates();
  }

  opts.stateDir = root + "/limited";
  fs::create_directories(opts.stateDir);
  std::string digest;
  uint64_t committed = 0;
  uint64_t visible = 0;
  bool threw = false;
  {
    SimulatedDevice device{FaultPlan{}};
    FaultTolerantController ctrl(checked, &device, opts);
    for (const auto& u : warmup) ctrl.apply(u);
    std::signal(SIGXFSZ, SIG_IGN);
    rlimit unlimited{};
    ::getrlimit(RLIMIT_FSIZE, &unlimited);
    rlimit limited = unlimited;
    limited.rlim_cur = fitBytes + 16;
    ::setrlimit(RLIMIT_FSIZE, &limited);
    try {
      feed(ctrl, rest);
    } catch (const std::runtime_error& e) {
      threw = std::string(e.what()).find("journal") != std::string::npos;
      std::fprintf(stderr, "feed threw: %s\n", e.what());
    }
    ::setrlimit(RLIMIT_FSIZE, &unlimited);
    digest = ctrl.stateDigest();
    committed = ctrl.committedUpdates();
    visible = ctrl.deviceVisibleUpdates();
  }
  std::string recoveredDigest =
      FaultTolerantController(checked, nullptr, opts).stateDigest();
  std::fprintf(stderr,
               "committed %llu (want %llu), device-visible %llu, digest %s "
               "(recovered %s)\n",
               static_cast<unsigned long long>(committed),
               static_cast<unsigned long long>(fitCommitted),
               static_cast<unsigned long long>(visible), digest.c_str(),
               recoveredDigest.c_str());
  // exit() skips the caller's StateDir destructor.
  fs::remove_all(root);
  std::exit(threw && committed == fitCommitted && visible == committed &&
                    digest == recoveredDigest
                ? 0
                : 1);
}

// A bulk chunk whose commit record fails to land is rolled back like a
// batch, and the chunks before it stay committed and reach the device.
TEST(BulkApplyDeathTest, FailedChunkCommitRollsBackTheChunk) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  StateDir dir("bulk-commit-failure");
  Feed bulk = [](FaultTolerantController& c,
                 const std::vector<runtime::Update>& updates) {
    flay::BulkLoadOptions bopts;
    bopts.chunkSize = 32;
    c.applyBulk(updates, bopts);
  };
  EXPECT_EXIT(failThirdCommit(dir.str(), bulk), ::testing::ExitedWithCode(0),
              "");
}

// The same failure through applyBatch: the shared commit rolls it back.
TEST(BulkApplyDeathTest, FailedBatchCommitRollsBackTheBatch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  StateDir dir("batch-commit-failure");
  Feed batches = [](FaultTolerantController& c,
                    const std::vector<runtime::Update>& updates) {
    for (size_t i = 0; i < updates.size(); i += 32) {
      c.applyBatch({updates.begin() + i,
                    updates.begin() + std::min(i + 32, updates.size())});
    }
  };
  EXPECT_EXIT(failThirdCommit(dir.str(), batches),
              ::testing::ExitedWithCode(0), "");
}

// ---------------------------------------------------------------------------
// Epoch events: the device-visibility contract the replay harness builds on.
// ---------------------------------------------------------------------------

// Every committed step fires exactly one event; committed is monotone and
// never behind deviceVisible; healthy steps leave no backlog; a sustained
// outage opens a committed-vs-deviceVisible gap that packets experience as
// staleness; the closing recovery event carries the full degraded episode.
TEST(EpochEvents, TrackCommittedVersusDeviceVisibleThroughAnOutage) {
  p4::CheckedProgram checked = load("middleblock");
  FaultPlan plan;
  plan.outageStart = 2;
  plan.outageLength = 30;
  SimulatedDevice device(plan);

  ControllerOptions opts;
  opts.maxInstallRetries = 1;
  opts.tryRecoverEvery = 0;
  FaultTolerantController ctrl(checked, &device, opts);
  ASSERT_FALSE(ctrl.degraded());

  std::vector<EpochEvent> events;
  ctrl.setEpochCallback([&](const EpochEvent& e) { events.push_back(e); });

  auto script = net::fuzzUpdateSequence(checked, 40, 13);
  applyScript(ctrl, script, script.size());
  ASSERT_TRUE(ctrl.degraded())
      << "script never forced a recompile during the outage";
  ASSERT_FALSE(events.empty());

  uint64_t lastCommitted = 0;
  bool sawGap = false;
  for (const EpochEvent& e : events) {
    EXPECT_GE(e.committed, lastCommitted);
    lastCommitted = e.committed;
    EXPECT_LE(e.deviceVisible, e.committed);
    if (!e.degraded) {
      // Healthy steps end device-current: no backlog survives the event.
      EXPECT_EQ(e.deviceVisible, e.committed);
    }
    sawGap |= e.degraded && e.deviceVisible < e.committed;
    EXPECT_FALSE(e.recovery);
  }
  EXPECT_TRUE(sawGap) << "degraded mode never exposed an update backlog";
  EXPECT_GT(ctrl.committedUpdates(), ctrl.deviceVisibleUpdates());

  // Burn through the outage; the recovery event closes the gap.
  size_t eventsBefore = events.size();
  bool healthy = false;
  for (int attempt = 0; attempt < 40 && !healthy; ++attempt) {
    healthy = ctrl.tryRecover();
  }
  ASSERT_TRUE(healthy);
  ASSERT_GT(events.size(), eventsBefore);
  const EpochEvent& rec = events.back();
  EXPECT_TRUE(rec.recovery);
  EXPECT_TRUE(rec.advanced);
  EXPECT_TRUE(rec.viaRecompile);
  EXPECT_FALSE(rec.degraded);
  EXPECT_EQ(rec.deviceVisible, rec.committed);
  EXPECT_EQ(ctrl.committedUpdates(), ctrl.deviceVisibleUpdates());
}

// Healthy churn: every advancing event reports the verdict-to-install lag
// that the replay harness turns into install-lag histograms, and the pinned
// program handle stays valid across installs (shared ownership, so a
// forwarding thread holding a superseded version never dangles).
TEST(EpochEvents, HealthyStepsAdvanceWithLagAndStablePins) {
  p4::CheckedProgram checked = load("middleblock");
  SimulatedDevice device;
  FaultTolerantController ctrl(checked, &device);

  std::vector<EpochEvent> events;
  ctrl.setEpochCallback([&](const EpochEvent& e) { events.push_back(e); });
  std::shared_ptr<const p4::CheckedProgram> firstPin;

  auto script = net::fuzzUpdateSequence(checked, 24, 5);
  for (const auto& u : script) {
    try {
      ctrl.apply(u);
    } catch (const std::invalid_argument&) {
    }
    if (!firstPin && ctrl.pinnedProgram()) firstPin = ctrl.pinnedProgram();
  }
  ASSERT_FALSE(events.empty());
  for (const EpochEvent& e : events) {
    EXPECT_TRUE(e.advanced);
    EXPECT_FALSE(e.recovery);
    EXPECT_EQ(e.deviceVisible, e.committed);
  }
  // The superseded pin is still alive and usable after later installs.
  if (firstPin) {
    EXPECT_FALSE(firstPin->program.controls.empty());
  }
}

}  // namespace
}  // namespace flay::controller
