#ifndef FLAY_FLAY_CHECK_ENGINE_H
#define FLAY_FLAY_CHECK_ENGINE_H

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "expr/arena.h"
#include "smt/incremental.h"
#include "smt/solver.h"
#include "support/thread_pool.h"

namespace flay::flay {

/// True constant / false constant / unknown for a specialized boolean.
enum class TriVerdict { kTrue, kFalse, kUnknown };

struct CheckEngineOptions {
  /// Worker threads for prefetch(): jobs-1 pool workers plus the calling
  /// thread probe concurrently. 1 = fully serial (no pool is created).
  /// Verdicts are deterministic regardless.
  size_t jobs = 1;
  /// Ask the solver only about expressions up to this DAG size (0 disables
  /// solver queries entirely).
  size_t solverDagLimit = 512;
  /// Fail-safe deadline per underlying SAT call, in conflicts (0 = none).
  /// An expired query yields "unknown", which the specializer maps to its
  /// conservative verdict: the point keeps the general implementation, so a
  /// solver blowup can degrade specialization quality but never correctness
  /// or liveness of the update pipeline.
  uint64_t solverConflictBudget = 20000;
};

/// How a verdict was obtained, for the caller's stats.
struct CheckOutcome {
  /// The check went past constant folding: a solver query ran, or the memo
  /// answered in its place. Mirrors what SpecializationStats::solverQueries
  /// counted before the engine existed.
  bool solverQueried = false;
  /// The conflict budget expired with the question unsettled. Never
  /// memoized.
  bool timedOut = false;
  /// The verdict was settled before this check's batch (or lazy probe)
  /// asked for it, and the memo answered.
  bool cacheHit = false;
};

/// One semantics check to warm up ahead of the rewrite pass. `scope` names
/// the warm clause group its encoding lands in, retired per component by
/// invalidateScope() (usually the program point's component).
struct CheckQuery {
  expr::ExprRef expr;
  std::string scope;
};

/// The semantics-check engine: answers the specializer's "is this
/// specialized expression a constant?" questions through, in order, arena
/// constant folding, a verdict memo keyed by expression id, and warm
/// constantness probes (smt::ProbeSession). prefetch() runs the probes of a
/// whole batch concurrently on a thread pool — safe because probes only read
/// the (immutable once interned) arena and never intern nodes.
///
/// The memo: hash-consing makes an expression id the identity of its
/// formula, and the control-plane config is already substituted into it, so
/// a settled verdict is a permanent fact about the id and is never
/// invalidated. Timed-out probes are never stored — an expired conflict
/// budget says nothing about the expression — so a later check (or a raised
/// budget) asks again. The memo is only read and written on the
/// coordinating thread; pool workers see just their own slice of misses.
///
/// Determinism: a verdict is a pure function of the expression. Each worker
/// slot keeps a warm smt::ProbeSession; warm solves that exhaust their
/// budget fall back to a fresh smt::probeConstant with the same budget, so
/// verdicts (timeouts included) are identical across jobs settings and
/// prefetch vs lazy evaluation.
class CheckEngine {
 public:
  explicit CheckEngine(const expr::ExprArena& arena);
  ~CheckEngine();

  CheckEngine(const CheckEngine&) = delete;
  CheckEngine& operator=(const CheckEngine&) = delete;

  /// Applies new options. Changing `jobs` tears down the pool and the warm
  /// sessions (both re-created lazily at the next probe). The memo is kept:
  /// verdicts are facts, so entries stay correct across reconfiguration.
  void configure(const CheckEngineOptions& options);
  const CheckEngineOptions& options() const { return options_; }

  /// Settles a batch of checks ahead of time: folded/oversized/duplicate
  /// queries are filtered, memo hits are collected, and the remaining
  /// probes run concurrently across `jobs` warm sessions. Results are staged
  /// for the following boolVerdict()/constVerdict() calls and settled ones
  /// enter the memo. A new prefetch() discards the previous staging.
  void prefetch(const std::vector<CheckQuery>& queries);

  /// Verdict for a specialized boolean expression. kUnknown covers
  /// not-constant, over-budget (timeout), and over-DAG-limit alike: the
  /// caller keeps the general implementation.
  TriVerdict boolVerdict(expr::ExprRef specialized, const std::string& scope,
                         CheckOutcome* outcome = nullptr);

  /// Constant value of a specialized bit-vector expression, or nullopt when
  /// it is not (provably) constant. Boolean-sorted expressions always return
  /// nullopt, mirroring the specializer's historical constVerdict.
  std::optional<BitVec> constVerdict(expr::ExprRef specialized,
                                     const std::string& scope,
                                     CheckOutcome* outcome = nullptr);

  /// Retires the warm clause groups of `scope` in every session — a
  /// soundness requirement: the scope's formulas are about to be replaced,
  /// and their retired encodings must not satisfy later probes via stale
  /// encoding hits. Only the owning thread calls this, between prefetches,
  /// so no worker is solving on the sessions meanwhile.
  void invalidateScope(const std::string& scope);

  /// Raises the shared-structure watermark for the warm sessions: arena
  /// nodes interned before this point are version-lifetime program structure
  /// and encode into the permanent clause group; newer nodes encode into
  /// the probing scope's retirable group. Call at the start of an update
  /// round with the arena's node count.
  void setIncrementalWatermark(uint32_t nodeId);

 private:
  struct Prefetched {
    smt::ConstantProbe probe;
    bool fromMemo = false;
  };

  /// Core path for an expression that folding could not settle and that is
  /// within the DAG limit: staged prefetch result, then memo, then a
  /// synchronous probe on slot 0's session.
  smt::ConstantProbe settle(expr::ExprRef e, const std::string& scope,
                            CheckOutcome* outcome);
  /// Memo lookup, counted into cache.hits / cache.misses.
  const smt::ConstantProbe* lookup(uint32_t id);
  bool withinDagLimit(expr::ExprRef e) const;
  /// Lazily builds one warm ProbeSession per worker slot.
  void ensureSessions();

  const expr::ExprArena& arena_;
  CheckEngineOptions options_;
  std::unique_ptr<support::ThreadPool> pool_;
  /// Expr id -> settled verdict (never a timeout).
  std::unordered_map<uint32_t, smt::ConstantProbe> memo_;
  /// Expr id -> staged result from the last prefetch().
  std::unordered_map<uint32_t, Prefetched> prefetched_;
  /// Warm incremental sessions, one per worker slot (jobs slots; a single
  /// slot when serial). Slot k is only ever touched by prefetch task k or,
  /// for slot 0, the coordinating thread — sessions are not thread-safe.
  std::vector<std::unique_ptr<smt::ProbeSession>> sessions_;
  uint32_t watermark_ = 0;
};

}  // namespace flay::flay

#endif  // FLAY_FLAY_CHECK_ENGINE_H
