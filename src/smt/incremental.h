#ifndef FLAY_SMT_INCREMENTAL_H
#define FLAY_SMT_INCREMENTAL_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "expr/arena.h"
#include "sat/session.h"
#include "smt/bitblaster.h"
#include "smt/solver.h"

namespace flay::smt {

/// Rebuild valve: when the warm solver exceeds either cap, the session is
/// torn down and re-warmed from scratch. Retired clauses are disabled but
/// not physically reclaimed, and per-probe eqConst gates accumulate, so the
/// valve is what bounds memory over a long-lived session.
constexpr uint32_t kProbeSessionMaxVars = 1u << 17;
constexpr uint64_t kProbeSessionMaxClauses = 1u << 18;

/// Warm incremental constantness prober: the session-lifetime counterpart of
/// smt::probeConstant. One instance owns one sat::SolverSession plus one
/// incremental BitBlaster and answers many probes across updates to the same
/// program version, reusing the Tseitin encoding (delta CNF: unchanged
/// subexpressions are memo hits costing zero clauses) and the solver's
/// learned clauses.
///
/// Scopes and clause groups: each probe names the program component (scope)
/// it belongs to. Encoding emitted for nodes interned during the current
/// update round lands in that scope's activation-literal clause group;
/// nodes older than the watermark (see setNodeWatermark) are shared program
/// structure and encode into the permanent group. retireScope() disables a
/// scope's group and purges every encoding-memo entry that depended on it —
/// required for soundness, because a retired group's gate variables become
/// unconstrained and a stale encoding hit would manufacture spurious
/// "not constant" answers.
///
/// Determinism: verdicts are facts about expressions, so warm and fresh
/// probes can only diverge through kUnknown (conflict-budget exhaustion).
/// Whenever any warm solve returns kUnknown the session falls back to a
/// fresh smt::probeConstant with the same budget, making its timeout
/// behavior identical to a fresh probe's.
///
/// The session keeps no verdict memo of its own: the check engine in front
/// of it memoizes settled verdicts by expression id, so a session is only
/// asked about expressions that have not been settled yet.
///
/// Not thread-safe: the check engine keeps one session per worker slot.
class ProbeSession {
 public:
  explicit ProbeSession(const expr::ExprArena& arena);

  ProbeSession(const ProbeSession&) = delete;
  ProbeSession& operator=(const ProbeSession&) = delete;

  /// Probes whether `e` is constant. `scope` tags newly emitted clause
  /// groups; `maxConflicts` bounds every underlying SAT call (0 =
  /// unlimited), exactly like probeConstant.
  ConstantProbe probe(expr::ExprRef e, const std::string& scope,
                      uint64_t maxConflicts);

  /// Retires the clause group(s) opened for `scope` and purges dependent
  /// encoding. No-op for scopes this session never encoded for.
  void retireScope(const std::string& scope);

  /// Raises the shared-structure watermark: arena nodes with id below it
  /// encode into the permanent group from now on. Typically the arena node
  /// count at the start of an update round. Never lowers.
  void setNodeWatermark(uint32_t nodeId);

 private:
  /// Drops all warm state (solver, encoding, scope groups); the encoding
  /// re-warms lazily on the next probe.
  void rebuild();
  uint32_t groupForScope(const std::string& scope);
  void maybeRebuild();
  /// Runs the warm two-sided constantness check; returns false when any
  /// solve exhausted its budget (caller falls back to a fresh probe).
  bool tryProbe(expr::ExprRef e, const std::string& scope,
                uint64_t maxConflicts, ConstantProbe* out);

  const expr::ExprArena& arena_;
  std::unique_ptr<sat::SolverSession> session_;
  std::unique_ptr<BitBlaster> blaster_;
  std::unordered_map<std::string, uint32_t> scopeGroups_;
  uint32_t watermark_ = 0;
};

}  // namespace flay::smt

#endif  // FLAY_SMT_INCREMENTAL_H
