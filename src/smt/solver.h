#ifndef FLAY_SMT_SOLVER_H
#define FLAY_SMT_SOLVER_H

#include <memory>

#include "expr/arena.h"
#include "sat/solver.h"
#include "smt/bitblaster.h"

namespace flay::smt {

/// kUnknown surfaces a SAT-level conflict-budget exhaustion (fail-safe solver
/// deadline). Callers must treat it conservatively: a specialization decision
/// gated on an unknown query must take the general (recompile) path, never
/// the constant-fold fast path.
enum class CheckResult { kSat, kUnsat, kUnknown };

/// QF_BV satisfiability facade: assert boolean expressions, check, read back
/// a model. One instance owns one SAT solver; assertions accumulate.
/// This is the drop-in replacement for the Z3 queries Flay issues.
class SmtSolver {
 public:
  explicit SmtSolver(const expr::ExprArena& arena);
  ~SmtSolver();

  SmtSolver(const SmtSolver&) = delete;
  SmtSolver& operator=(const SmtSolver&) = delete;

  void assertExpr(expr::ExprRef boolExpr);
  CheckResult check();

  /// Fail-safe deadline forwarded to the underlying SAT solver: each check()
  /// may spend at most this many conflicts (0 = unlimited) before returning
  /// CheckResult::kUnknown.
  void setConflictBudget(uint64_t maxConflictsPerCheck);

  /// Model value of a bit-vector variable after a kSat check. Variables that
  /// never appeared in an assertion get value zero.
  BitVec modelValue(expr::ExprRef var);

  uint64_t numConflicts() const;

 private:
  const expr::ExprArena& arena_;
  std::unique_ptr<sat::Solver> sat_;
  std::unique_ptr<BitBlaster> blaster_;
};

/// Unbudgeted encoding oracles for tests and microbenchmarks: each builds
/// one solver for the question and runs it to completion.
///
/// True iff `boolExpr` is satisfiable (some packet/config makes it true).
bool isSatisfiable(const expr::ExprArena& arena, expr::ExprRef boolExpr);

/// True iff `boolExpr` holds for every assignment.
bool isValid(const expr::ExprArena& arena, expr::ExprRef boolExpr);

/// True iff `a` and `b` agree on every assignment. Because the arena
/// hash-conses, `a == b` is checked first and the solver only runs on
/// structurally different expressions.
bool areEquivalent(expr::ExprArena& arena, expr::ExprRef a, expr::ExprRef b);

/// Outcome of probeConstant(). At most one of `constant`/`notConstant`/
/// `timedOut` interesting states holds: constant carries the proven value
/// (boolValue for boolean sorts, value otherwise); notConstant means two
/// differing models were exhibited; timedOut means the conflict budget
/// expired with the question unsettled (callers treat it like notConstant,
/// conservatively, but must not cache it).
struct ConstantProbe {
  bool constant = false;
  bool notConstant = false;
  bool timedOut = false;
  bool boolValue = false;
  BitVec value;
};

/// Flay's "can we replace this program variable with a constant?" query:
/// proves or refutes the constantness of `e` without interning any node.
/// The candidate-equality check is asserted at the SAT level
/// (BitBlaster::eqConst) instead of via arena.eq, so many probes may run
/// concurrently over one immutable arena. Each probe builds its own solver;
/// `maxConflicts` (0 = unlimited) bounds every underlying SAT call
/// separately. smt::ProbeSession is the warm counterpart the check engine
/// probes through, and it falls back to this function whenever a warm solve
/// exhausts its budget.
ConstantProbe probeConstant(const expr::ExprArena& arena, expr::ExprRef e,
                            uint64_t maxConflicts);

}  // namespace flay::smt

#endif  // FLAY_SMT_SOLVER_H
