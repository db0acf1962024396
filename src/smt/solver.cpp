#include "smt/solver.h"

#include <array>

#include "obs/obs.h"
#include "smt/internal_obs.h"

namespace flay::smt {

using expr::ExprRef;
using internal::PhaseTimer;
using internal::SmtObs;

SmtSolver::SmtSolver(const expr::ExprArena& arena)
    : arena_(arena),
      sat_(std::make_unique<sat::Solver>()),
      blaster_(std::make_unique<BitBlaster>(arena, *sat_)) {}

SmtSolver::~SmtSolver() = default;

void SmtSolver::assertExpr(ExprRef boolExpr) {
  sat::Lit l = blaster_->blastBool(boolExpr);
  sat_->addUnit(l);
}

CheckResult SmtSolver::check() {
  SmtObs& o = SmtObs::get();
  obs::ScopedTimer t(o.checkUs, "smt.check");
  o.checks.add(1);
  switch (sat_->solve()) {
    case sat::Result::kSat:
      o.satResults.add(1);
      return CheckResult::kSat;
    case sat::Result::kUnsat:
      o.unsatResults.add(1);
      return CheckResult::kUnsat;
    case sat::Result::kUnknown:
      break;
  }
  o.unknownResults.add(1);
  return CheckResult::kUnknown;
}

void SmtSolver::setConflictBudget(uint64_t maxConflictsPerCheck) {
  sat_->setConflictBudget(maxConflictsPerCheck);
}

BitVec SmtSolver::modelValue(ExprRef var) {
  // Blasting a variable outside any assertion just allocates fresh bits; the
  // model then reports whatever the solver assigned (default zero-ish).
  blaster_->blastBv(var);
  return blaster_->bvModelValue(var);
}

uint64_t SmtSolver::numConflicts() const { return sat_->numConflicts(); }

bool isSatisfiable(const expr::ExprArena& arena, ExprRef boolExpr) {
  // The arena folds constants eagerly, so test the trivial cases first.
  if (arena.isTrue(boolExpr)) return true;
  if (arena.isFalse(boolExpr)) return false;
  SmtSolver solver(arena);
  solver.assertExpr(boolExpr);
  return solver.check() == CheckResult::kSat;
}

bool isValid(const expr::ExprArena& arena, ExprRef boolExpr) {
  SmtObs& o = SmtObs::get();
  if (arena.isTrue(boolExpr) || arena.isFalse(boolExpr)) {
    o.foldedQueries.add(1);
    return arena.isTrue(boolExpr);
  }
  o.validQueries.add(1);
  obs::ScopedTimer t(o.checkUs, "smt.valid");
  // valid(e) <=> unsat(!e). Asserting the blasted literal negated encodes !e
  // without needing a mutable arena.
  sat::Solver sat;
  BitBlaster blaster(arena, sat);
  sat.addUnit(~blaster.blastBool(boolExpr));
  return sat.solve() == sat::Result::kUnsat;
}

bool areEquivalent(expr::ExprArena& arena, ExprRef a, ExprRef b) {
  if (a == b) return true;  // hash-consing: structural equality is identity
  if (arena.width(a) != arena.width(b)) return false;
  ExprRef same = arena.eq(a, b);
  return isValid(arena, same);
}

ConstantProbe probeConstant(const expr::ExprArena& arena, ExprRef e,
                            uint64_t maxConflicts) {
  SmtObs& o = SmtObs::get();
  ConstantProbe probe;
  if (arena.isConst(e)) {
    o.foldedQueries.add(1);
    probe.constant = true;
    if (arena.isBool(e)) {
      probe.boolValue = arena.isTrue(e);
    } else {
      probe.value = arena.constValue(e);
    }
    return probe;
  }
  o.constantQueries.add(1);
  obs::ScopedTimer timer(o.checkUs, "smt.probe_constant");
  PhaseTimer phases;
  sat::Solver sat;
  sat.setConflictBudget(maxConflicts);
  BitBlaster blaster(arena, sat);
  auto expired = [&probe, &o] {
    probe.timedOut = true;
    o.unknownResults.add(1);
    return probe;
  };
  if (arena.isBool(e)) {
    sat::Lit l;
    {
      auto t = phases.encode();
      l = blaster.blastBool(e);
    }
    sat::Result asTrue, asFalse;
    {
      auto t = phases.solve();
      asTrue = sat.solve(std::array{l});
    }
    if (asTrue == sat::Result::kUnknown) return expired();
    {
      auto t = phases.solve();
      asFalse = sat.solve(std::array{~l});
    }
    if (asFalse == sat::Result::kUnknown) return expired();
    bool canBeTrue = asTrue == sat::Result::kSat;
    bool canBeFalse = asFalse == sat::Result::kSat;
    if (canBeTrue && canBeFalse) {
      probe.notConstant = true;
    } else {
      probe.constant = true;
      probe.boolValue = canBeTrue;
    }
    return probe;
  }
  // Encode e before the model run: the solve must range over its bits for
  // bvModelValue to read a candidate out of the model.
  {
    auto t = phases.encode();
    blaster.blastBv(e);
  }
  sat::Result modelRun;
  {
    auto t = phases.solve();
    modelRun = sat.solve();
  }
  if (modelRun == sat::Result::kUnknown) return expired();
  if (modelRun != sat::Result::kSat) {
    // Unreachable in a consistent encoding, but be conservative.
    probe.notConstant = true;
    return probe;
  }
  BitVec v = blaster.bvModelValue(e);
  // e is constant iff no model disagrees with v. Reusing the solver keeps
  // the Tseitin encoding (and its learned clauses) for the second call.
  sat::Lit same;
  {
    auto t = phases.encode();
    same = blaster.eqConst(e, v);
  }
  sat::Result differs;
  {
    auto t = phases.solve();
    differs = sat.solve(std::array{~same});
  }
  if (differs == sat::Result::kUnknown) return expired();
  if (differs == sat::Result::kSat) {
    probe.notConstant = true;
  } else {
    probe.constant = true;
    probe.value = std::move(v);
  }
  return probe;
}

}  // namespace flay::smt
