#include "smt/incremental.h"

#include <array>

#include "obs/obs.h"
#include "smt/internal_obs.h"

namespace flay::smt {

using expr::ExprRef;
using internal::PhaseTimer;
using internal::SmtObs;

ProbeSession::ProbeSession(const expr::ExprArena& arena) : arena_(arena) {
  rebuild();
}

void ProbeSession::rebuild() {
  session_ = std::make_unique<sat::SolverSession>();
  blaster_ = std::make_unique<BitBlaster>(arena_, *session_);
  blaster_->enableIncremental(watermark_);
  scopeGroups_.clear();
}

void ProbeSession::setNodeWatermark(uint32_t nodeId) {
  if (nodeId > watermark_) {
    watermark_ = nodeId;
    blaster_->setPermanentWatermark(watermark_);
  }
}

void ProbeSession::maybeRebuild() {
  const sat::Solver& s = session_->solver();
  if (s.numVars() > kProbeSessionMaxVars ||
      s.numClauses() > kProbeSessionMaxClauses) {
    rebuild();
    SmtObs::get().sessionRebuilds.add(1);
  }
}

uint32_t ProbeSession::groupForScope(const std::string& scope) {
  auto it = scopeGroups_.find(scope);
  if (it != scopeGroups_.end()) return it->second;
  uint32_t g = session_->openGroup();
  scopeGroups_.emplace(scope, g);
  SmtObs::get().groupsOpened.add(1);
  return g;
}

void ProbeSession::retireScope(const std::string& scope) {
  auto it = scopeGroups_.find(scope);
  if (it == scopeGroups_.end()) return;
  session_->retireGroup(it->second);
  blaster_->purgeGroup(it->second);
  scopeGroups_.erase(it);
  SmtObs::get().groupsRetired.add(1);
}

bool ProbeSession::tryProbe(ExprRef e, const std::string& scope,
                            uint64_t maxConflicts, ConstantProbe* out) {
  SmtObs& o = SmtObs::get();
  obs::ScopedTimer timer(o.checkUs, "smt.probe_incremental");
  PhaseTimer phases;
  session_->setConflictBudget(maxConflicts);
  uint32_t group = groupForScope(scope);
  blaster_->setCurrentGroup(group);
  // Per-probe eqConst gates (below) are emitted outside any tracked node;
  // routing them into the scope's group retires them with the scope.
  session_->setActiveGroup(group);

  if (arena_.isBool(e)) {
    sat::Lit l;
    {
      auto t = phases.encode();
      l = blaster_->blastBool(e);
      blaster_->collectCone(e);
    }
    sat::Result asTrue, asFalse;
    {
      auto t = phases.solve();
      asTrue = session_->solveRestricted(
          std::array{l}, blaster_->decisionCone(), blaster_->coneMask());
    }
    if (asTrue == sat::Result::kUnknown) return false;
    {
      auto t = phases.solve();
      asFalse = session_->solveRestricted(
          std::array{~l}, blaster_->decisionCone(), blaster_->coneMask());
    }
    if (asFalse == sat::Result::kUnknown) return false;
    bool canBeTrue = asTrue == sat::Result::kSat;
    bool canBeFalse = asFalse == sat::Result::kSat;
    if (canBeTrue && canBeFalse) {
      out->notConstant = true;
    } else {
      out->constant = true;
      out->boolValue = canBeTrue;
    }
    return true;
  }

  {
    auto t = phases.encode();
    blaster_->blastBv(e);
    blaster_->collectCone(e);
  }
  sat::Result modelRun;
  {
    auto t = phases.solve();
    modelRun = session_->solveRestricted({}, blaster_->decisionCone(),
                                         blaster_->coneMask());
  }
  if (modelRun == sat::Result::kUnknown) return false;
  if (modelRun != sat::Result::kSat) {
    // Unreachable in a consistent encoding, but be conservative.
    out->notConstant = true;
    return true;
  }
  BitVec v = blaster_->bvModelValue(e);
  uint32_t varsBeforeEq = session_->numVars();
  sat::Lit same;
  {
    auto t = phases.encode();
    same = blaster_->eqConst(e, v);
    // The eq gates reference only e's bits (already in the cone) plus the
    // fresh gate variables allocated just now.
    blaster_->extendCone(varsBeforeEq);
  }
  sat::Result differs;
  {
    auto t = phases.solve();
    differs = session_->solveRestricted(
        std::array{~same}, blaster_->decisionCone(), blaster_->coneMask());
  }
  if (differs == sat::Result::kUnknown) return false;
  if (differs == sat::Result::kSat) {
    out->notConstant = true;
  } else {
    out->constant = true;
    out->value = std::move(v);
  }
  return true;
}

ConstantProbe ProbeSession::probe(ExprRef e, const std::string& scope,
                                  uint64_t maxConflicts) {
  SmtObs& o = SmtObs::get();
  ConstantProbe result;
  if (arena_.isConst(e)) {
    o.foldedQueries.add(1);
    result.constant = true;
    if (arena_.isBool(e)) {
      result.boolValue = arena_.isTrue(e);
    } else {
      result.value = arena_.constValue(e);
    }
    return result;
  }
  o.constantQueries.add(1);
  o.incrementalProbes.add(1);
  maybeRebuild();
  if (tryProbe(e, scope, maxConflicts, &result)) return result;
  // A warm solve ran out of budget. Fall back to a fresh single-probe solver
  // with the same budget so the timeout behavior (and hence the verdict) is
  // exactly what a fresh probe would produce.
  o.incrementalFallbacks.add(1);
  return probeConstant(arena_, e, maxConflicts);
}

}  // namespace flay::smt
