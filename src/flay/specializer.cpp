#include "flay/specializer.h"

#include <algorithm>
#include <unordered_map>

#include "expr/analysis.h"
#include "obs/obs.h"

namespace flay::flay {

using expr::ExprRef;
using p4::Expr;
using p4::ExprOp;
using p4::Stmt;
using p4::StmtOp;

namespace {

/// Synthesizes a checked literal expression.
p4::ExprPtr makeLiteral(const BitVec& value) {
  auto e = std::make_unique<Expr>();
  e->op = ExprOp::kIntLit;
  e->literalText = value.toHexString();
  e->literalWidth = value.width();
  e->width = value.width();
  e->value = value;
  return e;
}

p4::ExprPtr makeBoolLiteral(bool value) {
  auto e = std::make_unique<Expr>();
  e->op = ExprOp::kBoolLit;
  e->boolValue = value;
  e->isBool = true;
  return e;
}

/// Replaces action-parameter references with literal argument values,
/// in place.
void substituteParams(p4::ExprPtr& e,
                      const std::unordered_map<std::string, BitVec>& args) {
  if (e == nullptr) return;
  if (e->op == ExprOp::kPath && e->pathKind == p4::PathKind::kActionParam) {
    auto it = args.find(e->canonical);
    if (it != args.end()) {
      e = makeLiteral(it->second);
      return;
    }
  }
  substituteParams(e->a, args);
  substituteParams(e->b, args);
  substituteParams(e->c, args);
}

void substituteParamsInStmts(
    std::vector<p4::StmtPtr>& stmts,
    const std::unordered_map<std::string, BitVec>& args) {
  for (auto& s : stmts) {
    substituteParams(s->lhs, args);
    substituteParams(s->rhs, args);
    substituteParams(s->index, args);
    substituteParams(s->cond, args);
    for (auto& a : s->args) substituteParams(a, args);
    substituteParamsInStmts(s->thenBody, args);
    substituteParamsInStmts(s->elseBody, args);
  }
}

}  // namespace

class Specializer::Impl {
 public:
  Impl(FlayService& service, const SpecializerOptions& options)
      : service_(service), engine_(service.checkEngine()) {
    engine_.configure(options);
  }

  SpecializationResult specialize() {
    const p4::Program& orig = service_.checkedProgram().program;
    SpecializationResult result;
    result.program = p4::cloneProgram(orig);

    for (const auto& p : service_.analysis().annotations.points()) {
      if (p.astNode != nullptr) pointByNode_[p.astNode] = p.id;
    }
    prefetchChecks();

    for (size_t c = 0; c < orig.controls.size(); ++c) {
      currentControl_ = &orig.controls[c];
      currentClone_ = &result.program.controls[c];
      currentClone_->applyBody = rewriteStmts(
          orig.controls[c].applyBody, result.program.controls[c].applyBody);
      rewriteTables(*currentClone_);
    }
    for (size_t p = 0; p < orig.parsers.size(); ++p) {
      rewriteParser(orig.parsers[p], result.program.parsers[p]);
    }
    computePrunableHeaders();

    result.stats = stats_;
    return result;
  }

 private:
  using Tri = TriVerdict;

  /// Queues every semantics check the rewrite pass will ask — the
  /// specialized conditions of if/assign/table-hit/select-case points — so
  /// the engine can run the underlying probes concurrently and the rewrite
  /// pass is served from staged results. The filters mirror the ask sites
  /// exactly: only points the rewriter can act on are worth probing.
  void prefetchChecks() {
    std::vector<CheckQuery> queries;
    for (const auto& p : service_.analysis().annotations.points()) {
      switch (p.kind) {
        case PointKind::kIfCondition:
        case PointKind::kSelectCase:
          if (p.astNode == nullptr) continue;  // not reachable via rewrite
          break;
        case PointKind::kAssignedValue: {
          if (p.astNode == nullptr) continue;
          const Stmt* s = static_cast<const Stmt*>(p.astNode);
          if (s->lhs != nullptr && s->lhs->op == ExprOp::kSlice) continue;
          break;
        }
        case PointKind::kTableHit:
          break;  // every apply statement asks its table's hit point
        default:
          continue;  // action index / accept / final: arena-only checks
      }
      queries.push_back({p.specialized, p.component});
    }
    engine_.prefetch(queries);
  }

  const std::string& scopeOf(uint32_t pointId) const {
    return service_.analysis().annotations.point(pointId).component;
  }

  Tri boolVerdict(ExprRef specialized, const std::string& scope) {
    CheckOutcome outcome;
    Tri v = engine_.boolVerdict(specialized, scope, &outcome);
    noteOutcome(outcome);
    return v;
  }

  std::optional<BitVec> constVerdict(ExprRef specialized,
                                     const std::string& scope) {
    CheckOutcome outcome;
    auto v = engine_.constVerdict(specialized, scope, &outcome);
    noteOutcome(outcome);
    return v;
  }

  /// Folds a check's outcome into the run's stats, preserving what the
  /// pre-engine specializer counted: solverQueries for every check that went
  /// past folding (even when the memo answered), solverTimeouts for expired
  /// conflict budgets (the degradation-aware path the controller tracks).
  void noteOutcome(const CheckOutcome& outcome) {
    if (outcome.solverQueried) ++stats_.solverQueries;
    if (outcome.timedOut) {
      ++stats_.solverTimeouts;
      obs::Registry::global().counter("controller.solver_timeouts").add(1);
    }
  }

  /// Rewrites a statement list; orig and clone run in lockstep.
  std::vector<p4::StmtPtr> rewriteStmts(const std::vector<p4::StmtPtr>& orig,
                                        std::vector<p4::StmtPtr>& clone) {
    std::vector<p4::StmtPtr> out;
    for (size_t i = 0; i < orig.size(); ++i) {
      rewriteStmt(*orig[i], std::move(clone[i]), out);
    }
    return out;
  }

  void rewriteStmt(const Stmt& orig, p4::StmtPtr clone,
                   std::vector<p4::StmtPtr>& out) {
    switch (orig.op) {
      case StmtOp::kIf: {
        auto it = pointByNode_.find(&orig);
        Tri verdict = it == pointByNode_.end()
                          ? Tri::kUnknown
                          : boolVerdict(service_.specialized(it->second),
                                        scopeOf(it->second));
        if (verdict == Tri::kTrue) {
          ++stats_.eliminatedBranches;
          auto rewritten = rewriteStmts(orig.thenBody, clone->thenBody);
          for (auto& s : rewritten) out.push_back(std::move(s));
          return;
        }
        if (verdict == Tri::kFalse) {
          ++stats_.eliminatedBranches;
          auto rewritten = rewriteStmts(orig.elseBody, clone->elseBody);
          for (auto& s : rewritten) out.push_back(std::move(s));
          return;
        }
        clone->thenBody = rewriteStmts(orig.thenBody, clone->thenBody);
        clone->elseBody = rewriteStmts(orig.elseBody, clone->elseBody);
        out.push_back(std::move(clone));
        return;
      }
      case StmtOp::kAssign: {
        auto it = pointByNode_.find(&orig);
        if (it != pointByNode_.end() && orig.lhs->op != ExprOp::kSlice) {
          ExprRef specialized = service_.specialized(it->second);
          expr::ExprArena& arena = service_.arena();
          if (arena.isBool(specialized)) {
            Tri v = boolVerdict(specialized, scopeOf(it->second));
            if (v != Tri::kUnknown && orig.rhs->op != ExprOp::kBoolLit) {
              ++stats_.propagatedConstants;
              clone->rhs = makeBoolLiteral(v == Tri::kTrue);
            }
          } else {
            auto v = constVerdict(specialized, scopeOf(it->second));
            if (v.has_value() && orig.rhs->op != ExprOp::kIntLit) {
              ++stats_.propagatedConstants;
              clone->rhs = makeLiteral(*v);
            }
          }
        }
        out.push_back(std::move(clone));
        return;
      }
      case StmtOp::kApply: {
        rewriteApply(orig, std::move(clone), out);
        return;
      }
      default:
        out.push_back(std::move(clone));
        return;
    }
  }

  void rewriteApply(const Stmt& orig, p4::StmtPtr clone,
                    std::vector<p4::StmtPtr>& out) {
    std::string qualified = currentControl_->name + "." + orig.target;
    const TableInfo& info = service_.analysis().table(qualified);
    const runtime::TableState& table = service_.config().table(qualified);
    expr::ExprArena& arena = service_.arena();

    Tri hit = boolVerdict(service_.specialized(info.hitPoint),
                          scopeOf(info.hitPoint));
    if (hit == Tri::kFalse) {
      // The table can never hit: inline the default action (§3, Fig. 3 A).
      ++stats_.removedTables;
      removedTables_.insert(qualified);
      inlineAction(table.defaultActionName(), table.defaultActionArgs(), out);
      return;
    }
    if (hit == Tri::kTrue) {
      ExprRef actionSpec = service_.specialized(info.actionPoint);
      if (arena.isConst(actionSpec)) {
        uint32_t idx =
            static_cast<uint32_t>(arena.constValue(actionSpec).toUint64());
        // All matching entries execute the same action. Inline it if its
        // arguments also specialize to constants (Fig. 3 B).
        if (idx == info.noopIndex()) {
          ++stats_.inlinedTables;
          removedTables_.insert(qualified);
          return;  // noop: the apply disappears entirely
        }
        const std::string& actionName = info.decl->actionNames[idx];
        std::vector<BitVec> args;
        if (constantActionArgs(info, actionName, args)) {
          ++stats_.inlinedTables;
          removedTables_.insert(qualified);
          inlineAction(actionName, args, out);
          return;
        }
      }
    }
    out.push_back(std::move(clone));
  }

  /// True if every parameter of `actionName` specializes to a constant;
  /// fills `args` with the values.
  bool constantActionArgs(const TableInfo& info, const std::string& actionName,
                          std::vector<BitVec>& args) {
    const p4::ActionDecl* action = info.control->findAction(actionName);
    if (action == nullptr) return true;  // parameterless builtin
    expr::ExprArena& arena = service_.arena();
    // The current binding of each parameter placeholder is the encoder's
    // ITE chain over entry conditions; with a single always-matching entry
    // (Fig. 3 B) it folds to a constant at construction time.
    for (const auto& p : action->params) {
      auto it = info.paramSymbols.find(actionName + "." + p.name);
      if (it == info.paramSymbols.end()) return false;
      ExprRef specialized = service_.resolveSymbol(it->second);
      if (!arena.isConst(specialized)) return false;
      args.push_back(arena.constValue(specialized));
    }
    return true;
  }

  /// Splices a specialized copy of an action body with literal arguments.
  void inlineAction(const std::string& actionName,
                    const std::vector<BitVec>& args,
                    std::vector<p4::StmtPtr>& out) {
    if (actionName == "noop" || actionName == "NoAction") return;
    const p4::ActionDecl* action = currentControl_->findAction(actionName);
    if (action == nullptr) return;
    std::unordered_map<std::string, BitVec> argMap;
    for (size_t i = 0; i < action->params.size(); ++i) {
      argMap.emplace(action->params[i].name, args[i]);
    }
    auto body = p4::cloneStmts(action->body);
    substituteParamsInStmts(body, argMap);
    for (auto& s : body) out.push_back(std::move(s));
  }

  /// Table-declaration level specializations: drop removed tables, remove
  /// unreachable actions, tighten match kinds.
  void rewriteTables(p4::ControlDecl& control) {
    std::vector<p4::TableDecl> kept;
    for (auto& table : control.tables) {
      std::string qualified = control.name + "." + table.name;
      if (removedTables_.count(qualified) != 0) continue;
      const runtime::TableState& state = service_.config().table(qualified);

      // Unused-action removal (Fig. 3 C/D: the unused drop action is
      // removed from the table, freeing computation units). The shape is
      // the one the table digest renders, so an action pruned here comes
      // back only through a digest change, i.e. a recompile.
      TableShape shape = service_.tableShape(qualified);
      std::vector<std::string> keptActions;
      for (const auto& name : table.actionNames) {
        if (std::binary_search(shape.actions.begin(), shape.actions.end(),
                               name)) {
          keptActions.push_back(name);
        } else {
          ++stats_.removedActions;
        }
      }
      table.actionNames = std::move(keptActions);

      // The declared default action must track the *runtime* default: a
      // set-default update may have re-pointed it, and the pruning above
      // keeps only runtime-reachable actions, so a stale declared default
      // would not re-check. (Found by the differential oracle: middleblock
      // seed 5 re-points ipv4_route's default off drop_pkt, drop_pkt gets
      // pruned, and the specialized program failed to type-check.)
      table.defaultAction.name = state.defaultActionName();
      table.defaultAction.args.clear();
      for (const BitVec& arg : state.defaultActionArgs()) {
        table.defaultAction.args.push_back(makeLiteral(arg));
      }

      // Match-kind tightening (Fig. 3 B: a ternary key whose entries all
      // carry full masks is effectively exact; frees TCAM).
      if (!shape.empty) {
        for (size_t k = 0; k < table.keys.size(); ++k) {
          if (table.keys[k].matchKind == p4::MatchKind::kExact) continue;
          if (shape.exactable[k]) {
            table.keys[k].matchKind = p4::MatchKind::kExact;
            ++stats_.convertedKeys;
          }
        }
      }
      kept.push_back(std::move(table));
    }
    control.tables = std::move(kept);
  }

  void rewriteParser(const p4::ParserDecl& orig, p4::ParserDecl& clone) {
    for (size_t s = 0; s < orig.states.size(); ++s) {
      const p4::ParserStateDecl& origState = orig.states[s];
      p4::ParserStateDecl& cloneState = clone.states[s];
      if (origState.body.empty()) continue;
      const Stmt& last = *origState.body.back();
      if (last.op != StmtOp::kTransition ||
          last.transition.selectExpr == nullptr) {
        continue;
      }
      Stmt& cloneLast = *cloneState.body.back();
      std::vector<p4::SelectCase> keptCases;
      for (size_t i = 0; i < last.transition.cases.size(); ++i) {
        const p4::SelectCase& c = last.transition.cases[i];
        auto it = pointByNode_.find(&c);
        if (it != pointByNode_.end()) {
          Tri v = boolVerdict(service_.specialized(it->second),
                              scopeOf(it->second));
          if (v == Tri::kFalse) {
            ++stats_.removedSelectCases;
            continue;  // unreachable case (e.g. empty value set)
          }
        }
        keptCases.push_back(std::move(cloneLast.transition.cases[i]));
      }
      cloneLast.transition.cases = std::move(keptCases);
    }
  }

  /// Headers no control reads: parser-tail pruning candidates (§3).
  void computePrunableHeaders() {
    expr::ExprArena& arena = service_.arena();
    std::set<uint32_t> usedSymbols;
    for (const auto& p : service_.analysis().annotations.points()) {
      if (p.kind == PointKind::kFinalValue ||
          p.kind == PointKind::kSelectCase ||
          p.kind == PointKind::kParserAccept) {
        continue;  // parser/pipeline bookkeeping, not control reads
      }
      for (uint32_t s : expr::collectSymbols(arena, p.expr,
                                             expr::SymbolClass::kDataPlane)) {
        usedSymbols.insert(s);
      }
    }
    // Table keys and value-set selects are reads too — they live in the
    // analysis structures rather than in annotations.
    for (const auto& t : service_.analysis().tables) {
      for (expr::ExprRef k : t.keyExprs) {
        for (uint32_t s : expr::collectSymbols(
                 arena, k, expr::SymbolClass::kDataPlane)) {
          usedSymbols.insert(s);
        }
      }
    }
    for (const auto& use : service_.analysis().valueSetUses) {
      for (uint32_t s : expr::collectSymbols(
               arena, use.selectExpr, expr::SymbolClass::kDataPlane)) {
        usedSymbols.insert(s);
      }
    }
    // Egress decision also counts as a read.
    auto final = service_.analysis().finalState.find("sm.egress_spec");
    if (final != service_.analysis().finalState.end()) {
      for (uint32_t s : expr::collectSymbols(
               arena, final->second, expr::SymbolClass::kDataPlane)) {
        usedSymbols.insert(s);
      }
    }
    for (const auto& h : service_.checkedProgram().env.headers()) {
      bool used = false;
      for (const auto& f : h.fieldCanonicals) {
        // Data-plane symbols are named by canonical field name.
        for (uint32_t s : usedSymbols) {
          if (arena.symbolInfo(s).name == f) used = true;
        }
      }
      if (!used) stats_.prunableHeaders.push_back(h.canonical);
    }
    // Dead headers: validity constant-false at pipeline end under the
    // current config (the final-value annotations carry the specialized
    // validity expressions).
    for (const auto& p : service_.analysis().annotations.points()) {
      if (p.kind != PointKind::kFinalValue) continue;
      constexpr const char* kPrefix = "final:";
      if (p.label.rfind(kPrefix, 0) != 0) continue;
      std::string loc = p.label.substr(6);
      if (loc.size() < 7 || loc.substr(loc.size() - 7) != ".$valid") continue;
      if (arena.isFalse(p.specialized)) {
        stats_.deadHeaders.push_back(loc.substr(0, loc.size() - 7));
      }
    }
  }

  FlayService& service_;
  CheckEngine& engine_;
  SpecializationStats stats_;
  std::unordered_map<const void*, uint32_t> pointByNode_;
  std::set<std::string> removedTables_;
  const p4::ControlDecl* currentControl_ = nullptr;
  p4::ControlDecl* currentClone_ = nullptr;
};

Specializer::Specializer(FlayService& service, SpecializerOptions options)
    : service_(service), options_(options) {}

SpecializationResult Specializer::specialize() {
  return Impl(service_, options_).specialize();
}

p4::CheckedProgram recheck(p4::Program program) {
  DiagnosticEngine diag;
  p4::CheckedProgram checked;
  checked.program = std::move(program);
  checked.env = p4::typeCheck(checked.program, diag);
  diag.throwIfErrors();
  return checked;
}

namespace {

/// True if `table`'s entries are valid under `decl` exactly as they are:
/// the same keys (count, match kinds, widths), no entry masked on an exact
/// key (migration drops those), and the same action list in the same order
/// (entries' action slots index it).
bool sameSchema(const runtime::TableState& table, const p4::TableDecl& decl) {
  const p4::TableDecl& old = table.decl();
  if (old.actionNames != decl.actionNames) return false;
  if (old.keys.size() != decl.keys.size()) return false;
  for (size_t k = 0; k < decl.keys.size(); ++k) {
    if (old.keys[k].matchKind != decl.keys[k].matchKind ||
        old.keys[k].expr->width != decl.keys[k].expr->width) {
      return false;
    }
    if (decl.keys[k].matchKind == p4::MatchKind::kExact &&
        table.maskedCounts()[k] != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

runtime::DeviceConfig migrateConfig(const p4::CheckedProgram& specialized,
                                    const runtime::DeviceConfig& original,
                                    const MigrationTestHooks* hooks) {
  runtime::DeviceConfig config(specialized);
  for (const auto& [name, newTable] : config.tables()) {
    if (!original.hasTable(name)) continue;
    const runtime::TableState& oldTable = original.table(name);
    runtime::TableState& target = config.table(name);
    // Carry the default action over only if it survived specialization.
    const auto& decl = target.decl();
    bool defaultOk = oldTable.defaultActionName() == "noop" ||
                     oldTable.defaultActionName() == "NoAction";
    for (const auto& a : decl.actionNames) {
      defaultOk |= a == oldTable.defaultActionName();
    }
    const auto& normalized = oldTable.normalizedEntries();
    // An unchanged schema with nothing eclipsed: the rebuild below would
    // copy every entry unchanged, in the same precedence order, so share
    // the original's contents instead. The entries keep their original ids
    // where a rebuild renumbers them 1..n in precedence order; ties break
    // by id either way, so lookups pick the same winners.
    if (defaultOk && normalized.size() == oldTable.size() &&
        sameSchema(oldTable, decl)) {
      target = oldTable.reseated(target.control(), decl);
      continue;
    }
    if (defaultOk) {
      target.setDefaultAction(oldTable.defaultActionName(),
                              oldTable.defaultActionArgs());
    }
    for (const runtime::TableEntry* e : normalized) {
      runtime::TableEntry migrated;
      migrated.actionName = e->actionName;
      migrated.actionArgs = e->actionArgs;
      bool stillTernary = false;
      for (size_t k = 0; k < decl.keys.size(); ++k) {
        stillTernary |= decl.keys[k].matchKind == p4::MatchKind::kTernary;
      }
      migrated.priority = stillTernary ? e->priority : 0;
      bool skip = false;
      for (size_t k = 0; k < decl.keys.size(); ++k) {
        const runtime::FieldMatch& m = e->matches[k];
        switch (decl.keys[k].matchKind) {
          case p4::MatchKind::kExact:
            if (!m.isExactValued()) skip = true;  // cannot represent
            migrated.matches.push_back(
                runtime::FieldMatch::exact(m.value));
            break;
          case p4::MatchKind::kTernary:
            migrated.matches.push_back(
                runtime::FieldMatch::ternary(m.value, m.mask));
            break;
          case p4::MatchKind::kLpm:
            migrated.matches.push_back(
                runtime::FieldMatch::lpm(m.value, m.prefixLen));
            break;
        }
      }
      // Skip entries of actions the specializer removed from the table:
      // they are unreachable under the current config by construction.
      bool actionOk = migrated.actionName == "noop" ||
                      migrated.actionName == "NoAction";
      for (const auto& a : decl.actionNames) {
        actionOk |= a == migrated.actionName;
      }
      if (!skip && actionOk) target.insert(std::move(migrated));
    }
  }
  for (const auto& [name, vs] : original.valueSets()) {
    if (!config.hasValueSet(name)) continue;
    for (const auto& [value, mask] : vs.members()) {
      config.valueSet(name).insert(value, mask);
    }
  }
  if (hooks != nullptr && hooks->dropOneEntry) {
    for (const auto& [name, table] : config.tables()) {
      if (table.empty()) continue;
      // The last entry migrated: a rebuild inserts in precedence order, so
      // it is the last one inserted; a shared table kept every entry, so it
      // is the last of the normalized view.
      bool shared = &table.entries() == &original.table(name).entries();
      config.table(name).remove(shared ? table.normalizedEntries().back()->id
                                       : table.entries().back().id);
      break;
    }
  }
  return config;
}

}  // namespace flay::flay
