#include "flay/encoder.h"

#include <algorithm>

namespace flay::flay {

using expr::ExprRef;

namespace {
constexpr uint32_t kSelectorWidth = 8;
}

TableShape tableShape(const runtime::TableState& table,
                      size_t overapproxThreshold) {
  TableShape shape;
  shape.empty = table.empty();
  shape.defaultAction = table.defaultActionName();
  shape.actions.push_back(table.defaultActionName());
  if (table.size() > overapproxThreshold) {
    const std::vector<size_t>& counts = table.actionCounts();
    for (size_t slot = 0; slot < counts.size(); ++slot) {
      if (counts[slot] > 0) shape.actions.push_back(table.actionSlotName(slot));
    }
  } else {
    for (const runtime::TableEntry* e : table.normalizedEntries()) {
      shape.actions.push_back(e->actionName);
    }
  }
  std::sort(shape.actions.begin(), shape.actions.end());
  shape.actions.erase(std::unique(shape.actions.begin(), shape.actions.end()),
                      shape.actions.end());
  for (size_t masked : table.maskedCounts()) {
    shape.exactable.push_back(masked == 0);
  }
  return shape;
}

ExprRef ControlPlaneEncoder::entryCondition(
    const TableInfo& info, const runtime::TableEntry& entry) const {
  ExprRef cond = arena_.boolConst(true);
  for (size_t i = 0; i < entry.matches.size(); ++i) {
    const runtime::FieldMatch& m = entry.matches[i];
    ExprRef key = info.keyExprs[i];
    ExprRef fieldCond;
    if (m.isWildcard()) {
      fieldCond = arena_.boolConst(true);
    } else if (m.isExactValued()) {
      fieldCond = arena_.eq(key, arena_.bvConst(m.value));
    } else {
      fieldCond = arena_.eq(arena_.bvAnd(key, arena_.bvConst(m.mask)),
                            arena_.bvConst(m.value.bitAnd(m.mask)));
    }
    cond = arena_.bAnd(cond, fieldCond);
  }
  return cond;
}

std::vector<Binding> ControlPlaneEncoder::encodeTable(
    const TableInfo& info, const runtime::TableState& table,
    const runtime::DeviceConfig& config, bool* overapproximated) const {
  std::vector<Binding> bindings;
  if (overapproximated != nullptr) *overapproximated = false;

  // An empty action profile means no profile-backed entry can execute a
  // real action: the table behaves as if empty (§3, "Savings in other
  // hardware resources").
  bool profileEmpty = false;
  if (!info.decl->actionProfile.empty()) {
    const std::string qualifiedProfile =
        info.control->name + "." + info.decl->actionProfile;
    profileEmpty = config.actionProfile(qualifiedProfile).empty();
  }

  // The default action and its arguments are always precise: they are a
  // single assignment, independent of the entry count.
  uint32_t defaultIdx = info.actionIndex(table.defaultActionName());
  bindings.push_back({info.defaultActionSymbol,
                      arena_.bvConst(BitVec(kSelectorWidth, defaultIdx))});
  {
    const p4::ActionDecl* defaultAction =
        info.control->findAction(table.defaultActionName());
    for (const auto& [name, symbol] : info.defaultParamSymbols) {
      // name is "<action>.<param>".
      ExprRef value;
      if (defaultAction != nullptr &&
          name.rfind(table.defaultActionName() + ".", 0) == 0) {
        const std::string paramName =
            name.substr(table.defaultActionName().size() + 1);
        for (size_t i = 0; i < defaultAction->params.size(); ++i) {
          if (defaultAction->params[i].name == paramName) {
            value = arena_.bvConst(table.defaultActionArgs()[i]);
            break;
          }
        }
      }
      if (!value.valid()) {
        // Not the active default action: the arm is unreachable, pin to 0
        // so the expression stays fully specialized.
        value = arena_.bvConst(BitVec::zero(arena_.width(symbol)));
      }
      bindings.push_back({symbol, value});
    }
  }

  if (table.empty() || profileEmpty) {
    bindings.push_back({info.hitSymbol, arena_.boolConst(false)});
    bindings.push_back(
        {info.actionSymbol,
         arena_.bvConst(BitVec(kSelectorWidth, info.noopIndex()))});
    for (const auto& [name, symbol] : info.paramSymbols) {
      bindings.push_back(
          {symbol, arena_.bvConst(BitVec::zero(arena_.width(symbol)))});
    }
    return bindings;
  }

  // Past the threshold, over-approximate *before* paying for normalization:
  // leave hit/action/entry-params free, reverting the affected annotations
  // to their general (Block A) form. The raw entry count is used (an upper
  // bound on the normalized count) so the fast path costs O(1).
  if (table.size() > options_.overapproxThreshold) {
    if (overapproximated != nullptr) *overapproximated = true;
    bindings.push_back({info.hitSymbol, ExprRef{}});
    bindings.push_back({info.actionSymbol, ExprRef{}});
    for (const auto& [name, symbol] : info.paramSymbols) {
      bindings.push_back({symbol, ExprRef{}});
    }
    return bindings;
  }

  // Normalization (priority sort + eclipse elimination) is part of the
  // precise control-plane representation; its cost is what Table 3 measures.
  // The view is memoized per table version, so tableShape() and migration
  // reuse this one.
  const auto& normalized = table.normalizedEntries();

  // Precise encoding: per-entry conditions in precedence order.
  std::vector<ExprRef> conds;
  conds.reserve(normalized.size());
  for (const runtime::TableEntry* e : normalized) {
    conds.push_back(entryCondition(info, *e));
  }

  ExprRef hit = arena_.boolConst(false);
  for (size_t i = conds.size(); i-- > 0;) hit = arena_.bOr(conds[i], hit);
  bindings.push_back({info.hitSymbol, hit});

  // Winning action selector: first matching entry in precedence order.
  ExprRef action = arena_.bvConst(BitVec(kSelectorWidth, info.noopIndex()));
  for (size_t i = conds.size(); i-- > 0;) {
    action = arena_.ite(
        conds[i],
        arena_.bvConst(
            BitVec(kSelectorWidth, info.actionIndex(normalized[i]->actionName))),
        action);
  }
  bindings.push_back({info.actionSymbol, action});

  // Entry-role action parameters: for each "<action>.<param>" symbol, chain
  // the argument values of entries executing that action.
  for (const auto& [name, symbol] : info.paramSymbols) {
    size_t dot = name.find('.');
    const std::string actionName = name.substr(0, dot);
    const std::string paramName = name.substr(dot + 1);
    const p4::ActionDecl* action = info.control->findAction(actionName);
    size_t paramIdx = 0;
    for (size_t i = 0; i < action->params.size(); ++i) {
      if (action->params[i].name == paramName) paramIdx = i;
    }
    ExprRef value = arena_.bvConst(BitVec::zero(arena_.width(symbol)));
    for (size_t i = conds.size(); i-- > 0;) {
      if (normalized[i]->actionName != actionName) continue;
      value = arena_.ite(
          conds[i], arena_.bvConst(normalized[i]->actionArgs[paramIdx]),
          value);
    }
    bindings.push_back({symbol, value});
  }
  return bindings;
}

std::vector<Binding> ControlPlaneEncoder::encodeValueSet(
    const std::string& qualified,
    const runtime::ValueSetState& valueSet) const {
  std::vector<Binding> bindings;
  for (const auto& use : analysis_.valueSetUses) {
    if (use.qualified != qualified) continue;
    ExprRef cond = arena_.boolConst(false);
    for (const auto& [value, mask] : valueSet.members()) {
      ExprRef memberCond;
      if (mask.isAllOnes()) {
        memberCond = arena_.eq(use.selectExpr, arena_.bvConst(value));
      } else {
        memberCond =
            arena_.eq(arena_.bvAnd(use.selectExpr, arena_.bvConst(mask)),
                      arena_.bvConst(value.bitAnd(mask)));
      }
      cond = arena_.bOr(cond, memberCond);
    }
    bindings.push_back({use.symbol, cond});
  }
  return bindings;
}

}  // namespace flay::flay
