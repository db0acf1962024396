#include "expr/substitute.h"

#include <cassert>
#include <stdexcept>
#include <vector>

#include "expr/traverse.h"

namespace flay::expr {

void Substitution::bind(ExprRef var, ExprRef value) {
  const ExprNode& n = arena_.node(var);
  if (n.kind != ExprKind::kVar && n.kind != ExprKind::kBoolVar) {
    throw std::invalid_argument("Substitution::bind target must be a variable");
  }
  if (arena_.width(var) != arena_.width(value)) {
    throw std::invalid_argument("Substitution::bind sort mismatch");
  }
  bindings_[var.id] = value;
  memo_.clear();
}

void Substitution::bindConst(std::string_view name, const BitVec& value,
                             SymbolClass cls) {
  bind(arena_.var(name, value.width(), cls), arena_.bvConst(value));
}

void Substitution::bindConst(std::string_view name, bool value,
                             SymbolClass cls) {
  bind(arena_.boolVar(name, cls), arena_.boolConst(value));
}

ExprRef Substitution::apply(ExprRef root) {
  if (!root.valid()) return root;
  // Iterative post-order rewrite; recursion depth is unbounded for large
  // control-plane entry chains, so no native recursion here.
  std::vector<uint32_t> stack{root.id};
  while (!stack.empty()) {
    uint32_t id = stack.back();
    if (memo_.count(id) != 0) {
      stack.pop_back();
      continue;
    }
    // By value: rebuild() interns through the arena, which may reallocate
    // the node vector while this binding is still live.
    const ExprNode n = arena_.node(ExprRef{id});
    if (n.kind == ExprKind::kVar || n.kind == ExprKind::kBoolVar) {
      auto it = bindings_.find(id);
      memo_.emplace(id, it != bindings_.end() ? it->second : ExprRef{id});
      stack.pop_back();
      continue;
    }
    uint32_t kids[3];
    int numKids = children(n, kids);
    if (numKids == 0) {
      memo_.emplace(id, ExprRef{id});
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (int i = 0; i < numKids; ++i) {
      if (memo_.count(kids[i]) == 0) {
        if (ready) ready = false;
        stack.push_back(kids[i]);
      }
    }
    if (!ready) continue;
    ExprRef newKids[3] = {{}, {}, {}};
    for (int i = 0; i < numKids; ++i) newKids[i] = memo_.at(kids[i]);
    memo_.emplace(id, rebuild(arena_, n, newKids[0], newKids[1], newKids[2]));
    stack.pop_back();
  }
  return memo_.at(root.id);
}

}  // namespace flay::expr
