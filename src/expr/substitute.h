#ifndef FLAY_EXPR_SUBSTITUTE_H
#define FLAY_EXPR_SUBSTITUTE_H

#include <unordered_map>

#include "expr/arena.h"

namespace flay::expr {

/// Memoized variable substitution over the hash-consed DAG. Because rebuilds
/// go through the arena's folding constructors, substituting constants for
/// control-plane symbols *is* partial evaluation: guards collapse, dead ITE
/// arms disappear. The memo table is shared across apply() calls, which is
/// the incremental-evaluation analogue of Z3's e-matching cache the paper
/// relies on (§4.1, "Processing updates quickly").
class Substitution {
 public:
  explicit Substitution(ExprArena& arena) : arena_(arena) {}

  /// Maps a kVar/kBoolVar expression to its replacement. Sorts must match.
  /// Binding invalidates the memo table.
  void bind(ExprRef var, ExprRef value);

  /// Convenience: bind symbol (by name) to a constant.
  void bindConst(std::string_view name, const BitVec& value, SymbolClass cls);
  void bindConst(std::string_view name, bool value, SymbolClass cls);

  /// Returns `root` with all bound variables replaced, fully re-folded.
  ExprRef apply(ExprRef root);

 private:
  ExprArena& arena_;
  std::unordered_map<uint32_t, ExprRef> bindings_;  // node id -> replacement
  std::unordered_map<uint32_t, ExprRef> memo_;      // node id -> rewritten
};

}  // namespace flay::expr

#endif  // FLAY_EXPR_SUBSTITUTE_H
