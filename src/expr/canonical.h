#ifndef FLAY_EXPR_CANONICAL_H
#define FLAY_EXPR_CANONICAL_H

#include <string>
#include <string_view>
#include <unordered_map>

#include "expr/arena.h"

namespace flay::expr {

/// Renders an expression in a process-independent canonical form. The
/// arena's smart constructors order commutative operands by interning id
/// (arena.cpp), and interning ids depend on construction history — a
/// recovered service that re-encoded its tables from a checkpoint, or a
/// substitution pass that rebuilt a condition in a different order, holds
/// semantically identical but structurally permuted and/or chains. The
/// canonical form flattens those chains and sorts operands by their own
/// rendering, so equal formulas render equally regardless of construction
/// history. One consumer keys on this: the state digest
/// (FlayService::stateDigest) that crash recovery, the bulk-load parity
/// check and the controller compare across construction histories.
class CanonicalRenderer {
 public:
  explicit CanonicalRenderer(const ExprArena& arena) : arena_(arena) {}

  const std::string& render(ExprRef r);

 private:
  void flatten(ExprRef r, ExprKind kind, std::vector<std::string>* out);
  std::string nary(const char* op, std::initializer_list<ExprRef> kids);
  std::string renderNode(ExprRef r);

  const ExprArena& arena_;
  std::unordered_map<uint32_t, std::string> memo_;
};

/// FNV-1a accumulator over rendered pieces, with a separator mixed in after
/// each piece so concatenation ambiguity cannot alias two digests.
struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void mix(std::string_view s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0xff;  // field separator
    h *= 1099511628211ull;
  }
  std::string hex() const {
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 0; i < 16; ++i) out[i] = digits[(h >> (60 - 4 * i)) & 0xf];
    return out;
  }
};

}  // namespace flay::expr

#endif  // FLAY_EXPR_CANONICAL_H
