#ifndef FLAY_EXPR_CANONICAL_H
#define FLAY_EXPR_CANONICAL_H

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "expr/arena.h"

namespace flay::expr {

struct Hash128 {
  uint64_t hi = 0;
  uint64_t lo = 0;
  auto operator<=>(const Hash128&) const = default;
  /// 32 lowercase hex digits, hi first.
  std::string hex() const;
};

/// Hashes an expression in a process-independent canonical form. The
/// arena's smart constructors order commutative operands by interning id
/// (arena.cpp), and interning ids depend on construction history — a
/// recovered service that re-encoded its tables from a checkpoint, or a
/// substitution pass that rebuilt a condition in a different order, holds
/// semantically identical but structurally permuted and/or chains. The
/// canonical hash flattens those chains and sorts their operands' hashes,
/// and orders eq operands by hash, so equal formulas hash equally regardless
/// of construction history. Every node's hash is memoized for the hasher's
/// lifetime, so a subexpression shared by many parents is hashed once and
/// costs O(1) memory, however many paths lead to it. One consumer keys on
/// this: the state digest (FlayService::stateDigest) that crash recovery,
/// the bulk-load parity check and the controller compare across construction
/// histories.
class CanonicalHasher {
 public:
  explicit CanonicalHasher(const ExprArena& arena) : arena_(arena) {}

  Hash128 hash(ExprRef r);

 private:
  void flatten(ExprRef r, ExprKind kind, std::vector<Hash128>* out);
  Hash128 hashNode(ExprRef r);

  const ExprArena& arena_;
  std::unordered_map<uint32_t, Hash128> memo_;
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
