#ifndef FLAY_EXPR_ARENA_H
#define FLAY_EXPR_ARENA_H

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/bitvec.h"

namespace flay::expr {

/// Reference to an interned expression node. Value 0 is the null reference.
struct ExprRef {
  uint32_t id = 0;
  bool valid() const { return id != 0; }
  auto operator<=>(const ExprRef&) const = default;
};

struct ExprRefHash {
  size_t operator()(ExprRef r) const { return r.id * 2654435761u; }
};

/// Whether a symbol's value is supplied by packets (data plane) or by the
/// controller (control plane). The distinction drives Flay's taint tracking:
/// control-plane symbols are substituted with concrete assignments while
/// data-plane symbols stay free (Section 2 of the paper).
enum class SymbolClass : uint8_t { kDataPlane, kControlPlane };

struct Symbol {
  std::string name;
  uint32_t width = 0;  // 0 = boolean sort
  SymbolClass cls = SymbolClass::kDataPlane;
};

enum class ExprKind : uint8_t {
  kBvConst,    // a = constant-pool index
  kBoolConst,  // a = 0 or 1
  kVar,        // a = symbol index (bit-vector sort)
  kBoolVar,    // a = symbol index (boolean sort)
  // Bit-vector binary (a, b = operands).
  kAdd, kSub, kMul, kUDiv, kURem,
  kAnd, kOr, kXor,
  kConcat,  // a = high bits, b = low bits
  // Bit-vector unary (a = operand).
  kNot, kNeg,
  kShl,      // a = operand, b = immediate shift amount
  kLShr,     // a = operand, b = immediate shift amount
  kExtract,  // a = operand, b = hi, c = lo
  kZExt,     // a = operand, width = new width
  // Predicates (result sort: bool).
  kEq, kUlt, kUle,
  // Boolean connectives.
  kBAnd, kBOr, kBNot,
  // a = bool condition, b = then, c = else; sort follows b.
  kIte,
};

/// One interned node. `width` is the bit-vector width of the result, or 0
/// for boolean-sorted nodes.
struct ExprNode {
  ExprKind kind;
  uint32_t width;
  uint32_t a = 0;
  uint32_t b = 0;
  uint32_t c = 0;
  bool operator==(const ExprNode&) const = default;
};

/// Hash-consed expression arena. Construction functions are "smart": they
/// apply local constant folding and canonicalization, so structurally equal
/// (after folding) expressions always share one ExprRef and equality checks
/// are O(1). This is what makes Flay's "did this annotation change?" query
/// cheap (Section 4.1, "Processing updates quickly").
class ExprArena {
 public:
  ExprArena();

  // --- Symbols -----------------------------------------------------------
  /// Interns a symbol by name; width/class must agree on reuse.
  uint32_t symbol(std::string_view name, uint32_t width, SymbolClass cls);
  const Symbol& symbolInfo(uint32_t symbolId) const { return symbols_[symbolId]; }

  // --- Leaves ------------------------------------------------------------
  ExprRef bvConst(const BitVec& value);
  ExprRef bvConst(uint32_t width, uint64_t value) {
    return bvConst(BitVec(width, value));
  }
  ExprRef boolConst(bool value);
  ExprRef var(std::string_view name, uint32_t width, SymbolClass cls);
  ExprRef boolVar(std::string_view name, SymbolClass cls);

  // --- Bit-vector operations ---------------------------------------------
  ExprRef add(ExprRef a, ExprRef b);
  ExprRef sub(ExprRef a, ExprRef b);
  ExprRef mul(ExprRef a, ExprRef b);
  ExprRef udiv(ExprRef a, ExprRef b);
  ExprRef urem(ExprRef a, ExprRef b);
  ExprRef bvAnd(ExprRef a, ExprRef b);
  ExprRef bvOr(ExprRef a, ExprRef b);
  ExprRef bvXor(ExprRef a, ExprRef b);
  ExprRef bvNot(ExprRef a);
  ExprRef neg(ExprRef a);
  ExprRef shl(ExprRef a, uint32_t amount);
  ExprRef lshr(ExprRef a, uint32_t amount);
  ExprRef extract(ExprRef a, uint32_t hi, uint32_t lo);
  ExprRef zext(ExprRef a, uint32_t newWidth);
  ExprRef concat(ExprRef hi, ExprRef lo);

  // --- Predicates and boolean connectives ---------------------------------
  ExprRef eq(ExprRef a, ExprRef b);
  ExprRef neq(ExprRef a, ExprRef b) { return bNot(eq(a, b)); }
  ExprRef ult(ExprRef a, ExprRef b);
  ExprRef ule(ExprRef a, ExprRef b);
  ExprRef bAnd(ExprRef a, ExprRef b);
  ExprRef bOr(ExprRef a, ExprRef b);
  ExprRef bNot(ExprRef a);
  ExprRef implies(ExprRef a, ExprRef b) { return bOr(bNot(a), b); }
  ExprRef ite(ExprRef cond, ExprRef thenE, ExprRef elseE);

  // --- Inspection ----------------------------------------------------------
  /// WARNING: the returned reference points into the arena's node storage
  /// and is invalidated by any later interning that reallocates (any smart
  /// constructor may intern). Copy the node, or re-fetch after constructing
  /// — holding the reference across construction is the PR 2 use-after-free
  /// class. PinnedNode (below) asserts this discipline in debug builds, and
  /// the FLAY_EXPR_POISON_REALLOC build mode makes every intern reallocate
  /// so ASan catches violations deterministically.
  const ExprNode& node(ExprRef r) const { return nodes_[r.id]; }
  /// Incremented whenever node storage reallocates (i.e. whenever
  /// references previously returned by node() become dangling).
  uint64_t nodeGeneration() const { return nodeGeneration_; }
  uint32_t width(ExprRef r) const { return nodes_[r.id].width; }
  bool isBool(ExprRef r) const { return nodes_[r.id].width == 0; }
  bool isConst(ExprRef r) const {
    ExprKind k = nodes_[r.id].kind;
    return k == ExprKind::kBvConst || k == ExprKind::kBoolConst;
  }
  bool isTrue(ExprRef r) const {
    return nodes_[r.id].kind == ExprKind::kBoolConst && nodes_[r.id].a == 1;
  }
  bool isFalse(ExprRef r) const {
    return nodes_[r.id].kind == ExprKind::kBoolConst && nodes_[r.id].a == 0;
  }
  /// Constant value of a kBvConst node.
  const BitVec& constValue(ExprRef r) const {
    return constPool_[nodes_[r.id].a];
  }
  size_t numNodes() const { return nodes_.size(); }

 private:
  ExprRef intern(ExprNode n);
  /// True if `r` is the bit-wise complement of `o` or vice versa.
  bool isComplement(ExprRef r, ExprRef o) const;

  struct NodeHash {
    size_t operator()(const ExprNode& n) const;
  };

  std::vector<ExprNode> nodes_;
  std::unordered_map<ExprNode, uint32_t, NodeHash> internMap_;
  std::vector<BitVec> constPool_;
  std::unordered_map<size_t, std::vector<uint32_t>> constPoolIndex_;
  std::vector<Symbol> symbols_;
  std::unordered_map<std::string, uint32_t> symbolIndex_;
  uint64_t nodeGeneration_ = 0;
};

/// Debug guard for code that wants node data across calls that may intern:
/// records the arena's node generation at construction and asserts on every
/// access that no reallocation has happened since — exactly the condition
/// under which a raw `const ExprNode&` from node() would now dangle. Access
/// re-fetches through the arena, so the guard itself is always safe; the
/// assert is what surfaces the latent use-after-free in debug builds (and
/// on every intern under FLAY_EXPR_POISON_REALLOC).
class PinnedNode {
 public:
  PinnedNode(const ExprArena& arena, ExprRef ref)
      : arena_(arena), ref_(ref), generation_(arena.nodeGeneration()) {}

  const ExprNode& operator*() const { return get(); }
  const ExprNode* operator->() const { return &get(); }
  /// True until the arena reallocates node storage.
  bool fresh() const { return arena_.nodeGeneration() == generation_; }
  /// Re-arms the guard after an intentional interning.
  void refresh() { generation_ = arena_.nodeGeneration(); }

 private:
  const ExprNode& get() const;

  const ExprArena& arena_;
  ExprRef ref_;
  uint64_t generation_;
};

}  // namespace flay::expr

#endif  // FLAY_EXPR_ARENA_H
