#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <string>
#include <vector>

#include "expr/analysis.h"
#include "expr/arena.h"
#include "expr/canonical.h"
#include "expr/eval.h"
#include "expr/printer.h"
#include "expr/substitute.h"

namespace flay::expr {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprArena arena;
  ExprRef bv(uint32_t w, uint64_t v) { return arena.bvConst(w, v); }
  ExprRef dp(const char* name, uint32_t w = 32) {
    return arena.var(name, w, SymbolClass::kDataPlane);
  }
  ExprRef cp(const char* name, uint32_t w = 32) {
    return arena.var(name, w, SymbolClass::kControlPlane);
  }
};

TEST_F(ExprTest, HashConsingSharesNodes) {
  ExprRef a = arena.add(dp("x"), bv(32, 5));
  ExprRef b = arena.add(dp("x"), bv(32, 5));
  EXPECT_EQ(a, b);
  // Commutativity canonicalization: x + 5 == 5 + x.
  EXPECT_EQ(arena.add(bv(32, 5), dp("x")), a);
}

TEST_F(ExprTest, ConstantFoldArithmetic) {
  EXPECT_EQ(arena.add(bv(8, 200), bv(8, 100)), bv(8, 44));  // wraps
  EXPECT_EQ(arena.sub(bv(8, 1), bv(8, 2)), bv(8, 255));
  EXPECT_EQ(arena.mul(bv(8, 7), bv(8, 6)), bv(8, 42));
  EXPECT_EQ(arena.udiv(bv(8, 42), bv(8, 5)), bv(8, 8));
  EXPECT_EQ(arena.urem(bv(8, 42), bv(8, 5)), bv(8, 2));
}

TEST_F(ExprTest, IdentityFolds) {
  ExprRef x = dp("x");
  EXPECT_EQ(arena.add(x, bv(32, 0)), x);
  EXPECT_EQ(arena.sub(x, bv(32, 0)), x);
  EXPECT_EQ(arena.sub(x, x), bv(32, 0));
  EXPECT_EQ(arena.mul(x, bv(32, 1)), x);
  EXPECT_TRUE(arena.isConst(arena.mul(x, bv(32, 0))));
  EXPECT_EQ(arena.bvAnd(x, arena.bvConst(BitVec::allOnes(32))), x);
  EXPECT_EQ(arena.bvAnd(x, bv(32, 0)), bv(32, 0));
  EXPECT_EQ(arena.bvOr(x, bv(32, 0)), x);
  EXPECT_EQ(arena.bvXor(x, x), bv(32, 0));
  EXPECT_EQ(arena.bvAnd(x, x), x);
  EXPECT_EQ(arena.bvNot(arena.bvNot(x)), x);
}

TEST_F(ExprTest, StrengthReduction) {
  ExprRef x = dp("x");
  // x * 8 becomes x << 3.
  ExprRef m = arena.mul(x, bv(32, 8));
  EXPECT_EQ(arena.node(m).kind, ExprKind::kShl);
  EXPECT_EQ(arena.node(m).b, 3u);
  // x / 4 becomes x >> 2, x % 16 becomes x & 15.
  EXPECT_EQ(arena.node(arena.udiv(x, bv(32, 4))).kind, ExprKind::kLShr);
  ExprRef r = arena.urem(x, bv(32, 16));
  EXPECT_EQ(arena.node(r).kind, ExprKind::kAnd);
}

TEST_F(ExprTest, ComplementFolds) {
  ExprRef x = dp("x");
  EXPECT_EQ(arena.bvAnd(x, arena.bvNot(x)), bv(32, 0));
  EXPECT_TRUE(arena.constValue(arena.bvOr(x, arena.bvNot(x))).isAllOnes());
  ExprRef p = arena.boolVar("p", SymbolClass::kDataPlane);
  EXPECT_TRUE(arena.isFalse(arena.bAnd(p, arena.bNot(p))));
  EXPECT_TRUE(arena.isTrue(arena.bOr(p, arena.bNot(p))));
}

TEST_F(ExprTest, ExtractSimplifications) {
  ExprRef x = dp("x", 32);
  // Full-range extract is the identity.
  EXPECT_EQ(arena.extract(x, 31, 0), x);
  // extract of extract composes.
  ExprRef inner = arena.extract(x, 23, 8);   // 16 bits
  ExprRef outer = arena.extract(inner, 7, 0);  // low 8 of those
  EXPECT_EQ(outer, arena.extract(x, 15, 8));
  // extract inside zext padding is zero.
  ExprRef ze = arena.zext(dp("y", 8), 32);
  EXPECT_EQ(arena.extract(ze, 31, 16), bv(16, 0));
  EXPECT_EQ(arena.extract(ze, 7, 0), dp("y", 8));
}

TEST_F(ExprTest, ConcatSimplifications) {
  ExprRef lo = dp("lo", 8);
  ExprRef hi = dp("hi", 8);
  ExprRef c = arena.concat(hi, lo);
  EXPECT_EQ(arena.width(c), 16u);
  EXPECT_EQ(arena.extract(c, 7, 0), lo);
  EXPECT_EQ(arena.extract(c, 15, 8), hi);
  // Zero high part folds to zext.
  EXPECT_EQ(arena.concat(bv(8, 0), lo), arena.zext(lo, 16));
}

TEST_F(ExprTest, PredicateFolds) {
  ExprRef x = dp("x");
  EXPECT_TRUE(arena.isTrue(arena.eq(x, x)));
  EXPECT_TRUE(arena.isFalse(arena.eq(bv(32, 1), bv(32, 2))));
  EXPECT_TRUE(arena.isTrue(arena.eq(bv(32, 3), bv(32, 3))));
  EXPECT_TRUE(arena.isFalse(arena.ult(x, x)));
  EXPECT_TRUE(arena.isTrue(arena.ule(x, x)));
  EXPECT_TRUE(arena.isFalse(arena.ult(x, bv(32, 0))));
  EXPECT_TRUE(arena.isTrue(arena.ule(bv(32, 0), x)));
}

TEST_F(ExprTest, IteFolds) {
  ExprRef p = arena.boolVar("p", SymbolClass::kControlPlane);
  ExprRef a = dp("a");
  ExprRef b = dp("b");
  EXPECT_EQ(arena.ite(arena.boolConst(true), a, b), a);
  EXPECT_EQ(arena.ite(arena.boolConst(false), a, b), b);
  EXPECT_EQ(arena.ite(p, a, a), a);
  // Negated condition swaps the arms.
  EXPECT_EQ(arena.ite(arena.bNot(p), a, b), arena.ite(p, b, a));
  // Boolean-arm folds.
  ExprRef q = arena.boolVar("q", SymbolClass::kControlPlane);
  EXPECT_EQ(arena.ite(p, arena.boolConst(true), arena.boolConst(false)), p);
  EXPECT_EQ(arena.ite(p, arena.boolConst(false), arena.boolConst(true)),
            arena.bNot(p));
  EXPECT_EQ(arena.ite(p, arena.boolConst(true), q), arena.bOr(p, q));
  EXPECT_EQ(arena.ite(p, q, arena.boolConst(false)), arena.bAnd(p, q));
}

TEST_F(ExprTest, NestedIteSameCondCollapses) {
  ExprRef p = arena.boolVar("p", SymbolClass::kControlPlane);
  ExprRef a = dp("a");
  ExprRef b = dp("b");
  ExprRef c = dp("c");
  // ite(p, ite(p, a, b), c) == ite(p, a, c)
  EXPECT_EQ(arena.ite(p, arena.ite(p, a, b), c), arena.ite(p, a, c));
  // ite(p, a, ite(p, b, c)) == ite(p, a, c)
  EXPECT_EQ(arena.ite(p, a, arena.ite(p, b, c)), arena.ite(p, a, c));
}

TEST_F(ExprTest, SymbolClassConflictThrows) {
  arena.var("v", 32, SymbolClass::kDataPlane);
  EXPECT_THROW(arena.var("v", 32, SymbolClass::kControlPlane),
               std::invalid_argument);
  EXPECT_THROW(arena.var("v", 16, SymbolClass::kDataPlane),
               std::invalid_argument);
}

TEST_F(ExprTest, SubstitutionSpecializes) {
  // The Fig. 5 shape: egress_port = cfg ? (act == set ? param : 0) : 0
  ExprRef cfg = arena.boolVar("t_configured", SymbolClass::kControlPlane);
  ExprRef act = cp("t_action", 2);
  ExprRef param = cp("t_param", 9);
  ExprRef port =
      arena.ite(cfg,
                arena.ite(arena.eq(act, bv(2, 1)), param,
                          bv(9, 0)),
                bv(9, 0));

  // Empty table: cfg = false -> port is the constant 0.
  Substitution empty(arena);
  empty.bindConst("t_configured", false, SymbolClass::kControlPlane);
  EXPECT_EQ(empty.apply(port), bv(9, 0));

  // Entry installed: cfg = true, action = set(1), param = 1.
  Substitution installed(arena);
  installed.bindConst("t_configured", true, SymbolClass::kControlPlane);
  installed.bindConst("t_action", BitVec(2, 1), SymbolClass::kControlPlane);
  installed.bindConst("t_param", BitVec(9, 1), SymbolClass::kControlPlane);
  EXPECT_EQ(installed.apply(port), bv(9, 1));
}

TEST_F(ExprTest, SubstitutionLeavesUnboundAlone) {
  ExprRef x = dp("x");
  ExprRef y = cp("y");
  ExprRef sum = arena.add(x, y);
  Substitution s(arena);
  s.bindConst("y", BitVec(32, 10), SymbolClass::kControlPlane);
  ExprRef result = s.apply(sum);
  EXPECT_EQ(result, arena.add(x, bv(32, 10)));
  // x is untouched.
  EXPECT_EQ(s.apply(x), x);
}

TEST_F(ExprTest, SubstituteExprForVar) {
  ExprRef x = dp("x");
  ExprRef y = dp("y");
  Substitution s(arena);
  s.bind(x, arena.add(y, bv(32, 1)));
  EXPECT_EQ(s.apply(arena.mul(x, bv(32, 2))),
            arena.mul(arena.add(y, bv(32, 1)), bv(32, 2)));
}

TEST_F(ExprTest, SubstitutionSortMismatchThrows) {
  ExprRef x = dp("x", 32);
  Substitution s(arena);
  EXPECT_THROW(s.bind(x, bv(16, 0)), std::invalid_argument);
  EXPECT_THROW(s.bind(arena.add(x, x), bv(32, 0)), std::invalid_argument);
}

TEST_F(ExprTest, EvaluatorComputesConcreteValues) {
  ExprRef x = dp("x", 16);
  ExprRef y = dp("y", 16);
  ExprRef e = arena.add(arena.mul(x, bv(16, 3)), y);
  Evaluator ev(arena);
  ev.bindVar(x, BitVec(16, 10));
  ev.bindVar(y, BitVec(16, 5));
  EXPECT_EQ(ev.evaluateBv(e).toUint64(), 35u);
}

TEST_F(ExprTest, EvaluatorHandlesAllOps) {
  ExprRef x = dp("x", 8);
  Evaluator ev(arena);
  ev.bindVar(x, BitVec(8, 0b1100));
  EXPECT_EQ(ev.evaluateBv(arena.bvAnd(x, bv(8, 0b1010))).toUint64(), 0b1000u);
  EXPECT_EQ(ev.evaluateBv(arena.bvOr(x, bv(8, 0b0011))).toUint64(), 0b1111u);
  EXPECT_EQ(ev.evaluateBv(arena.bvXor(x, bv(8, 0b1111))).toUint64(), 0b0011u);
  EXPECT_EQ(ev.evaluateBv(arena.bvNot(x)).toUint64(), 0b11110011u);
  EXPECT_EQ(ev.evaluateBv(arena.shl(x, 2)).toUint64(), 0b110000u);
  EXPECT_EQ(ev.evaluateBv(arena.lshr(x, 2)).toUint64(), 0b11u);
  EXPECT_EQ(ev.evaluateBv(arena.extract(x, 3, 2)).toUint64(), 0b11u);
  EXPECT_EQ(ev.evaluateBv(arena.zext(x, 16)).width(), 16u);
  EXPECT_TRUE(ev.evaluateBool(arena.ult(x, bv(8, 100))));
  EXPECT_TRUE(ev.evaluateBool(arena.eq(x, bv(8, 12))));
}

TEST_F(ExprTest, EvaluatorUnboundThrows) {
  ExprRef x = dp("x");
  Evaluator ev(arena);
  EXPECT_THROW(ev.evaluate(x), std::runtime_error);
  EXPECT_FALSE(ev.tryEvaluate(x).has_value());
}

TEST_F(ExprTest, EvaluatorIteShortCircuitValue) {
  ExprRef p = arena.boolVar("p", SymbolClass::kDataPlane);
  ExprRef e = arena.ite(p, bv(8, 1), bv(8, 2));
  Evaluator ev(arena);
  ev.bindVar(p, true);
  EXPECT_EQ(ev.evaluateBv(e).toUint64(), 1u);
  ev.bindVar(p, false);
  EXPECT_EQ(ev.evaluateBv(e).toUint64(), 2u);
}

TEST_F(ExprTest, CollectSymbolsByClass) {
  ExprRef e = arena.add(dp("pkt_field"), cp("table_param"));
  auto dpSyms = collectSymbols(arena, e, SymbolClass::kDataPlane);
  auto cpSyms = collectSymbols(arena, e, SymbolClass::kControlPlane);
  EXPECT_EQ(dpSyms.size(), 1u);
  EXPECT_EQ(cpSyms.size(), 1u);
  EXPECT_EQ(collectSymbols(arena, e).size(), 2u);
  EXPECT_FALSE(isFreeOf(arena, e, SymbolClass::kControlPlane));
  EXPECT_TRUE(isFreeOf(arena, bv(32, 1), SymbolClass::kControlPlane));
}

TEST_F(ExprTest, SizeMetrics) {
  ExprRef x = dp("x");
  ExprRef shared = arena.add(x, bv(32, 1));
  ExprRef e = arena.mul(shared, shared);
  // DAG: mul, add, x, 1 -> 4 nodes. Tree: mul + 2*(add,x,1) -> 7.
  EXPECT_EQ(dagSize(arena, e), 4u);
  EXPECT_EQ(treeSize(arena, e), 7u);
  EXPECT_EQ(depth(arena, e), 3u);
}

TEST_F(ExprTest, PrinterPaperNotation) {
  ExprRef cfg = arena.boolVar("t_cfg", SymbolClass::kControlPlane);
  ExprRef pkt = dp("h_dst", 8);
  ExprRef e = arena.ite(cfg, pkt, bv(8, 0));
  std::string s = toString(arena, e);
  EXPECT_NE(s.find("|t_cfg|"), std::string::npos);
  EXPECT_NE(s.find("@h_dst@"), std::string::npos);
  EXPECT_NE(s.find("0x00"), std::string::npos);
}

TEST_F(ExprTest, PrinterDepthLimit) {
  ExprRef e = dp("x");
  for (int i = 0; i < 20; ++i) e = arena.add(e, dp(("v" + std::to_string(i)).c_str()));
  PrintOptions opts;
  opts.maxDepth = 3;
  std::string s = toString(arena, e, opts);
  EXPECT_NE(s.find("..."), std::string::npos);
}


TEST_F(ExprTest, EqPushesIntoIteWithConstantArms) {
  ExprRef p = arena.boolVar("p", SymbolClass::kControlPlane);
  ExprRef x = dp("x", 8);
  // (p ? 3 : 4) == 3 folds to p.
  ExprRef selector = arena.ite(p, arena.bvConst(8, 3), arena.bvConst(8, 4));
  EXPECT_EQ(arena.eq(selector, arena.bvConst(8, 3)), p);
  EXPECT_EQ(arena.eq(selector, arena.bvConst(8, 4)), arena.bNot(p));
  // Neither arm matches: constant false.
  EXPECT_TRUE(arena.isFalse(arena.eq(selector, arena.bvConst(8, 9))));
  // One constant arm + one general arm still narrows.
  ExprRef mixed = arena.ite(p, arena.bvConst(8, 3), x);
  ExprRef r = arena.eq(mixed, arena.bvConst(8, 3));
  // r == ite(p, true, x == 3) == p || (x == 3)
  EXPECT_EQ(r, arena.bOr(p, arena.eq(x, arena.bvConst(8, 3))));
  // Chains (table selector shapes) fully collapse.
  ExprRef q = arena.boolVar("q", SymbolClass::kControlPlane);
  ExprRef chain = arena.ite(p, arena.bvConst(8, 0),
                            arena.ite(q, arena.bvConst(8, 1),
                                      arena.bvConst(8, 2)));
  ExprRef isOne = arena.eq(chain, arena.bvConst(8, 1));
  EXPECT_EQ(isOne, arena.bAnd(arena.bNot(p), q));
}

TEST_F(ExprTest, EqIntoItePreservesSemantics) {
  // Property check via the evaluator across all inputs of a small domain.
  ExprRef p = arena.boolVar("p", SymbolClass::kDataPlane);
  ExprRef x = dp("x", 4);
  ExprRef e = arena.eq(arena.ite(p, arena.bvConst(4, 5), x),
                       arena.bvConst(4, 5));
  for (int pb = 0; pb < 2; ++pb) {
    for (uint64_t xv = 0; xv < 16; ++xv) {
      Evaluator ev(arena);
      ev.bindVar(p, pb == 1);
      ev.bindVar(x, BitVec(4, xv));
      EXPECT_EQ(ev.evaluateBool(e), pb == 1 || xv == 5)
          << "p=" << pb << " x=" << xv;
    }
  }
}

// Property: random expressions — folding never changes concrete semantics.
// Build the same expression twice: once through the folding arena, once
// evaluated directly; both must agree for random inputs.
class FoldSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(FoldSoundnessTest, RandomExprsEvaluateConsistently) {
  std::mt19937_64 rng(GetParam());
  ExprArena arena;
  const uint32_t w = 16;
  ExprRef x = arena.var("x", w, SymbolClass::kDataPlane);
  ExprRef y = arena.var("y", w, SymbolClass::kDataPlane);

  // Reference evaluation tracking alongside construction.
  BitVec xv(w, rng());
  BitVec yv(w, rng());
  struct Pair {
    ExprRef e;
    BitVec v;
  };
  std::vector<Pair> pool = {{x, xv}, {y, yv}};
  for (int i = 0; i < 40; ++i) {
    BitVec cv(w, rng());
    pool.push_back({arena.bvConst(cv), cv});
  }
  Evaluator ev(arena);
  ev.bindVar(x, xv);
  ev.bindVar(y, yv);

  for (int step = 0; step < 300; ++step) {
    const Pair& a = pool[rng() % pool.size()];
    const Pair& b = pool[rng() % pool.size()];
    int op = static_cast<int>(rng() % 8);
    ExprRef e;
    BitVec expect(w, 0);
    switch (op) {
      case 0: e = arena.add(a.e, b.e); expect = a.v.add(b.v); break;
      case 1: e = arena.sub(a.e, b.e); expect = a.v.sub(b.v); break;
      case 2: e = arena.mul(a.e, b.e); expect = a.v.mul(b.v); break;
      case 3: e = arena.bvAnd(a.e, b.e); expect = a.v.bitAnd(b.v); break;
      case 4: e = arena.bvOr(a.e, b.e); expect = a.v.bitOr(b.v); break;
      case 5: e = arena.bvXor(a.e, b.e); expect = a.v.bitXor(b.v); break;
      case 6: e = arena.bvNot(a.e); expect = a.v.bitNot(); break;
      case 7: {
        ExprRef c = arena.ult(a.e, b.e);
        e = arena.ite(c, a.e, b.e);
        expect = a.v.ult(b.v) ? a.v : b.v;
        break;
      }
    }
    ASSERT_EQ(ev.evaluateBv(e), expect) << "op " << op << " step " << step;
    pool.push_back({e, expect});
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoldSoundnessTest,
                         ::testing::Range(1, 11));

// ---------------------------------------------------------------------------
// Node-storage reallocation tracking: the arena bumps nodeGeneration()
// whenever intern() moves node storage, i.e. whenever `const ExprNode&`
// references previously returned by node() become dangling (the PR 2
// use-after-free class). PinnedNode turns that into a checkable guard.

TEST_F(ExprTest, NodeGenerationAdvancesOnReallocation) {
  uint64_t start = arena.nodeGeneration();
  // Interning many distinct nodes must cross at least one capacity boundary
  // (under FLAY_EXPR_POISON_REALLOC it advances on every single intern).
  for (uint64_t i = 0; i < 4096; ++i) bv(32, i);
  EXPECT_GT(arena.nodeGeneration(), start);
}

TEST_F(ExprTest, NodeGenerationStableWithoutInterning) {
  ExprRef a = arena.add(dp("x"), bv(32, 5));
  uint64_t gen = arena.nodeGeneration();
  // Re-interning existing nodes appends nothing, so no reallocation.
  ExprRef b = arena.add(dp("x"), bv(32, 5));
  EXPECT_EQ(a, b);
  EXPECT_EQ(arena.nodeGeneration(), gen);
}

TEST_F(ExprTest, PinnedNodeDetectsReallocationAndRefreshes) {
  ExprRef a = arena.add(dp("x"), bv(32, 5));
  PinnedNode pin(arena, a);
  ASSERT_TRUE(pin.fresh());
  const ExprNode copy = *pin;  // safe: copies while fresh

  // Force at least one reallocation.
  uint64_t before = arena.nodeGeneration();
  for (uint64_t i = 0; i < 4096 && arena.nodeGeneration() == before; ++i) {
    bv(32, 1000000 + i);
  }
  ASSERT_GT(arena.nodeGeneration(), before);
  EXPECT_FALSE(pin.fresh());

  // After refresh() the pin is valid again and re-fetches the same node
  // data: hash-consed nodes are immutable even though storage moved.
  pin.refresh();
  ASSERT_TRUE(pin.fresh());
  EXPECT_EQ(*pin, copy);
  EXPECT_EQ(pin->kind, copy.kind);
}

// The canonical hash is memoized per node, so a DAG costs one hash per node
// however many paths reach it. Each of these 48 levels uses the level below
// twice (bit-vector and boolean, through and/or chains), so as a tree the
// roots would expand to about 2^48 leaves.
TEST_F(ExprTest, CanonicalHashOfSharedDagIsLinear) {
  ExprRef x = dp("x", 16);
  ExprRef p = arena.boolVar("p", SymbolClass::kDataPlane);
  for (int i = 0; i < 48; ++i) {
    ExprRef k = dp(("k" + std::to_string(i)).c_str(), 16);
    x = arena.add(x, arena.bvXor(x, k));
    p = arena.bOr(arena.bAnd(p, arena.eq(x, k)),
                  arena.bAnd(arena.bNot(p), arena.ult(x, k)));
  }
  auto start = std::chrono::steady_clock::now();
  CanonicalHasher hasher(arena);
  Hash128 hx = hasher.hash(x);
  Hash128 hp = hasher.hash(p);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_NE(hx, hp);
  EXPECT_EQ(CanonicalHasher(arena).hash(p), hp);
}

// Interning order decides the arena's operand order and and/or nesting; the
// canonical hash flattens and sorts both away. Two arenas build
// (p0 & p1 & p2) | (p3 & p4 & p5) interning and folding in opposite orders.
TEST(CanonicalHash, AndOrChainsHashEqualAcrossConstructionOrder) {
  auto build = [](ExprArena& a, const std::vector<int>& order,
                  uint64_t lastConst) {
    std::vector<ExprRef> preds(order.size());
    for (int i : order) {
      preds[i] = a.eq(a.var("f" + std::to_string(i), 8, SymbolClass::kDataPlane),
                      a.bvConst(8, i == 5 ? lastConst : i + 1));
    }
    ExprRef low = a.boolConst(true), high = a.boolConst(true);
    for (int i : order) {
      ExprRef& chain = i < 3 ? low : high;
      chain = a.bAnd(chain, preds[i]);
    }
    return order.front() < 3 ? a.bOr(low, high) : a.bOr(high, low);
  };
  const std::vector<int> forward = {0, 1, 2, 3, 4, 5};
  const std::vector<int> backward = {5, 4, 3, 2, 1, 0};
  ExprArena first, second, other;
  ExprRef a = build(first, forward, 6);
  ExprRef b = build(second, backward, 6);
  ExprRef c = build(other, backward, 7);
  ASSERT_NE(toString(first, a), toString(second, b))
      << "the two construction orders built identical structure";
  EXPECT_EQ(CanonicalHasher(first).hash(a), CanonicalHasher(second).hash(b));
  EXPECT_NE(CanonicalHasher(first).hash(a), CanonicalHasher(other).hash(c));
}

}  // namespace
}  // namespace flay::expr
