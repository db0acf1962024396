#include "smt/solver.h"

#include <gtest/gtest.h>

#include <random>

#include "expr/eval.h"

namespace flay::smt {
namespace {

using expr::ExprArena;
using expr::ExprRef;
using expr::SymbolClass;

class SmtTest : public ::testing::Test {
 protected:
  ExprArena arena;
  ExprRef bv(uint32_t w, uint64_t v) { return arena.bvConst(w, v); }
  ExprRef x(uint32_t w = 8) { return arena.var("x", w, SymbolClass::kDataPlane); }
  ExprRef y(uint32_t w = 8) { return arena.var("y", w, SymbolClass::kDataPlane); }
};

TEST_F(SmtTest, TrivialConstants) {
  EXPECT_TRUE(isSatisfiable(arena, arena.boolConst(true)));
  EXPECT_FALSE(isSatisfiable(arena, arena.boolConst(false)));
  EXPECT_TRUE(isValid(arena, arena.boolConst(true)));
  EXPECT_FALSE(isValid(arena, arena.boolConst(false)));
}

TEST_F(SmtTest, EqualityWithConstant) {
  // x == 42 is satisfiable but not valid.
  ExprRef e = arena.eq(x(), bv(8, 42));
  EXPECT_TRUE(isSatisfiable(arena, e));
  EXPECT_FALSE(isValid(arena, e));
}

TEST_F(SmtTest, ArithmeticReasoning) {
  // x + 1 == 0 forces x == 255 (8-bit wraparound).
  SmtSolver solver(arena);
  solver.assertExpr(arena.eq(arena.add(x(), bv(8, 1)), bv(8, 0)));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(solver.modelValue(x()).toUint64(), 255u);
}

TEST_F(SmtTest, UnsatConjunction) {
  // x < 5 and x > 200 is unsat for 8-bit x.
  SmtSolver solver(arena);
  solver.assertExpr(arena.ult(x(), bv(8, 5)));
  solver.assertExpr(arena.ult(bv(8, 200), x()));
  EXPECT_EQ(solver.check(), CheckResult::kUnsat);
}

TEST_F(SmtTest, ModelSatisfiesMaskConstraint) {
  // Ternary-match shape: (x & 0xF0) == 0xA0.
  ExprRef e = arena.eq(arena.bvAnd(x(), bv(8, 0xF0)), bv(8, 0xA0));
  SmtSolver solver(arena);
  solver.assertExpr(e);
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  BitVec v = solver.modelValue(x());
  EXPECT_EQ(v.bitAnd(BitVec(8, 0xF0)).toUint64(), 0xA0u);
}

TEST_F(SmtTest, ValidDistributivity) {
  // (x & y) | (x & ~y) == x is valid.
  ExprRef lhs = arena.bvOr(arena.bvAnd(x(), y()),
                           arena.bvAnd(x(), arena.bvNot(y())));
  EXPECT_TRUE(isValid(arena, arena.eq(lhs, x())));
}

TEST_F(SmtTest, MulDivRelation) {
  // For y != 0: (x / y) * y + (x % y) == x.
  ExprRef q = arena.udiv(x(), y());
  ExprRef r = arena.urem(x(), y());
  ExprRef identity = arena.eq(arena.add(arena.mul(q, y()), r), x());
  ExprRef guarded = arena.bOr(arena.eq(y(), bv(8, 0)), identity);
  EXPECT_TRUE(isValid(arena, guarded));
}

TEST_F(SmtTest, DivByZeroSemantics) {
  // x / 0 == 0xFF for 8-bit (SMT-LIB all-ones).
  ExprRef ydiv = arena.udiv(x(), y());
  ExprRef zeroY = arena.eq(y(), bv(8, 0));
  ExprRef claim = arena.implies(zeroY, arena.eq(ydiv, bv(8, 0xFF)));
  EXPECT_TRUE(isValid(arena, claim));
}

TEST_F(SmtTest, UltUleDuality) {
  ExprRef claim = arena.eq(arena.ult(x(), y()),
                           arena.bNot(arena.ule(y(), x())));
  EXPECT_TRUE(isValid(arena, claim));
}

TEST_F(SmtTest, ConcatExtractRoundTrip) {
  ExprRef hi = arena.var("hi", 8, SymbolClass::kDataPlane);
  ExprRef lo = arena.var("lo", 8, SymbolClass::kDataPlane);
  ExprRef c = arena.concat(hi, lo);
  EXPECT_TRUE(isValid(arena, arena.eq(arena.extract(c, 15, 8), hi)));
  EXPECT_TRUE(isValid(arena, arena.eq(arena.extract(c, 7, 0), lo)));
}

TEST_F(SmtTest, ShiftSemantics) {
  ExprRef claim = arena.eq(arena.shl(x(), 1), arena.mul(x(), bv(8, 2)));
  EXPECT_TRUE(isValid(arena, claim));
  // Logical shift loses the top bit: (x >> 1) << 1 == x & 0xFE.
  ExprRef rt = arena.eq(arena.shl(arena.lshr(x(), 1), 1),
                        arena.bvAnd(x(), bv(8, 0xFE)));
  EXPECT_TRUE(isValid(arena, rt));
}

TEST_F(SmtTest, EquivalenceChecks) {
  ExprRef a = arena.add(x(), y());
  ExprRef b = arena.add(y(), x());
  EXPECT_TRUE(areEquivalent(arena, a, b));  // identical after canonicalization
  // x + y vs x - y: differ whenever y != 0 and 2y != 0.
  EXPECT_FALSE(areEquivalent(arena, a, arena.sub(x(), y())));
  // Semantic (non-structural) equivalence: x ^ y == (x | y) & ~(x & y).
  ExprRef xorAlt = arena.bvAnd(arena.bvOr(x(), y()),
                               arena.bvNot(arena.bvAnd(x(), y())));
  EXPECT_TRUE(areEquivalent(arena, arena.bvXor(x(), y()), xorAlt));
}

TEST_F(SmtTest, ConstantValueDetectsConstants) {
  // ite(p, 3, 3) folds already; build something that doesn't fold
  // structurally: (x & 0) + 3 folds too... use x ^ x ^ 3 via two vars that
  // the arena can't see through: (x | ~x) is all-ones -> folds. Use
  // a genuinely semantic case: (x + y) - y - x + 7 == 7.
  ExprRef e = arena.add(
      arena.sub(arena.sub(arena.add(x(), y()), y()), x()), bv(8, 7));
  ConstantProbe c = probeConstant(arena, e, 0);
  ASSERT_TRUE(c.constant);
  EXPECT_EQ(c.value.toUint64(), 7u);
}

TEST_F(SmtTest, ConstantValueRejectsNonConstants) {
  EXPECT_TRUE(probeConstant(arena, x(), 0).notConstant);
  EXPECT_TRUE(probeConstant(arena, arena.add(x(), bv(8, 1)), 0).notConstant);
}

TEST_F(SmtTest, ConstantValueBoolCases) {
  ExprRef p = arena.boolVar("p", SymbolClass::kDataPlane);
  EXPECT_TRUE(probeConstant(arena, p, 0).notConstant);
  // p || x == 3 is non-constant; (x <= 255) is constant true semantically
  // but folds structurally; use x < y || y <= x (valid, non-folding).
  ExprRef tauto = arena.bOr(arena.ult(x(), y()), arena.ule(y(), x()));
  ConstantProbe c = probeConstant(arena, tauto, 0);
  ASSERT_TRUE(c.constant);
  EXPECT_TRUE(c.boolValue);
}

TEST_F(SmtTest, WideBitvectors) {
  // 48-bit MAC-style equality: x48 & mask == value is satisfiable.
  ExprRef mac = arena.var("mac", 48, SymbolClass::kDataPlane);
  ExprRef mask = bv(48, 0xFFFFFF000000ull);
  ExprRef val = bv(48, 0xAABBCC000000ull);
  SmtSolver solver(arena);
  solver.assertExpr(arena.eq(arena.bvAnd(mac, mask), val));
  ASSERT_EQ(solver.check(), CheckResult::kSat);
  EXPECT_EQ(solver.modelValue(mac).bitAnd(BitVec(48, 0xFFFFFF000000ull)),
            BitVec(48, 0xAABBCC000000ull));
}


// Property: bit-blasted division/remainder agree with BitVec semantics for
// every pair of 4-bit operands (including division by zero).
TEST_F(SmtTest, DivRemBlastingMatchesEvaluatorExhaustively) {
  const uint32_t w = 4;
  ExprRef a = arena.var("da", w, SymbolClass::kDataPlane);
  ExprRef b = arena.var("db", w, SymbolClass::kDataPlane);
  ExprRef q = arena.udiv(a, b);
  ExprRef r = arena.urem(a, b);
  for (uint64_t av = 0; av < 16; ++av) {
    for (uint64_t bvv = 0; bvv < 16; ++bvv) {
      BitVec expectQ = BitVec(w, av).udiv(BitVec(w, bvv));
      BitVec expectR = BitVec(w, av).urem(BitVec(w, bvv));
      SmtSolver solver(arena);
      solver.assertExpr(arena.eq(a, arena.bvConst(w, av)));
      solver.assertExpr(arena.eq(b, arena.bvConst(w, bvv)));
      solver.assertExpr(arena.eq(q, arena.bvConst(expectQ)));
      solver.assertExpr(arena.eq(r, arena.bvConst(expectR)));
      EXPECT_EQ(solver.check(), CheckResult::kSat)
          << av << " / " << bvv;
    }
  }
}

TEST_F(SmtTest, MulCommutativityAndDistributivityValid) {
  ExprRef a = arena.var("ma", 6, SymbolClass::kDataPlane);
  ExprRef b = arena.var("mb", 6, SymbolClass::kDataPlane);
  ExprRef c = arena.var("mc", 6, SymbolClass::kDataPlane);
  EXPECT_TRUE(isValid(arena, arena.eq(arena.mul(a, b), arena.mul(b, a))));
  EXPECT_TRUE(isValid(
      arena, arena.eq(arena.mul(a, arena.add(b, c)),
                      arena.add(arena.mul(a, b), arena.mul(a, c)))));
}

// Property test: the bit-blaster agrees with the concrete evaluator. Build a
// random constraint x == <random expr over constants>, solve, and check the
// model evaluates consistently.
class BlastConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(BlastConsistencyTest, ModelMatchesEvaluator) {
  std::mt19937_64 rng(GetParam() * 104729);
  ExprArena arena;
  const uint32_t w = 12;
  ExprRef a = arena.var("a", w, SymbolClass::kDataPlane);
  ExprRef b = arena.var("b", w, SymbolClass::kDataPlane);

  // Random expression over a, b.
  std::vector<ExprRef> pool = {a, b, arena.bvConst(w, rng() % (1 << w)),
                               arena.bvConst(w, rng() % (1 << w))};
  for (int i = 0; i < 25; ++i) {
    ExprRef p = pool[rng() % pool.size()];
    ExprRef q = pool[rng() % pool.size()];
    switch (rng() % 7) {
      case 0: pool.push_back(arena.add(p, q)); break;
      case 1: pool.push_back(arena.sub(p, q)); break;
      case 2: pool.push_back(arena.mul(p, q)); break;
      case 3: pool.push_back(arena.bvAnd(p, q)); break;
      case 4: pool.push_back(arena.bvOr(p, q)); break;
      case 5: pool.push_back(arena.bvXor(p, q)); break;
      case 6: pool.push_back(arena.ite(arena.ult(p, q), p, q)); break;
    }
  }
  ExprRef target = pool.back();
  SmtSolver solver(arena);
  solver.assertExpr(arena.eq(target, target));  // force blasting; trivially sat
  // Add a random inequality to make the instance non-trivial.
  solver.assertExpr(arena.ule(a, arena.bvConst(w, 1u << (w - 1))));
  ASSERT_EQ(solver.check(), CheckResult::kSat);

  BitVec av = solver.modelValue(a);
  BitVec bvv = solver.modelValue(b);
  expr::Evaluator ev(arena);
  ev.bindVar(a, av);
  ev.bindVar(b, bvv);
  // Every pool expression must evaluate consistently with the blasted model:
  // assert target == eval(target) and expect SAT proves nothing; instead
  // check the model constraint held.
  EXPECT_TRUE(av.ule(BitVec(w, 1u << (w - 1))));
  // And the blasted target value equals the evaluator's value.
  SmtSolver verify(arena);
  verify.assertExpr(arena.eq(a, arena.bvConst(av)));
  verify.assertExpr(arena.eq(b, arena.bvConst(bvv)));
  verify.assertExpr(arena.eq(target, arena.bvConst(ev.evaluateBv(target))));
  EXPECT_EQ(verify.check(), CheckResult::kSat);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlastConsistencyTest, ::testing::Range(1, 16));

// Property: random 8-bit formulas — isSatisfiable agrees with brute force.
class SmtBruteForceTest : public ::testing::TestWithParam<int> {};

TEST_P(SmtBruteForceTest, AgreesWithEnumeration) {
  std::mt19937_64 rng(GetParam() * 31337);
  ExprArena arena;
  const uint32_t w = 6;
  ExprRef a = arena.var("a", w, SymbolClass::kDataPlane);

  uint64_t k1 = rng() % (1 << w), k2 = rng() % (1 << w), k3 = rng() % (1 << w);
  // (a & k1) == k2 && a < k3  — enumerate all 64 values of a.
  ExprRef f = arena.bAnd(
      arena.eq(arena.bvAnd(a, arena.bvConst(w, k1)), arena.bvConst(w, k2)),
      arena.ult(a, arena.bvConst(w, k3)));
  bool expected = false;
  for (uint64_t v = 0; v < (1 << w); ++v) {
    if ((v & k1) == k2 && v < k3) {
      expected = true;
      break;
    }
  }
  EXPECT_EQ(isSatisfiable(arena, f), expected)
      << "k1=" << k1 << " k2=" << k2 << " k3=" << k3;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtBruteForceTest, ::testing::Range(1, 41));

// ---------------------------------------------------------------------------
// probeConstant: the arena-const probe behind the parallel check engine.

TEST_F(SmtTest, ProbeConstantProvesSemanticBvConstant) {
  // (x * 2) % 2 is always 0, but only the solver can see it.
  ExprRef e = arena.urem(arena.mul(x(), bv(8, 2)), bv(8, 2));
  ASSERT_FALSE(arena.isConst(e)) << "folder got smarter; pick a harder expr";
  ConstantProbe p = probeConstant(arena, e, 0);
  EXPECT_TRUE(p.constant);
  EXPECT_FALSE(p.notConstant);
  EXPECT_FALSE(p.timedOut);
  EXPECT_EQ(p.value.toUint64(), 0u);
}

TEST_F(SmtTest, ProbeConstantProvesSemanticBoolConstant) {
  // x % 8 < 8 is valid.
  ExprRef e = arena.ult(arena.urem(x(), bv(8, 8)), bv(8, 8));
  ASSERT_FALSE(arena.isConst(e));
  ConstantProbe p = probeConstant(arena, e, 0);
  EXPECT_TRUE(p.constant);
  EXPECT_TRUE(p.boolValue);

  // x % 8 >= 8 is unsat.
  ExprRef f = arena.ule(bv(8, 8), arena.urem(x(), bv(8, 8)));
  ConstantProbe q = probeConstant(arena, f, 0);
  EXPECT_TRUE(q.constant);
  EXPECT_FALSE(q.boolValue);
}

TEST_F(SmtTest, ProbeConstantRefutesNonConstants) {
  ConstantProbe p = probeConstant(arena, arena.eq(x(), bv(8, 3)), 0);
  EXPECT_TRUE(p.notConstant);
  EXPECT_FALSE(p.constant);
  ConstantProbe q = probeConstant(arena, arena.add(x(), bv(8, 1)), 0);
  EXPECT_TRUE(q.notConstant);
  EXPECT_FALSE(q.constant);
}

// probeConstant against the constant value within x's whole 8-bit domain,
// found by evaluating every assignment.
TEST_F(SmtTest, ProbeConstantAgreesWithConstantValueWithin) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 30; ++i) {
    // Random mask/compare shapes over one variable: some constant, some not.
    ExprRef e = arena.bvAnd(arena.bvOr(x(), bv(8, rng() & 0xFF)),
                            bv(8, rng() & 0xFF));
    expr::Evaluator ev(arena);
    ev.bindVar(x(), BitVec(8, 0));
    const BitVec first = ev.evaluateBv(e);
    bool constant = true;
    for (uint64_t v = 1; v < 256 && constant; ++v) {
      ev.bindVar(x(), BitVec(8, v));
      constant = ev.evaluateBv(e) == first;
    }
    ConstantProbe p = probeConstant(arena, e, 0);
    EXPECT_EQ(p.constant, constant) << "i=" << i;
    EXPECT_EQ(p.notConstant, !constant) << "i=" << i;
    if (p.constant) {
      EXPECT_EQ(p.value, first) << "i=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Shift semantics: the concrete evaluator and the bit-blasted solver must
// agree for every shift amount, including amounts at and beyond the width.

class ShiftAgreementTest : public SmtTest,
                           public ::testing::WithParamInterface<uint32_t> {};

TEST_P(ShiftAgreementTest, EvalAndSolverAgreeOnClampedShifts) {
  const uint32_t w = GetParam();
  std::mt19937_64 rng(w * 31337 + 1);
  ExprRef var = arena.var("s", w, SymbolClass::kDataPlane);
  std::vector<BitVec> amounts = {
      BitVec(64, 0), BitVec(64, 1), BitVec(64, w - 1), BitVec(64, w),
      BitVec(64, w + 1), BitVec(64, 64), BitVec(64, uint64_t{1} << 32),
      BitVec::one(128).shl(100)};
  for (const BitVec& amountBv : amounts) {
    uint32_t amount = clampShiftAmount(amountBv, w);
    for (bool left : {true, false}) {
      ExprRef shifted = left ? arena.shl(var, amount) : arena.lshr(var, amount);
      BitVec val(w, rng());
      BitVec direct = left ? val.shl(amount) : val.lshr(amount);

      // Concrete evaluator.
      expr::Evaluator ev(arena);
      ev.bindVar(var, val);
      EXPECT_EQ(ev.evaluateBv(shifted), direct)
          << "w=" << w << " amount=" << amount << " left=" << left;

      // Solver: under s == val, shifted != direct must be unsat.
      SmtSolver solver(arena);
      solver.assertExpr(arena.eq(var, arena.bvConst(val)));
      solver.assertExpr(arena.neq(shifted, arena.bvConst(direct)));
      EXPECT_EQ(solver.check(), CheckResult::kUnsat)
          << "w=" << w << " amount=" << amount << " left=" << left;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ShiftAgreementTest,
                         ::testing::Values(7u, 8u, 13u, 33u));

}  // namespace
}  // namespace flay::smt
