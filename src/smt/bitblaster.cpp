#include "smt/bitblaster.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace flay::smt {

using expr::ExprKind;
using expr::ExprNode;
using expr::ExprRef;
using sat::Lit;

BitBlaster::BitBlaster(const expr::ExprArena& arena, sat::ClauseSink& sink)
    : arena_(arena), sink_(sink) {
  trueLit_ = Lit::make(sink_.newVar(), false);
  sink_.addUnit(trueLit_);
}

Lit BitBlaster::freshLit() { return Lit::make(sink_.newVar(), false); }

Lit BitBlaster::mkAnd(Lit a, Lit b) {
  if (a == constLit(false) || b == constLit(false)) return constLit(false);
  if (a == constLit(true)) return b;
  if (b == constLit(true)) return a;
  if (a == b) return a;
  if (a == ~b) return constLit(false);
  Lit c = freshLit();
  sink_.addClause({~a, ~b, c});
  sink_.addClause({a, ~c});
  sink_.addClause({b, ~c});
  return c;
}

Lit BitBlaster::mkOr(Lit a, Lit b) { return ~mkAnd(~a, ~b); }

Lit BitBlaster::mkXor(Lit a, Lit b) {
  if (a == constLit(false)) return b;
  if (b == constLit(false)) return a;
  if (a == constLit(true)) return ~b;
  if (b == constLit(true)) return ~a;
  if (a == b) return constLit(false);
  if (a == ~b) return constLit(true);
  Lit c = freshLit();
  sink_.addClause({~a, ~b, ~c});
  sink_.addClause({a, b, ~c});
  sink_.addClause({~a, b, c});
  sink_.addClause({a, ~b, c});
  return c;
}

Lit BitBlaster::mkMux(Lit s, Lit a, Lit b) {
  if (s == constLit(true)) return a;
  if (s == constLit(false)) return b;
  if (a == b) return a;
  Lit c = freshLit();
  sink_.addClause({~s, ~a, c});
  sink_.addClause({~s, a, ~c});
  sink_.addClause({s, ~b, c});
  sink_.addClause({s, b, ~c});
  return c;
}

Lit BitBlaster::mkAndReduce(const std::vector<Lit>& lits) {
  Lit acc = constLit(true);
  for (Lit l : lits) acc = mkAnd(acc, l);
  return acc;
}

std::vector<Lit> BitBlaster::addBits(const std::vector<Lit>& a,
                                     const std::vector<Lit>& b, Lit carryIn) {
  assert(a.size() == b.size());
  std::vector<Lit> sum(a.size(), constLit(false));
  Lit carry = carryIn;
  for (size_t i = 0; i < a.size(); ++i) {
    Lit axb = mkXor(a[i], b[i]);
    sum[i] = mkXor(axb, carry);
    // carryOut = (a & b) | (carry & (a ^ b))
    carry = mkOr(mkAnd(a[i], b[i]), mkAnd(carry, axb));
  }
  return sum;
}

std::vector<Lit> BitBlaster::negBits(const std::vector<Lit>& a) {
  std::vector<Lit> inverted;
  inverted.reserve(a.size());
  for (Lit l : a) inverted.push_back(~l);
  std::vector<Lit> zero(a.size(), constLit(false));
  return addBits(inverted, zero, constLit(true));
}

std::vector<Lit> BitBlaster::mulBits(const std::vector<Lit>& a,
                                     const std::vector<Lit>& b) {
  size_t w = a.size();
  std::vector<Lit> acc(w, constLit(false));
  for (size_t i = 0; i < w; ++i) {
    // Partial product: (a << i) masked by b[i].
    std::vector<Lit> pp(w, constLit(false));
    for (size_t j = 0; i + j < w; ++j) pp[i + j] = mkAnd(a[j], b[i]);
    acc = addBits(acc, pp, constLit(false));
  }
  return acc;
}

std::pair<std::vector<Lit>, std::vector<Lit>> BitBlaster::divremBits(
    const std::vector<Lit>& a, const std::vector<Lit>& b) {
  // Restoring division. SMT-LIB semantics for division by zero (q = all
  // ones, r = a) are patched in at the end with muxes on bIsZero.
  size_t w = a.size();
  std::vector<Lit> q(w, constLit(false));
  std::vector<Lit> rem(w, constLit(false));
  for (size_t i = w; i-- > 0;) {
    // rem = (rem << 1) | a[i]
    for (size_t j = w; j-- > 1;) rem[j] = rem[j - 1];
    rem[0] = a[i];
    // geq = rem >= b  <=>  !(rem < b)
    Lit geq = ~ultBits(rem, b);
    q[i] = geq;
    std::vector<Lit> diff = addBits(rem, negBits(b), constLit(false));
    for (size_t j = 0; j < w; ++j) rem[j] = mkMux(geq, diff[j], rem[j]);
  }
  std::vector<Lit> notB;
  notB.reserve(w);
  for (Lit l : b) notB.push_back(~l);
  Lit bIsZero = mkAndReduce(notB);
  for (size_t j = 0; j < w; ++j) {
    q[j] = mkMux(bIsZero, constLit(true), q[j]);
    rem[j] = mkMux(bIsZero, a[j], rem[j]);
  }
  return {q, rem};
}

Lit BitBlaster::ultBits(const std::vector<Lit>& a, const std::vector<Lit>& b) {
  // lt_i = (~a_i & b_i) | ((a_i xnor b_i) & lt_{i-1}), from LSB up.
  Lit lt = constLit(false);
  for (size_t i = 0; i < a.size(); ++i) {
    lt = mkOr(mkAnd(~a[i], b[i]), mkAnd(mkXnor(a[i], b[i]), lt));
  }
  return lt;
}

Lit BitBlaster::eqBits(const std::vector<Lit>& a, const std::vector<Lit>& b) {
  Lit acc = constLit(true);
  for (size_t i = 0; i < a.size(); ++i) acc = mkAnd(acc, mkXnor(a[i], b[i]));
  return acc;
}

void BitBlaster::enableIncremental(uint32_t permanentWatermark) {
  assert(bvMemo_.empty() && boolMemo_.empty() &&
         "enableIncremental must precede the first blast");
  incremental_ = true;
  permanentWatermark_ = permanentWatermark;
}

void BitBlaster::noteChild(ExprRef e) {
  if (incremental_ && !childFrames_.empty()) {
    childFrames_.back().push_back(e.id);
  }
}

uint32_t BitBlaster::beginNode(uint32_t myGroup, uint32_t* varBegin) {
  *varBegin = sink_.numVars();
  uint32_t prev = sink_.activeGroup();
  sink_.setActiveGroup(myGroup);
  childFrames_.emplace_back();
  return prev;
}

void BitBlaster::finishNode(ExprRef e, uint32_t varBegin, uint32_t myGroup,
                            uint32_t prevGroup) {
  sink_.setActiveGroup(prevGroup);
  NodeInfo info;
  info.varBegin = varBegin;
  info.varEnd = sink_.numVars();
  info.children = std::move(childFrames_.back());
  childFrames_.pop_back();
  std::sort(info.children.begin(), info.children.end());
  info.children.erase(
      std::unique(info.children.begin(), info.children.end()),
      info.children.end());
  if (myGroup != 0) info.groupDeps.push_back(myGroup);
  for (uint32_t c : info.children) {
    auto ci = nodeInfo_.find(c);
    if (ci == nodeInfo_.end()) continue;
    info.groupDeps.insert(info.groupDeps.end(), ci->second.groupDeps.begin(),
                          ci->second.groupDeps.end());
  }
  std::sort(info.groupDeps.begin(), info.groupDeps.end());
  info.groupDeps.erase(
      std::unique(info.groupDeps.begin(), info.groupDeps.end()),
      info.groupDeps.end());
  for (uint32_t g : info.groupDeps) groupNodes_[g].push_back(e.id);
  nodeInfo_[e.id] = std::move(info);
}

void BitBlaster::purgeGroup(uint32_t g) {
  auto it = groupNodes_.find(g);
  if (it == groupNodes_.end()) return;
  for (uint32_t id : it->second) {
    auto ni = nodeInfo_.find(id);
    if (ni == nodeInfo_.end()) continue;
    // A node re-blasted since it last appeared in this group's list carries
    // fresh (group-free or different-group) info; leave it alone.
    const auto& deps = ni->second.groupDeps;
    if (!std::binary_search(deps.begin(), deps.end(), g)) continue;
    nodeInfo_.erase(ni);
    bvMemo_.erase(id);
    boolMemo_.erase(id);
  }
  groupNodes_.erase(it);
  // Drop eqConst gates that were emitted into the retired group or built on
  // top of a node that just lost its encoding.
  for (auto eit = eqMemo_.begin(); eit != eqMemo_.end();) {
    std::vector<EqMemoEntry>& entries = eit->second;
    entries.erase(
        std::remove_if(entries.begin(), entries.end(),
                       [g](const EqMemoEntry& m) {
                         return std::binary_search(m.groupDeps.begin(),
                                                   m.groupDeps.end(), g);
                       }),
        entries.end());
    eit = entries.empty() ? eqMemo_.erase(eit) : std::next(eit);
  }
  // Cached cones may reference purged encodings; recompute lazily.
  ++blastEpoch_;
}

void BitBlaster::addConeRange(uint32_t begin, uint32_t end) {
  // The entry's own mask doubles as the dedup filter here (node var ranges
  // nest, so overlaps are common) and as the solver's propagation filter at
  // solve time (see coneMask()).
  std::vector<uint8_t>& mask = activeCone_->mask;
  for (uint32_t v = begin; v < end; ++v) {
    if (!mask[v]) {
      mask[v] = 1;
      activeCone_->vars.push_back(v);
    }
  }
}

void BitBlaster::collectCone(ExprRef e) {
  ConeCacheEntry& entry = coneCache_[e.id];
  activeCone_ = &entry;
  if (entry.epoch == blastEpoch_) return;
  entry.mask.assign(sink_.numVars(), 0);
  entry.vars.clear();
  entry.inputs.clear();
  ++visitEpoch_;
  visitStack_.clear();
  visitStack_.push_back(e.id);
  while (!visitStack_.empty()) {
    uint32_t id = visitStack_.back();
    visitStack_.pop_back();
    if (visitStamp_.size() <= id) visitStamp_.resize(id + 1, 0);
    if (visitStamp_[id] == visitEpoch_) continue;
    visitStamp_[id] = visitEpoch_;
    auto it = nodeInfo_.find(id);
    if (it == nodeInfo_.end()) continue;
    addConeRange(it->second.varBegin, it->second.varEnd);
    const ExprKind kind = arena_.node(ExprRef{id}).kind;
    if (kind == ExprKind::kVar || kind == ExprKind::kBoolVar) {
      // Var nodes have no children, so every variable they allocated is a
      // free input bit — the decision set of a split restricted solve.
      for (uint32_t v = it->second.varBegin; v < it->second.varEnd; ++v) {
        entry.inputs.push_back(v);
      }
    }
    for (uint32_t c : it->second.children) visitStack_.push_back(c);
  }
  entry.epoch = blastEpoch_;
}

void BitBlaster::extendCone(uint32_t fromVar) {
  // Only freshly allocated variables (eqConst gates) land here, so they
  // cannot already be in the cone; no dedup check needed. They join the
  // cached cone of the active expression, matching the memoized gates that
  // future probes of the same expression will reuse. Gates are forced by
  // propagation, never decided, so they extend vars (and the mask) but not
  // inputs.
  const uint32_t end = sink_.numVars();
  if (activeCone_->mask.size() < end) activeCone_->mask.resize(end, 0);
  for (uint32_t v = fromVar; v < end; ++v) {
    activeCone_->mask[v] = 1;
    activeCone_->vars.push_back(v);
  }
}

Lit BitBlaster::eqConst(ExprRef e, const BitVec& value) {
  std::vector<EqMemoEntry>* entries = nullptr;
  if (incremental_) {
    entries = &eqMemo_[e.id];
    for (const EqMemoEntry& m : *entries) {
      if (m.value == value) return m.lit;
    }
  }
  const std::vector<Lit>& bits = blastBv(e);
  Lit acc = constLit(true);
  for (size_t i = 0; i < bits.size(); ++i) {
    acc = mkAnd(acc, value.bit(static_cast<uint32_t>(i)) ? bits[i] : ~bits[i]);
  }
  if (entries) {
    EqMemoEntry m;
    m.value = value;
    m.lit = acc;
    auto ni = nodeInfo_.find(e.id);
    if (ni != nodeInfo_.end()) m.groupDeps = ni->second.groupDeps;
    uint32_t gateGroup = sink_.activeGroup();
    if (gateGroup != 0) m.groupDeps.push_back(gateGroup);
    std::sort(m.groupDeps.begin(), m.groupDeps.end());
    m.groupDeps.erase(std::unique(m.groupDeps.begin(), m.groupDeps.end()),
                      m.groupDeps.end());
    entries->push_back(std::move(m));
  }
  return acc;
}

const std::vector<Lit>& BitBlaster::blastBv(ExprRef e) {
  assert(!arena_.isBool(e) && "blastBv needs a bit-vector expression");
  noteChild(e);
  auto it = bvMemo_.find(e.id);
  if (it != bvMemo_.end()) return it->second;

  uint32_t varBegin = 0;
  uint32_t myGroup = 0;
  uint32_t prevGroup = 0;
  if (incremental_) {
    myGroup = groupFor(e);
    prevGroup = beginNode(myGroup, &varBegin);
  }
  const ExprNode& n = arena_.node(e);
  std::vector<Lit> bits;
  switch (n.kind) {
    case ExprKind::kBvConst: {
      const BitVec& v = arena_.constValue(e);
      bits.reserve(v.width());
      for (uint32_t i = 0; i < v.width(); ++i) bits.push_back(constLit(v.bit(i)));
      break;
    }
    case ExprKind::kVar: {
      bits.reserve(n.width);
      for (uint32_t i = 0; i < n.width; ++i) bits.push_back(freshLit());
      break;
    }
    case ExprKind::kAdd:
      bits = addBits(blastBv(ExprRef{n.a}), blastBv(ExprRef{n.b}),
                     constLit(false));
      break;
    case ExprKind::kSub: {
      std::vector<Lit> rhs = blastBv(ExprRef{n.b});
      for (auto& l : rhs) l = ~l;
      bits = addBits(blastBv(ExprRef{n.a}), rhs, constLit(true));
      break;
    }
    case ExprKind::kMul:
      bits = mulBits(blastBv(ExprRef{n.a}), blastBv(ExprRef{n.b}));
      break;
    case ExprKind::kUDiv:
      bits = divremBits(blastBv(ExprRef{n.a}), blastBv(ExprRef{n.b})).first;
      break;
    case ExprKind::kURem:
      bits = divremBits(blastBv(ExprRef{n.a}), blastBv(ExprRef{n.b})).second;
      break;
    case ExprKind::kAnd: {
      const auto& a = blastBv(ExprRef{n.a});
      const auto& b = blastBv(ExprRef{n.b});
      for (size_t i = 0; i < a.size(); ++i) bits.push_back(mkAnd(a[i], b[i]));
      break;
    }
    case ExprKind::kOr: {
      const auto& a = blastBv(ExprRef{n.a});
      const auto& b = blastBv(ExprRef{n.b});
      for (size_t i = 0; i < a.size(); ++i) bits.push_back(mkOr(a[i], b[i]));
      break;
    }
    case ExprKind::kXor: {
      const auto& a = blastBv(ExprRef{n.a});
      const auto& b = blastBv(ExprRef{n.b});
      for (size_t i = 0; i < a.size(); ++i) bits.push_back(mkXor(a[i], b[i]));
      break;
    }
    case ExprKind::kNot:
      for (Lit l : blastBv(ExprRef{n.a})) bits.push_back(~l);
      break;
    case ExprKind::kNeg:
      bits = negBits(blastBv(ExprRef{n.a}));
      break;
    case ExprKind::kShl: {
      const auto& a = blastBv(ExprRef{n.a});
      bits.assign(a.size(), constLit(false));
      for (size_t i = n.b; i < a.size(); ++i) bits[i] = a[i - n.b];
      break;
    }
    case ExprKind::kLShr: {
      const auto& a = blastBv(ExprRef{n.a});
      bits.assign(a.size(), constLit(false));
      for (size_t i = 0; i + n.b < a.size(); ++i) bits[i] = a[i + n.b];
      break;
    }
    case ExprKind::kExtract: {
      const auto& a = blastBv(ExprRef{n.a});
      bits.assign(a.begin() + n.c, a.begin() + n.b + 1);
      break;
    }
    case ExprKind::kZExt: {
      bits = blastBv(ExprRef{n.a});
      bits.resize(n.width, constLit(false));
      break;
    }
    case ExprKind::kConcat: {
      bits = blastBv(ExprRef{n.b});  // low part first (LSB order)
      const auto& hi = blastBv(ExprRef{n.a});
      bits.insert(bits.end(), hi.begin(), hi.end());
      break;
    }
    case ExprKind::kIte: {
      Lit cond = blastBool(ExprRef{n.a});
      const auto& t = blastBv(ExprRef{n.b});
      const auto& f = blastBv(ExprRef{n.c});
      for (size_t i = 0; i < t.size(); ++i) {
        bits.push_back(mkMux(cond, t[i], f[i]));
      }
      break;
    }
    default:
      throw std::logic_error("blastBv: unexpected node kind");
  }
  assert(bits.size() == n.width);
  if (incremental_) finishNode(e, varBegin, myGroup, prevGroup);
  return bvMemo_.emplace(e.id, std::move(bits)).first->second;
}

Lit BitBlaster::blastBool(ExprRef e) {
  assert(arena_.isBool(e) && "blastBool needs a boolean expression");
  noteChild(e);
  auto it = boolMemo_.find(e.id);
  if (it != boolMemo_.end()) return it->second;

  uint32_t varBegin = 0;
  uint32_t myGroup = 0;
  uint32_t prevGroup = 0;
  if (incremental_) {
    myGroup = groupFor(e);
    prevGroup = beginNode(myGroup, &varBegin);
  }
  const ExprNode& n = arena_.node(e);
  Lit result;
  switch (n.kind) {
    case ExprKind::kBoolConst:
      result = constLit(n.a == 1);
      break;
    case ExprKind::kBoolVar:
      result = freshLit();
      break;
    case ExprKind::kEq: {
      ExprRef a{n.a};
      if (arena_.isBool(a)) {
        result = mkXnor(blastBool(a), blastBool(ExprRef{n.b}));
      } else {
        result = eqBits(blastBv(a), blastBv(ExprRef{n.b}));
      }
      break;
    }
    case ExprKind::kUlt:
      result = ultBits(blastBv(ExprRef{n.a}), blastBv(ExprRef{n.b}));
      break;
    case ExprKind::kUle:
      result = ~ultBits(blastBv(ExprRef{n.b}), blastBv(ExprRef{n.a}));
      break;
    case ExprKind::kBAnd:
      result = mkAnd(blastBool(ExprRef{n.a}), blastBool(ExprRef{n.b}));
      break;
    case ExprKind::kBOr:
      result = mkOr(blastBool(ExprRef{n.a}), blastBool(ExprRef{n.b}));
      break;
    case ExprKind::kBNot:
      result = ~blastBool(ExprRef{n.a});
      break;
    case ExprKind::kIte:
      result = mkMux(blastBool(ExprRef{n.a}), blastBool(ExprRef{n.b}),
                     blastBool(ExprRef{n.c}));
      break;
    default:
      throw std::logic_error("blastBool: unexpected node kind");
  }
  if (incremental_) finishNode(e, varBegin, myGroup, prevGroup);
  boolMemo_.emplace(e.id, result);
  return result;
}

BitVec BitBlaster::bvModelValue(ExprRef e) const {
  const auto& bits = bvMemo_.at(e.id);
  BitVec v = BitVec::zero(static_cast<uint32_t>(bits.size()));
  for (size_t i = 0; i < bits.size(); ++i) {
    bool bit = sink_.modelValue(bits[i].var());
    if (bits[i].negated()) bit = !bit;
    if (bit) {
      v = v.bitOr(BitVec::one(v.width()).shl(static_cast<uint32_t>(i)));
    }
  }
  return v;
}

bool BitBlaster::boolModelValue(ExprRef e) const {
  Lit l = boolMemo_.at(e.id);
  bool bit = sink_.modelValue(l.var());
  return l.negated() ? !bit : bit;
}

}  // namespace flay::smt
