#include "expr/canonical.h"

#include <algorithm>

namespace flay::expr {

namespace {

/// MurmurHash3's 64-bit finalizer: a bijection with full avalanche.
uint64_t fmix(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

/// Absorbs 64-bit words into two lanes that start and mix differently, so
/// two inputs alias only if they collide in both lanes at once.
class Builder {
 public:
  Builder& word(uint64_t w) {
    hi_ = fmix(hi_ ^ w);
    lo_ = fmix(((lo_ << 23) | (lo_ >> 41)) ^ (w * 0x9e3779b97f4a7c15ull));
    return *this;
  }
  Builder& hash(const Hash128& h) { return word(h.hi).word(h.lo); }
  /// Length-prefixed, eight bytes per word, independent of byte order.
  Builder& bytes(std::string_view s) {
    word(s.size());
    for (size_t i = 0; i < s.size(); i += 8) {
      uint64_t w = 0;
      for (size_t j = 0; j < 8 && i + j < s.size(); ++j) {
        w |= static_cast<uint64_t>(static_cast<unsigned char>(s[i + j]))
             << (8 * j);
      }
      word(w);
    }
    return *this;
  }
  Hash128 done() const { return {fmix(hi_), fmix(lo_ + 1)}; }

 private:
  uint64_t hi_ = 0x6a09e667f3bcc908ull;
  uint64_t lo_ = 0xbb67ae8584caa73bull;
};

}  // namespace

std::string Hash128::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[i] = digits[(hi >> (60 - 4 * i)) & 0xf];
    out[16 + i] = digits[(lo >> (60 - 4 * i)) & 0xf];
  }
  return out;
}

Hash128 CanonicalHasher::hash(ExprRef r) {
  auto it = memo_.find(r.id);
  if (it != memo_.end()) return it->second;
  Hash128 h = r.valid() ? hashNode(r) : Hash128{};
  memo_.emplace(r.id, h);
  return h;
}

void CanonicalHasher::flatten(ExprRef r, ExprKind kind,
                              std::vector<Hash128>* out) {
  const ExprNode& n = arena_.node(r);
  if (n.kind != kind) {
    out->push_back(hash(r));
    return;
  }
  flatten(ExprRef{n.a}, kind, out);
  flatten(ExprRef{n.b}, kind, out);
}

Hash128 CanonicalHasher::hashNode(ExprRef r) {
  const ExprNode& n = arena_.node(r);
  using K = ExprKind;
  ExprRef a{n.a}, b{n.b}, c{n.c};
  Builder h;
  h.word((static_cast<uint64_t>(n.kind) << 32) | n.width);
  switch (n.kind) {
    case K::kBvConst:
      h.bytes(arena_.constValue(r).toHexString());
      break;
    case K::kBoolConst:
      h.word(n.a);
      break;
    case K::kVar:
    case K::kBoolVar:
      h.bytes(arena_.symbolInfo(n.a).name);
      break;
    case K::kBAnd:
    case K::kBOr: {
      std::vector<Hash128> ops;
      flatten(r, n.kind, &ops);
      std::sort(ops.begin(), ops.end());
      h.word(ops.size());
      for (const Hash128& o : ops) h.hash(o);
      break;
    }
    case K::kEq: {
      // eq is commutative too, and the arena orders its operands by id.
      Hash128 x = hash(a), y = hash(b);
      if (y < x) std::swap(x, y);
      h.hash(x).hash(y);
      break;
    }
    case K::kAdd:
    case K::kSub:
    case K::kMul:
    case K::kUDiv:
    case K::kURem:
    case K::kAnd:
    case K::kOr:
    case K::kXor:
    case K::kConcat:
    case K::kUlt:
    case K::kUle:
      h.hash(hash(a)).hash(hash(b));
      break;
    case K::kNot:
    case K::kNeg:
    case K::kZExt:  // the new width is in the header word
    case K::kBNot:
      h.hash(hash(a));
      break;
    case K::kShl:
    case K::kLShr:
      h.hash(hash(a)).word(n.b);
      break;
    case K::kExtract:
      h.hash(hash(a)).word(n.b).word(n.c);
      break;
    case K::kIte:
      h.hash(hash(a)).hash(hash(b)).hash(hash(c));
      break;
  }
  return h.done();
}

}  // namespace flay::expr
