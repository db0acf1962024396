#ifndef FLAY_SMT_BITBLASTER_H
#define FLAY_SMT_BITBLASTER_H

#include <span>
#include <unordered_map>
#include <vector>

#include "expr/arena.h"
#include "sat/solver.h"

namespace flay::smt {

/// Tseitin-encodes QF_BV expressions into CNF over a sat::ClauseSink (a
/// plain per-probe Solver or an incremental SolverSession). Bit-vector nodes
/// become vectors of literals (LSB first); boolean nodes become single
/// literals. Hash-consing in the arena means shared subexpressions are
/// encoded exactly once.
///
/// Incremental mode (enableIncremental) additionally tracks, per blasted
/// node: the SAT-variable range its encoding allocated, the child nodes it
/// referenced, and the transitive set of retirable clause groups its gates
/// were emitted into. That bookkeeping supports:
///  - delta CNF: a re-probe of an unchanged expression is a pure memo hit —
///    zero new clauses;
///  - cone-of-influence collection (collectCone/extendCone) feeding
///    Solver::solveRestricted, so a warm session decides only over the
///    probe's support instead of every variable it has ever allocated;
///  - purgeGroup: when a clause group is retired, every memo entry whose
///    encoding transitively used that group is dropped, because its gate
///    variables are now unconstrained (a stale memo hit would manufacture
///    spurious "not constant" answers).
///
/// Group routing policy: nodes with id below the permanent watermark encode
/// into group 0 (unguarded, never retired); newer nodes encode into the
/// current group set by the caller. Arena interning orders children before
/// parents, so a permanent node can only reference permanent nodes, and
/// permanent memo entries are valid for the life of the session.
class BitBlaster {
 public:
  BitBlaster(const expr::ExprArena& arena, sat::ClauseSink& sink);

  /// Literal equisatisfiable with the boolean expression `e`.
  sat::Lit blastBool(expr::ExprRef e);

  /// Bits (LSB first) of the bit-vector expression `e`.
  const std::vector<sat::Lit>& blastBv(expr::ExprRef e);

  /// Reads the value of a bit-vector expression out of the solver model
  /// after a kSat answer. The expression must have been blasted.
  BitVec bvModelValue(expr::ExprRef e) const;
  bool boolModelValue(expr::ExprRef e) const;

  /// Literal equisatisfiable with `e == value`, built directly at the CNF
  /// level. This is the arena-free alternative to interning an eq node:
  /// constantness probes on worker threads compare against candidate model
  /// values without ever mutating the (shared, not thread-safe) arena.
  /// In incremental mode the gate is memoized per (expression, value) — a
  /// steady-state re-probe therefore emits no clauses at all, which is what
  /// lets the solver keep its assumption trail warm between probes. Memo
  /// entries record the clause groups they depend on and are dropped by
  /// purgeGroup alongside the node memos.
  sat::Lit eqConst(expr::ExprRef e, const BitVec& value);

  // -- Incremental-session support ------------------------------------------

  /// Turns on per-node range/dependency tracking. Must be called before the
  /// first blast; nodes with id < `permanentWatermark` route to group 0.
  void enableIncremental(uint32_t permanentWatermark);
  bool incremental() const { return incremental_; }

  /// Raises the permanent watermark (it never lowers): nodes interned before
  /// the current update round are shared program structure and their
  /// encoding should survive scope retirement.
  void setPermanentWatermark(uint32_t nodeId) {
    if (nodeId > permanentWatermark_) permanentWatermark_ = nodeId;
  }

  /// Group for nodes at or above the watermark; the caller (ProbeSession)
  /// points this at the probing scope's group before each probe.
  void setCurrentGroup(uint32_t g) { currentGroup_ = g; }

  /// Drops every memo entry whose encoding transitively emitted into `g`.
  /// Required on retirement: the group's gate variables become unconstrained.
  void purgeGroup(uint32_t g);

  /// Makes `cone()` the transitive support variables of `e`'s encoding. `e`
  /// must have been blasted in incremental mode. Cones are cached per
  /// expression and invalidated whenever a group is purged, so a re-probe of
  /// an unchanged expression is O(1) here too.
  void collectCone(expr::ExprRef e);
  /// Adds every variable allocated at or after `fromVar` to the cone (used
  /// for the eqConst gates layered on top of a blasted expression; the range
  /// only ever covers freshly allocated variables, which cannot already be in
  /// the cone).
  void extendCone(uint32_t fromVar);
  std::span<const uint32_t> cone() const {
    return activeCone_ ? std::span<const uint32_t>(activeCone_->vars)
                       : std::span<const uint32_t>();
  }
  /// The free-variable subset of cone(): the bits of kVar/kBoolVar nodes.
  /// Feeding this as the decision set of a split solveRestricted answers the
  /// probe with O(inputs) decisions — every other cone variable is a Tseitin
  /// gate output that propagation forces once the inputs are assigned.
  std::span<const uint32_t> decisionCone() const {
    return activeCone_ ? std::span<const uint32_t>(activeCone_->inputs)
                       : std::span<const uint32_t>();
  }
  /// Byte-per-variable membership mask over cone() (variables past the end
  /// are outside the cone). Persisted with the cone cache entry so a warm
  /// re-probe hands the solver its propagation filter in O(1) instead of
  /// re-stamping O(cone) marks per solve.
  std::span<const uint8_t> coneMask() const {
    return activeCone_ ? std::span<const uint8_t>(activeCone_->mask)
                       : std::span<const uint8_t>();
  }

 private:
  struct NodeInfo {
    uint32_t varBegin = 0;  // [varBegin, varEnd): vars allocated while this
    uint32_t varEnd = 0;    // node (and nested fresh children) blasted
    std::vector<uint32_t> children;   // node ids referenced (deduped)
    std::vector<uint32_t> groupDeps;  // retirable groups, transitive (sorted)
  };

  sat::Lit freshLit();
  sat::Lit constLit(bool value) const { return value ? trueLit_ : ~trueLit_; }
  sat::Lit mkAnd(sat::Lit a, sat::Lit b);
  sat::Lit mkOr(sat::Lit a, sat::Lit b);
  sat::Lit mkXor(sat::Lit a, sat::Lit b);
  sat::Lit mkXnor(sat::Lit a, sat::Lit b) { return ~mkXor(a, b); }
  /// c = s ? a : b
  sat::Lit mkMux(sat::Lit s, sat::Lit a, sat::Lit b);
  sat::Lit mkAndReduce(const std::vector<sat::Lit>& lits);

  std::vector<sat::Lit> addBits(const std::vector<sat::Lit>& a,
                                const std::vector<sat::Lit>& b,
                                sat::Lit carryIn);
  std::vector<sat::Lit> negBits(const std::vector<sat::Lit>& a);
  std::vector<sat::Lit> mulBits(const std::vector<sat::Lit>& a,
                                const std::vector<sat::Lit>& b);
  /// Restoring division; returns {quotient, remainder}.
  std::pair<std::vector<sat::Lit>, std::vector<sat::Lit>> divremBits(
      const std::vector<sat::Lit>& a, const std::vector<sat::Lit>& b);
  sat::Lit ultBits(const std::vector<sat::Lit>& a,
                   const std::vector<sat::Lit>& b);
  sat::Lit eqBits(const std::vector<sat::Lit>& a,
                  const std::vector<sat::Lit>& b);

  uint32_t groupFor(expr::ExprRef e) const {
    return e.id < permanentWatermark_ ? 0 : currentGroup_;
  }
  void noteChild(expr::ExprRef e);
  /// Returns the previous active group; pairs with finishNode.
  uint32_t beginNode(uint32_t myGroup, uint32_t* varBegin);
  void finishNode(expr::ExprRef e, uint32_t varBegin, uint32_t myGroup,
                  uint32_t prevGroup);
  void addConeRange(uint32_t begin, uint32_t end);

  struct EqMemoEntry {
    BitVec value;
    sat::Lit lit;
    std::vector<uint32_t> groupDeps;  // sorted; gate group + base expr deps
  };
  struct ConeCacheEntry {
    uint64_t epoch = 0;  // valid iff == blastEpoch_
    std::vector<uint32_t> vars;    // full support: inputs + gate outputs
    std::vector<uint32_t> inputs;  // free bits only (kVar/kBoolVar nodes)
    std::vector<uint8_t> mask;     // var -> nonzero iff in vars; doubles as
                                   // the solver's O(1) propagation filter
  };

  const expr::ExprArena& arena_;
  sat::ClauseSink& sink_;
  sat::Lit trueLit_;
  std::unordered_map<uint32_t, std::vector<sat::Lit>> bvMemo_;
  std::unordered_map<uint32_t, sat::Lit> boolMemo_;
  std::unordered_map<uint32_t, std::vector<EqMemoEntry>> eqMemo_;

  bool incremental_ = false;
  uint32_t permanentWatermark_ = 0;
  uint32_t currentGroup_ = 0;
  std::unordered_map<uint32_t, NodeInfo> nodeInfo_;
  std::unordered_map<uint32_t, std::vector<uint32_t>> groupNodes_;
  std::vector<std::vector<uint32_t>> childFrames_;

  // Cone cache: one support-variable list per probed expression, valid until
  // the next purgeGroup (which bumps blastEpoch_). activeCone_ points at the
  // entry selected by the last collectCone call; unordered_map node stability
  // keeps the pointer valid across inserts.
  std::unordered_map<uint32_t, ConeCacheEntry> coneCache_;
  ConeCacheEntry* activeCone_ = nullptr;
  uint64_t blastEpoch_ = 1;

  // Cone-collection scratch, reused across rebuilds of a cache entry.
  std::vector<uint32_t> visitStamp_;  // node id -> last visit epoch
  uint32_t visitEpoch_ = 0;
  std::vector<uint32_t> visitStack_;
};

}  // namespace flay::smt

#endif  // FLAY_SMT_BITBLASTER_H
