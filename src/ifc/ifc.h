#ifndef FLAY_IFC_IFC_H
#define FLAY_IFC_IFC_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "expr/arena.h"
#include "expr/substitute.h"
#include "flay/engine.h"
#include "ifc/policy.h"

namespace flay::ifc {

/// Verdict for one (label -> sink) flow.
enum class FlowStatus : uint8_t {
  kSecure,   ///< proved: no label-carrying input can change the observation
  kLeak,     ///< an input pair exists that changes the observation
  kUnknown,  ///< probe unsettled (budget/DAG limit) — treated as a leak
};

const char* toString(FlowStatus s);

struct FlowVerdict {
  std::string label;
  std::string sink;  ///< canonical sink field
  FlowStatus status = FlowStatus::kSecure;
  /// Labeled source fields structurally reachable in the specialized
  /// observation (sorted). Empty = the taint pass already proved kSecure.
  std::vector<std::string> sources;
  /// Declassifying tables whose annotations applied to this flow (sorted).
  std::vector<std::string> declassifiers;

  bool isViolation() const { return status != FlowStatus::kSecure; }
};

/// How the last recheck() was served — bookkeeping only; never part of the
/// rendered report, because memo-hit counts legitimately vary with the
/// service's check history while the verdicts may not.
struct IfcStats {
  size_t flows = 0;      ///< (label, sink) pairs in the policy
  size_t reused = 0;     ///< served by the per-flow memo, no query issued
  size_t queries = 0;    ///< executability queries sent to the check engine
  size_t cacheHits = 0;  ///< of those, answered by the engine's verdict memo
  size_t timeouts = 0;   ///< probes that exhausted their budget
};

/// One IFC pass over the current control-plane state.
struct IfcReport {
  /// Sorted by (sink, label) — the deterministic-output contract the
  /// --jobs equivalence check (tests/verdict_equiv.sh) diffs.
  std::vector<FlowVerdict> flows;
  IfcStats stats;

  size_t violations() const;
  /// Deterministic text form (stats excluded): one line per flow plus a
  /// violation count. Byte-identical across all engine settings.
  std::string render() const;
};

/// Information-flow engine: renders every potential source -> sink flow of
/// the policy as an executability query on the already-specialized program
/// and keeps the verdicts incrementally re-verified across control-plane
/// updates.
///
/// A flow (label L -> sink k) is checked by self-composition: rename every
/// L-labeled source symbol in the specialized observation of k (final value
/// V plus deliverability O = parser-accept && egress != drop) and ask the
/// semantics-check engine whether
///
///     H  &&  (O xor O'  ||  (O && O' && V != V'))
///
/// is satisfiable, where primes are the renamed copies and H conjoins, for
/// every `declassify T L` annotation, agreement on T's installed match
/// outcome (hit condition and action selector). UNSAT proves
/// noninterference modulo the declassified release — kSecure. The query
/// rides the constant-verdict hot path: CheckEngine parallel prefetch, its
/// expression-id verdict memo, and smt::ProbeSession warm sessions whose
/// clause groups are retired per "ifc.<sink>" scope when a sink's queries
/// are replaced.
///
/// Incrementality: per sink the engine tracks the control-plane placeholder
/// symbols its observation depends on; a recheck() compares their resolved
/// assignments (O(1) ExprRef equality each) and rebuilds queries only for
/// sinks an update actually touched — everything else reuses the memoized
/// verdict without rendering, hashing, or probing anything.
///
/// Attach to the owning service (service.attachAnalysis(engine)) to get a
/// recheck after every analyzed update round; lastReport() is then the
/// per-update IfcReport.
class IfcEngine : public flay::UpdateAnalysis {
 public:
  /// Validates `policy` against the service's program (throws
  /// std::invalid_argument) and pre-computes the flow skeletons. The
  /// service must outlive the engine.
  IfcEngine(flay::FlayService& service, IfcPolicy policy);

  /// Re-verifies every flow against the service's current control-plane
  /// state and returns (and stores) the report.
  IfcReport recheck();

  /// Rebuilds every query from the current state, bypassing the per-flow
  /// memo — the from-scratch oracle the incremental path is cross-checked
  /// against. The engine's verdict memo still serves repeated queries
  /// (verdicts are pure facts); what this discards is the incremental
  /// bookkeeping.
  IfcReport recheckFromScratch();

  /// flay::UpdateAnalysis: recheck on every analyzed update round.
  void onUpdateAnalyzed(const flay::UpdateVerdict& verdict) override;

  const IfcPolicy& policy() const { return policy_; }
  /// Report of the most recent recheck() (empty before the first).
  const IfcReport& lastReport() const { return lastReport_; }

 private:
  struct SinkState {
    std::string field;
    expr::ExprRef hermetic;  ///< finalState value (placeholders free)
    /// Control-plane placeholders the observation can depend on (this
    /// sink's value + the shared deliverability deps), deduplicated.
    std::vector<expr::ExprRef> cpSymbols;
    /// resolveSymbol() of each at the last recheck; empty before it.
    std::vector<expr::ExprRef> lastResolved;
    expr::ExprRef specializedValue;  ///< V under the last-seen assignment
    expr::ExprRef specializedObs;    ///< O under the last-seen assignment
    /// Flow indices (into flows_) checked at this sink.
    std::vector<size_t> flowIndices;
  };

  struct FlowState {
    FlowVerdict verdict;
    expr::ExprRef query;  ///< last query expr; null before first build
  };

  /// True when any tracked symbol's resolution changed; refreshes
  /// lastResolved as it compares.
  bool refreshResolved(SinkState& sink);
  /// Specializes `e` under the current assignment of `sink`'s tracked
  /// symbols (memo shared per recheck via `subst`).
  void bindResolved(const SinkState& sink, expr::Substitution& subst);
  /// Builds the self-composition query for one flow against the sink's
  /// current specialized observation. Fills verdict.sources/declassifiers.
  expr::ExprRef buildQuery(const SinkState& sink, FlowState& flow);
  /// Boolean equivalence helper (arena eq() is bit-vector only).
  expr::ExprRef iff(expr::ExprRef a, expr::ExprRef b);
  IfcReport runRecheck(bool fromScratch);

  flay::FlayService& service_;
  IfcPolicy policy_;
  expr::ExprRef parserAccept_;   ///< hermetic
  expr::ExprRef egressHermetic_;  ///< hermetic final sm.egress_spec
  std::vector<SinkState> sinks_;  ///< sorted by field
  std::vector<FlowState> flows_;  ///< sorted by (sink, label)
  /// label -> rename map (source symbol -> primed symbol), built lazily.
  std::map<std::string, std::vector<std::pair<expr::ExprRef, expr::ExprRef>>>
      renames_;
  IfcReport lastReport_;
};

}  // namespace flay::ifc

#endif  // FLAY_IFC_IFC_H
