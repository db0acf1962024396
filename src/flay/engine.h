#ifndef FLAY_FLAY_ENGINE_H
#define FLAY_FLAY_ENGINE_H

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <set>

#include "flay/check_engine.h"
#include "flay/encoder.h"
#include "flay/symbolic_executor.h"
#include "runtime/device_config.h"

namespace flay::flay {

struct FlayOptions {
  AnalysisOptions analysis;
  EncoderOptions encoder;
  /// Ablation knob: when false, every update re-specializes EVERY program
  /// point instead of only the tainted ones. Quantifies the incrementality
  /// claim of §2 (see bench_ablation_taint).
  bool useTaintMap = true;
};

/// Verdict for one control-plane update (or batch), mirroring Fig. 2: the
/// update is installed either way; `needsRecompilation` says whether the
/// specialized program implementation must be recompiled first.
///
/// Two levels of change are distinguished, following §2's observation that
/// "many control-plane entries just increase the likelihood for an already
/// existing data-plane program path to be taken":
///  - expressionsChanged: some annotation's specialized expression differs
///    (e.g. a new route widens a hit condition). Cheap to detect, frequent.
///  - needsRecompilation: some specialization *decision* flipped — a value
///    stopped being constant, a branch became (un)reachable, a table's
///    reachable-action set or key shape changed. Only these force the
///    device compiler to run.
struct UpdateVerdict {
  bool expressionsChanged = false;
  bool needsRecompilation = false;
  /// Program points whose specialized expression changed.
  std::vector<uint32_t> changedPoints;
  /// Components (tables, parser states) needing recompilation.
  std::set<std::string> changedComponents;
  /// Pure analysis time (excluding config mutation).
  std::chrono::microseconds analysisTime{0};
  /// True if any touched table fell back to the over-approximate encoding.
  bool overapproximated = false;
};

/// Tuning knobs for the streaming bulk-load path (FlayService::applyStream).
struct BulkLoadOptions {
  /// Updates pulled from the source per analysis chunk. The analysis (and
  /// the verdict streamed to the caller) is amortized over a chunk, and the
  /// loader's transient state is bounded by the chunk, so a million-entry
  /// stream never needs to be materialized.
  size_t chunkSize = 4096;
  /// Collect the successfully applied updates of each chunk into
  /// BulkChunkVerdict::appliedUpdates (for journaling / device forwarding).
  /// Off by default: collection is the one per-chunk cost that scales with
  /// the chunk contents.
  bool collectApplied = false;
};

/// Verdict streamed out after each bulk-load chunk.
struct BulkChunkVerdict {
  size_t chunkIndex = 0;
  size_t updates = 0;   ///< updates consumed from the source in this chunk
  size_t applied = 0;   ///< installed into the config
  size_t rejected = 0;  ///< invalid for the current state; skipped
  /// Analysis verdict over the chunk's applied updates.
  UpdateVerdict verdict;
  /// First-update-pulled to verdict-ready latency for this chunk.
  uint64_t verdictLatencyUs = 0;
  /// Successfully applied updates (only with BulkLoadOptions::collectApplied).
  std::vector<runtime::Update> appliedUpdates;
};

/// Aggregate outcome of one bulk load.
struct BulkLoadReport {
  uint64_t updates = 0;  ///< pulled from the source
  uint64_t applied = 0;  ///< installed into the config
  uint64_t rejected = 0;
  /// Always 0 (every applied update is analyzed); perfbench/main.cpp still
  /// reads it.
  uint64_t bypassed = 0;
  size_t chunks = 0;
  bool expressionsChanged = false;
  bool needsRecompilation = false;
  bool overapproximated = false;
  std::set<std::string> changedComponents;
};

/// Pull-based update stream: returns updates until exhausted (nullopt).
using UpdateSource = std::function<std::optional<runtime::Update>()>;
/// Invoked after each chunk's analysis with its streamed verdict.
using BulkChunkCallback = std::function<void(const BulkChunkVerdict&)>;

/// A secondary analysis product riding the incremental update hot path.
/// Implementations (e.g. ifc::IfcEngine) are attached to a FlayService and
/// get called after every analyzed update round — applyUpdate, applyBatch,
/// each bulk chunk, respecializeAll — on the applying thread, after the
/// service has finished its own check-engine work for the round. restore()
/// fires with a default verdict: the state changed but no round ran.
class UpdateAnalysis {
 public:
  virtual ~UpdateAnalysis() = default;
  virtual void onUpdateAnalyzed(const UpdateVerdict& verdict) = 0;
};

/// Opaque value-copy of everything applyUpdate()/applyBatch() mutate: the
/// device config, the control-plane assignment, the per-point specialized
/// expressions, and the change-detection digests. ExprRefs point into the
/// owning service's arena — which is append-only hash-consing, so they stay
/// valid across later updates — meaning a snapshot is only usable with the
/// service that produced it. This is the transactional-rollback primitive
/// of the fault-tolerant controller.
struct ServiceSnapshot {
  runtime::DeviceConfig config;
  std::map<expr::ExprRef, expr::ExprRef> bindings;
  std::vector<std::string> pointDigests;
  std::map<std::string, std::string> tableDigests;
  /// analysis_.annotations.point(id).specialized, indexed by point id.
  std::vector<expr::ExprRef> specialized;
};

/// The Flay service: owns the device's control-plane state, runs the
/// one-time data-plane analysis, and processes control-plane updates
/// incrementally through taint lookup + substitution + O(1) change checks.
class FlayService {
 public:
  explicit FlayService(const p4::CheckedProgram& checked,
                       FlayOptions options = {});

  /// The managed control-plane state. Mutate only through applyUpdate() /
  /// applyBatch() so the analysis stays in sync.
  const runtime::DeviceConfig& config() const { return *config_; }

  /// Applies one update and re-analyzes the tainted program points.
  /// Throws std::invalid_argument for malformed updates (nothing changes).
  UpdateVerdict applyUpdate(const runtime::Update& update);

  /// Applies a burst of updates, analyzing each object once at the end —
  /// the §4.2 scenario of 1000 fuzzer updates processed in under a second.
  UpdateVerdict applyBatch(const std::vector<runtime::Update>& updates);

  /// Streaming bulk load: pulls updates from `source` until exhausted,
  /// applying them in chunks of options.chunkSize and analyzing each chunk
  /// once (taint closure, re-encoding and substitution amortized over the
  /// chunk, not paid per update). Rejected updates (std::invalid_argument)
  /// are counted and skipped — the same contract as replaying the stream
  /// through applyUpdate() and skipping rejections, to which this path is
  /// digest-identical. Memory stays bounded by the chunk, and per-chunk
  /// verdicts stream out through `cb`.
  BulkLoadReport applyStream(const UpdateSource& source,
                             const BulkLoadOptions& options = {},
                             const BulkChunkCallback& cb = {});
  /// Convenience wrapper over applyStream for an in-memory batch.
  BulkLoadReport bulkLoad(const std::vector<runtime::Update>& updates,
                          const BulkLoadOptions& options = {},
                          const BulkChunkCallback& cb = {});

  /// Process-independent digest of the full update-visible state: the
  /// config (entries with ids and allocator positions, value sets,
  /// profiles) plus every specialized program-point expression hashed
  /// canonically (expr::CanonicalHasher). Two services with equal digests are in observably
  /// identical states — the parity contract between the bulk-load path and
  /// a sequential replay, and the crashtest's recovery check.
  std::string stateDigest() const;

  /// Re-specializes every annotation from the current config (used once at
  /// startup and after a semantics-changing batch has been recompiled).
  void respecializeAll();

  /// Captures the current update-visible state for later restore().
  ServiceSnapshot snapshot() const;
  /// Restores exactly the state captured by snapshot(), undoing every
  /// update applied in between. The snapshot must have been produced by
  /// this service (its ExprRefs index this service's arena).
  void restore(const ServiceSnapshot& snap);
  /// Replaces the managed config wholesale and re-derives the analysis
  /// from it (crash recovery: checkpoint load + journal replay). `config`
  /// must be built against the same checked program.
  void adoptConfig(runtime::DeviceConfig config);

  const AnalysisResult& analysis() const { return analysis_; }
  expr::ExprArena& arena() { return *arena_; }
  const p4::CheckedProgram& checkedProgram() const { return checked_; }

  /// The semantics-check engine the specializer asks for verdicts. Owned
  /// here so its verdict memo and warm sessions live across specializer runs
  /// (that persistence is where memo hits come from); analyzeObjects()
  /// retires the warm clause groups of components whose specialized
  /// expressions changed.
  CheckEngine& checkEngine() { return *checkEngine_; }

  /// Current specialized expression of a program point.
  expr::ExprRef specialized(uint32_t pointId) const {
    return analysis_.annotations.point(pointId).specialized;
  }

  /// Current control-plane assignment of a placeholder symbol, fully
  /// specialized; returns the symbol itself when it is free
  /// (over-approximated or never bound).
  expr::ExprRef resolveSymbol(expr::ExprRef symbolExpr) const;

  /// The shape of a table's current state under this service's
  /// over-approximation threshold (see flay::tableShape).
  TableShape tableShape(const std::string& qualified) const {
    return flay::tableShape(config_->table(qualified),
                            options_.encoder.overapproxThreshold);
  }

  /// Attaches a secondary analysis to the update hot path: it is notified
  /// after every analyzed round (and after restore()), so its products stay
  /// re-verified on the same incremental cadence as the constant verdicts.
  /// The service keeps the analysis alive; attach order is notify order.
  void attachAnalysis(std::shared_ptr<UpdateAnalysis> analysis) {
    analyses_.push_back(std::move(analysis));
  }

  /// Time spent in the one-time data-plane analysis.
  std::chrono::microseconds dataPlaneAnalysisTime() const {
    return analysis_.analysisTime;
  }
  /// Time spent preprocessing (initial whole-program specialization).
  std::chrono::microseconds preprocessTime() const { return preprocessTime_; }

 private:
  /// Recomputes bindings for `objects` and re-specializes tainted points.
  UpdateVerdict analyzeObjects(const std::set<std::string>& objects);
  void notifyAnalyses(const UpdateVerdict& verdict) {
    for (const auto& a : analyses_) a->onUpdateAnalyzed(verdict);
  }
  /// Re-encodes one object under the round's `assignment` and binds its new
  /// values into both the assignment and bindings_.
  void rebindObject(const std::string& object, expr::Substitution& assignment,
                    bool* overapproximated);
  /// bindings_ as a substitution; its keys are the placeholders' ExprRefs,
  /// so building it interns nothing.
  expr::Substitution currentAssignment() const;
  /// Expands a set of updated objects with every object whose encoding
  /// depends on them (tables keying on fields other tables write or backed
  /// by an action profile), in program order so upstream bindings resolve
  /// first. Per-object closures are memoized — the dependency graph is built
  /// once and never mutated — so a batch pays a set union, not a graph
  /// re-walk.
  std::vector<std::string> dependencyClosure(
      const std::set<std::string>& objects);
  /// Memoized transitive dependents of one object (including itself).
  const std::vector<std::string>& closureOf(const std::string& object);
  void buildObjectDependencies();
  /// The specialization decision a point's expression currently supports:
  /// "" for unknown/non-constant, else a rendering of the constant.
  std::string pointDigest(expr::ExprRef specialized) const;
  /// Rendering of tableShape(): the recompile-level digest of a table.
  std::string tableDigest(const std::string& qualified) const;

  const p4::CheckedProgram& checked_;
  FlayOptions options_;
  std::unique_ptr<expr::ExprArena> arena_;
  AnalysisResult analysis_;
  std::unique_ptr<runtime::DeviceConfig> config_;
  std::unique_ptr<ControlPlaneEncoder> encoder_;
  std::unique_ptr<CheckEngine> checkEngine_;
  /// Current control-plane assignment: placeholder -> value (absent =
  /// free). Values are fully resolved: they contain no placeholders that
  /// have bindings themselves.
  std::map<expr::ExprRef, expr::ExprRef> bindings_;
  /// object -> objects whose encoding reads it: tables whose keys mention
  /// its placeholders, or that its action profile backs.
  std::map<std::string, std::set<std::string>> objectDependents_;
  /// object -> position in program order (value sets, then tables), for
  /// closure order.
  std::map<std::string, size_t> objectOrderIndex_;
  /// Memoized per-object transitive closures (the graph is immutable).
  std::map<std::string, std::vector<std::string>> closureCache_;
  /// Decision digests for change detection at the recompile level.
  std::vector<std::string> pointDigests_;
  std::map<std::string, std::string> tableDigests_;
  /// Attached secondary analyses (ifc::IfcEngine), notified per round.
  std::vector<std::shared_ptr<UpdateAnalysis>> analyses_;
  std::chrono::microseconds preprocessTime_{0};
};

}  // namespace flay::flay

#endif  // FLAY_FLAY_ENGINE_H
