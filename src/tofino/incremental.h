#ifndef FLAY_TOFINO_INCREMENTAL_H
#define FLAY_TOFINO_INCREMENTAL_H

#include <map>
#include <set>

#include "tofino/compiler.h"

namespace flay::tofino {

/// Prototype of the paper's first future-work direction (§6): a device
/// compiler that does NOT treat the program as a monolithic unit. After a
/// full baseline compile, `incrementalCompile` re-places only the units
/// belonging to changed components (plus any unit whose constraints broke),
/// pinning everything else to its previous stage. Placement cost then
/// scales with the size of the change, not the program.
class IncrementalPipelineCompiler {
 public:
  explicit IncrementalPipelineCompiler(PipelineModel model = {},
                                       CompilerOptions options = {})
      : full_(model, options), model_(model) {}

  /// Whole-program compile; establishes the pinned baseline placement.
  CompileResult fullCompile(const p4::CheckedProgram& checked);

  /// Recompiles after a change confined to `changedComponents` (qualified
  /// unit names, e.g. "Ingress.fwd"). Units absent from the baseline (newly
  /// appearing after respecialization) are also re-placed. Falls back to a
  /// full compile when pinning is infeasible.
  CompileResult incrementalCompile(const p4::CheckedProgram& checked,
                                   const std::set<std::string>& changed);

  /// Units re-placed by the last incrementalCompile call.
  size_t lastReplacedUnits() const { return lastReplaced_; }
  bool lastFellBackToFull() const { return lastFullFallback_; }

 private:
  PipelineCompiler full_;
  PipelineModel model_;
  std::map<std::string, uint32_t> baseline_;  // unit name -> stage (1-based)
  size_t lastReplaced_ = 0;
  bool lastFullFallback_ = false;
};

}  // namespace flay::tofino

#endif  // FLAY_TOFINO_INCREMENTAL_H
