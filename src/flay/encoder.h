#ifndef FLAY_FLAY_ENCODER_H
#define FLAY_FLAY_ENCODER_H

#include <string>
#include <vector>

#include "expr/substitute.h"
#include "flay/symbolic_executor.h"
#include "runtime/device_config.h"

namespace flay::flay {

/// A control-plane assignment: `symbol := value`. A binding whose value is
/// the null ExprRef means "leave the placeholder free" (over-approximation).
struct Binding {
  expr::ExprRef symbol;
  expr::ExprRef value;
};

struct EncoderOptions {
  /// Entry count beyond which a table's match logic is over-approximated
  /// (§4.1: "Once a certain threshold of entries (e.g., 100) has been
  /// reached, we overapproximate").
  size_t overapproxThreshold = 100;
};

/// The properties of a table's runtime state that specialization decisions
/// key on: the specializer prunes actions and tightens match kinds from it,
/// and FlayService renders it as the table's recompile-level digest, so a
/// change the specializer would act on is a change the digest sees.
struct TableShape {
  bool empty = true;
  std::string defaultAction;
  /// Actions that can execute, sorted and unique: the default action plus
  /// the actions of the installed entries that can win a lookup.
  std::vector<std::string> actions;
  /// Per key: no installed entry is masked on it (vacuously true when empty).
  std::vector<bool> exactable;
};

/// Derives a table's shape from TableState's counts, mirroring the encoder's
/// two regimes (§4.1). Above `overapproxThreshold` the encoding leaves hit
/// and action free, so every installed action counts as reachable — the
/// counts alone, O(actions + keys). At or below it, the actions come from
/// the normalized view (memoized per table version, so the encoder and
/// migration reuse it), so eclipsed entries' actions are pruned.
/// Key exactness always comes from the masked-entry counts: an entry masked
/// on a key can only be eclipsed by an entry masked on that key (a winner's
/// mask must be a subset of the covered entry's), so the normalized entries
/// are all exact-valued on a key exactly when the installed ones are.
TableShape tableShape(const runtime::TableState& table,
                      size_t overapproxThreshold);

/// Translates runtime state (installed entries, value-set members, default
/// actions) into control-plane assignments over the placeholders the
/// symbolic executor introduced — the "control-plane assignments" box of
/// Fig. 4. Implements both the precise and the over-approximate encodings.
class ControlPlaneEncoder {
 public:
  ControlPlaneEncoder(expr::ExprArena& arena, const AnalysisResult& analysis,
                      EncoderOptions options = {})
      : arena_(arena), analysis_(analysis), options_(options) {}

  /// Encodes one table's current state. Sets *overapproximated when the
  /// normalized entry count exceeded the threshold. The precise encoding
  /// matches on the keys with `assignment` applied, so a chained table (keys
  /// on metadata an upstream table's action writes) comes back resolved
  /// against the upstream bindings.
  std::vector<Binding> encodeTable(
      const TableInfo& info, const runtime::TableState& table,
      const runtime::DeviceConfig& config, bool* overapproximated = nullptr,
      expr::Substitution* assignment = nullptr) const;

  /// Encodes one value set; produces a binding per use site.
  std::vector<Binding> encodeValueSet(
      const std::string& qualified,
      const runtime::ValueSetState& valueSet) const;

 private:
  expr::ExprRef entryCondition(const std::vector<expr::ExprRef>& keys,
                               const runtime::TableEntry& entry) const;

  expr::ExprArena& arena_;
  const AnalysisResult& analysis_;
  EncoderOptions options_;
};

}  // namespace flay::flay

#endif  // FLAY_FLAY_ENCODER_H
