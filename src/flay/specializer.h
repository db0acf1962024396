#ifndef FLAY_FLAY_SPECIALIZER_H
#define FLAY_FLAY_SPECIALIZER_H

#include "flay/engine.h"
#include "p4/clone.h"

namespace flay::flay {

/// What the partial evaluator changed, mirroring the specializations of §3
/// and Fig. 3.
struct SpecializationStats {
  size_t removedTables = 0;       // empty table: default action inlined
  size_t inlinedTables = 0;       // constant hit+action: action inlined
  size_t removedActions = 0;      // unreachable actions dropped from tables
  size_t convertedKeys = 0;       // ternary/lpm keys tightened to exact
  size_t eliminatedBranches = 0;  // if statements with constant conditions
  size_t propagatedConstants = 0; // RHS replaced with literals
  size_t removedSelectCases = 0;  // unreachable parser select cases
  size_t solverQueries = 0;       // SMT constant/executability queries asked
  /// Queries whose fail-safe conflict budget expired before an answer. Each
  /// falls back to the conservative non-constant verdict (general
  /// implementation kept — never a fold on "unknown").
  size_t solverTimeouts = 0;
  /// Headers never read by any control: parser-tail pruning candidates
  /// (reported, not applied, so packet bytes round-trip unchanged).
  std::vector<std::string> prunableHeaders;
  /// Headers whose validity specializes to constant-false at pipeline end:
  /// never emitted under this config, so their PHV containers and any
  /// checksum units over them are reclaimable (§3, "Savings in other
  /// hardware resources").
  std::vector<std::string> deadHeaders;

  size_t totalChanges() const {
    return removedTables + inlinedTables + removedActions + convertedKeys +
           eliminatedBranches + propagatedConstants + removedSelectCases;
  }
};

/// The specializer's knobs are those of the check engine it asks.
using SpecializerOptions = CheckEngineOptions;

struct SpecializationResult {
  p4::Program program;
  SpecializationStats stats;
};

/// The partial evaluator: produces a specialized clone of the program that
/// is packet-equivalent to the original under the service's current
/// control-plane configuration. Combines dead-code elimination, constant
/// propagation, and table inlining (§4: "we remove unnecessary table
/// dependencies by deleting unused actions, inline P4 tables which always
/// execute the same action, ... and replace variables and conditions with
/// constants").
class Specializer {
 public:
  explicit Specializer(FlayService& service, SpecializerOptions options = {});

  SpecializationResult specialize();

 private:
  class Impl;
  FlayService& service_;
  SpecializerOptions options_;
};

/// Rebuilds a checked program from a specialized AST (re-runs the type
/// checker as a safety net against specializer bugs).
p4::CheckedProgram recheck(p4::Program program);

/// Fault-injection hooks for migrateConfig, used by the differential oracle
/// to prove it catches real specializer bugs: dropping one substituted entry
/// models the classic "specializer forgot an installed entry" defect.
struct MigrationTestHooks {
  /// Silently drop the last migrated entry of the first non-empty table.
  bool dropOneEntry = false;
};

/// Builds a DeviceConfig for the specialized program carrying over the
/// original entries, converting match kinds where the specializer tightened
/// keys and dropping entries of removed tables. A table whose keys and
/// action list specialization left unchanged, with no entry eclipsed,
/// shares the original's contents instead of being rebuilt, so migrating
/// costs O(tables changed). `hooks` is for tests only.
runtime::DeviceConfig migrateConfig(const p4::CheckedProgram& specialized,
                                    const runtime::DeviceConfig& original,
                                    const MigrationTestHooks* hooks = nullptr);

}  // namespace flay::flay

#endif  // FLAY_FLAY_SPECIALIZER_H
