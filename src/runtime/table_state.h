#ifndef FLAY_RUNTIME_TABLE_STATE_H
#define FLAY_RUNTIME_TABLE_STATE_H

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/entry.h"

namespace flay::runtime {

/// Runtime state of one match-action table: the installed entries plus an
/// optional default-action override. Implements the control-plane semantics
/// the paper's §4.1 assigns to the device specification: inserts are
/// validated against the table schema, duplicates are rejected, and the
/// normalized view omits entries eclipsed by higher-precedence ones.
class TableState {
 public:
  /// `control` and `decl` outlive this object (they belong to the Program).
  TableState(const p4::ControlDecl& control, const p4::TableDecl& decl);

  const p4::TableDecl& decl() const { return *decl_; }
  const p4::ControlDecl& control() const { return *control_; }
  std::string qualifiedName() const {
    return control_->name + "." + decl_->name;
  }

  /// Validates and installs; returns the assigned entry id.
  /// Throws std::invalid_argument on schema violations or duplicates.
  uint64_t insert(TableEntry entry);
  /// Checkpoint-restore insert: installs `entry` keeping its original
  /// (non-zero) id and bumps the id allocator past it, so updates journaled
  /// after the checkpoint replay against the exact same id sequence.
  void restoreEntry(TableEntry entry);
  /// Next id insert() would assign; restored verbatim from checkpoints.
  uint64_t nextId() const { return nextId_; }
  void setNextId(uint64_t id) { nextId_ = id; }
  /// Replaces the entry with `entry.id`; throws if absent.
  void modify(TableEntry entry);
  /// Removes by id; throws if absent.
  void remove(uint64_t id);
  void clear();

  /// Overrides the default action; pass the declaration default to reset.
  void setDefaultAction(std::string actionName, std::vector<BitVec> args);
  const std::string& defaultActionName() const { return defaultActionName_; }
  const std::vector<BitVec>& defaultActionArgs() const {
    return defaultActionArgs_;
  }

  const std::vector<TableEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// True if the table has at least one ternary key (priority semantics).
  bool usesPriority() const { return hasTernary_; }

  /// Entries in match precedence order (highest first), with entries whose
  /// match region is fully covered by earlier entries omitted — they can
  /// never win a lookup and therefore don't affect program semantics.
  std::vector<const TableEntry*> normalizedEntries() const;

  /// Data-plane lookup: highest-precedence matching entry, or nullptr
  /// (default action applies).
  const TableEntry* lookup(const std::vector<BitVec>& key) const;

  /// Installed entries per action, kept current by every mutation. Slots
  /// follow the declared action list, then the builtins noop and NoAction;
  /// actionSlotName() names a slot.
  const std::vector<size_t>& actionCounts() const { return actionCounts_; }
  const std::string& actionSlotName(size_t slot) const;
  /// Per key: installed entries whose match on that key is not exact-valued.
  const std::vector<size_t>& maskedCounts() const { return maskedCounts_; }

 private:
  void validate(const TableEntry& entry) const;
  /// Precedence comparator: true if a should be tried before b.
  bool precedes(const TableEntry& a, const TableEntry& b) const;
  /// Canonical key of an entry's match set + priority — equal signatures iff
  /// the duplicate predicate (sameMatchSet && equal priority) holds.
  std::string matchSignature(const TableEntry& e) const;
  size_t actionSlot(const std::string& actionName) const;
  /// Adds (installed) or removes one entry's share of the two counts.
  void countEntry(const TableEntry& e, bool installed);
  /// Rebuilds idToIndex_ for entries_[from..] after an erase shifted them.
  void reindexFrom(size_t from);

  const p4::ControlDecl* control_;
  const p4::TableDecl* decl_;
  std::vector<TableEntry> entries_;
  /// Multiplicity of each match signature among entries_. insert() rejects
  /// signatures with count > 0 in O(1) — the burst-path fix for the O(n)
  /// duplicate scan that made a 1k-entry batch O(n^2). A count (not a set)
  /// because modify() historically permits creating duplicate match sets.
  std::unordered_map<std::string, uint32_t> sigCount_;
  /// Entry id -> position in entries_, for O(1) modify/remove/restore.
  std::unordered_map<uint64_t, size_t> idToIndex_;
  /// Sized once by the constructor, so a mutation allocates nothing.
  std::vector<size_t> actionCounts_;
  std::vector<size_t> maskedCounts_;
  std::string defaultActionName_;
  std::vector<BitVec> defaultActionArgs_;
  bool hasTernary_ = false;
  bool hasLpm_ = false;
  size_t lpmIndex_ = 0;  // index of the lpm key, if hasLpm_
  size_t lpmKeys_ = 0;   // number of lpm keys
  /// Entries sharing a match signature with an earlier entry (only modify()
  /// can create these; insert rejects duplicates). Nonzero disables the
  /// no-eclipse fast path in normalizedEntries().
  size_t duplicateEntries_ = 0;
  uint64_t nextId_ = 1;
};

}  // namespace flay::runtime

#endif  // FLAY_RUNTIME_TABLE_STATE_H
