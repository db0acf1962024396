#ifndef FLAY_RUNTIME_TABLE_STATE_H
#define FLAY_RUNTIME_TABLE_STATE_H

#include <atomic>
#include <mutex>
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
///
/// Copies are cheap: everything a mutation changes lives in one contents
/// block that copies share, and a mutator clones it only when it is shared.
/// A copy therefore costs O(1) and an update to one table of a copied
/// config costs one clone of that table. Copies may be read and dropped on
/// other threads while this one is mutated.
class TableState {
 public:
  /// `control` and `decl` outlive this object (they belong to the Program).
  TableState(const p4::ControlDecl& control, const p4::TableDecl& decl);
  TableState(const TableState& other) noexcept;
  TableState& operator=(const TableState& other) noexcept;
  ~TableState();

  /// This table's contents (entries with their ids, default action, id
  /// allocator) under `control`/`decl`, shared until either side mutates.
  /// `decl` must have this table's keys and action list; migration uses it
  /// to carry an unchanged table over to a specialized program.
  TableState reseated(const p4::ControlDecl& control,
                      const p4::TableDecl& decl) const;

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
  uint64_t nextId() const { return contents_->nextId; }
  void setNextId(uint64_t id);
  /// Replaces the entry with `entry.id`; throws if absent.
  void modify(TableEntry entry);
  /// Removes by id; throws if absent.
  void remove(uint64_t id);
  void clear();

  /// Overrides the default action; pass the declaration default to reset.
  void setDefaultAction(std::string actionName, std::vector<BitVec> args);
  const std::string& defaultActionName() const {
    return contents_->defaultActionName;
  }
  const std::vector<BitVec>& defaultActionArgs() const {
    return contents_->defaultActionArgs;
  }

  const std::vector<TableEntry>& entries() const { return contents_->entries; }
  size_t size() const { return contents_->entries.size(); }
  bool empty() const { return contents_->entries.empty(); }

  /// True if the table has at least one ternary key (priority semantics).
  bool usesPriority() const { return hasTernary_; }

  /// Entries in match precedence order (highest first), with entries whose
  /// match region is fully covered by earlier entries omitted — they can
  /// never win a lookup and therefore don't affect program semantics.
  /// Computed once per contents version and shared by its copies; valid
  /// until this table is next mutated or destroyed. Thread-safe.
  const std::vector<const TableEntry*>& normalizedEntries() const;

  /// Data-plane lookup: highest-precedence matching entry, or nullptr
  /// (default action applies).
  const TableEntry* lookup(const std::vector<BitVec>& key) const;

  /// Installed entries per action, kept current by every mutation. Slots
  /// follow the declared action list, then the builtins noop and NoAction;
  /// actionSlotName() names a slot.
  const std::vector<size_t>& actionCounts() const {
    return contents_->actionCounts;
  }
  const std::string& actionSlotName(size_t slot) const;
  /// Per key: installed entries whose match on that key is not exact-valued.
  const std::vector<size_t>& maskedCounts() const {
    return contents_->maskedCounts;
  }

 private:
  /// Everything a mutation changes, shared between copies.
  struct Contents {
    Contents() = default;
    /// Clones the state; the copy starts with one owner and no memo.
    Contents(const Contents& other);

    /// Owners of this block. The block carries its own count because the
    /// sole-owner test needs an acquire load, which std::shared_ptr's
    /// use_count() does not give (and ThreadSanitizer does not model the
    /// fence that would make up for it).
    mutable std::atomic<size_t> owners{1};
    std::vector<TableEntry> entries;
    /// Multiplicity of each match signature among entries. insert() rejects
    /// signatures with count > 0 in O(1) — the burst-path fix for the O(n)
    /// duplicate scan that made a 1k-entry batch O(n^2). A count (not a
    /// set) because modify() historically permits creating duplicate match
    /// sets.
    std::unordered_map<std::string, uint32_t> sigCount;
    /// Entry id -> position in entries, for O(1) modify/remove/restore.
    std::unordered_map<uint64_t, size_t> idToIndex;
    /// Sized once by the constructor, so a mutation allocates nothing.
    std::vector<size_t> actionCounts;
    std::vector<size_t> maskedCounts;
    std::string defaultActionName;
    std::vector<BitVec> defaultActionArgs;
    /// Entries sharing a match signature with an earlier entry (only
    /// modify() can create these; insert rejects duplicates). Nonzero
    /// disables the no-eclipse fast path in normalizedEntries().
    size_t duplicateEntries = 0;
    uint64_t nextId = 1;
    /// normalizedEntries() memo, filled on first use under memoMu and
    /// published by memoReady; dropped by the next in-place mutation.
    mutable std::mutex memoMu;
    mutable std::atomic<bool> memoReady{false};
    mutable std::vector<const TableEntry*> normalized;
  };

  TableState(const p4::ControlDecl& control, const p4::TableDecl& decl,
             Contents* contents);
  /// The contents for an in-place mutation: cloned first if shared, memo
  /// dropped. Call only once the mutation is known to go ahead.
  Contents& mutableContents();
  static void release(Contents* contents);

  void validate(const TableEntry& entry) const;
  /// Precedence comparator: true if a should be tried before b.
  bool precedes(const TableEntry& a, const TableEntry& b) const;
  /// Canonical key of an entry's match set + priority — equal signatures iff
  /// the duplicate predicate (sameMatchSet && equal priority) holds.
  std::string matchSignature(const TableEntry& e) const;
  size_t actionSlot(const std::string& actionName) const;
  /// Adds (installed) or removes one entry's share of the two counts.
  void countEntry(Contents& c, const TableEntry& e, bool installed) const;
  /// Installs a validated, non-duplicate entry under signature `sig`.
  void install(Contents& c, TableEntry entry, std::string sig) const;
  /// Sorts and eclipse-scans the entries (the memo's contents).
  std::vector<const TableEntry*> normalize() const;

  const p4::ControlDecl* control_;
  const p4::TableDecl* decl_;
  Contents* contents_;
  bool hasTernary_ = false;
  bool hasLpm_ = false;
  size_t lpmIndex_ = 0;  // index of the lpm key, if hasLpm_
  size_t lpmKeys_ = 0;   // number of lpm keys
};

}  // namespace flay::runtime

#endif  // FLAY_RUNTIME_TABLE_STATE_H
