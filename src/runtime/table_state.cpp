#include "runtime/table_state.h"

#include <algorithm>
#include <stdexcept>

namespace flay::runtime {

TableState::TableState(const p4::ControlDecl& control,
                       const p4::TableDecl& decl)
    : control_(&control),
      decl_(&decl),
      actionCounts_(decl.actionNames.size() + 2, 0),
      maskedCounts_(decl.keys.size(), 0) {
  defaultActionName_ = decl.defaultAction.name;
  for (const auto& arg : decl.defaultAction.args) {
    defaultActionArgs_.push_back(arg->value);
  }
  for (size_t i = 0; i < decl.keys.size(); ++i) {
    if (decl.keys[i].matchKind == p4::MatchKind::kTernary) hasTernary_ = true;
    if (decl.keys[i].matchKind == p4::MatchKind::kLpm) {
      hasLpm_ = true;
      lpmIndex_ = i;
      ++lpmKeys_;
    }
  }
}

void TableState::validate(const TableEntry& entry) const {
  if (entry.matches.size() != decl_->keys.size()) {
    throw std::invalid_argument(
        qualifiedName() + ": entry has " +
        std::to_string(entry.matches.size()) + " matches, table has " +
        std::to_string(decl_->keys.size()) + " keys");
  }
  for (size_t i = 0; i < entry.matches.size(); ++i) {
    const FieldMatch& m = entry.matches[i];
    const p4::KeyElement& k = decl_->keys[i];
    if (m.value.width() != k.expr->width) {
      throw std::invalid_argument(
          qualifiedName() + ": key " + std::to_string(i) + " width " +
          std::to_string(m.value.width()) + " does not match bit<" +
          std::to_string(k.expr->width) + ">");
    }
    if (m.kind != k.matchKind) {
      throw std::invalid_argument(qualifiedName() + ": key " +
                                  std::to_string(i) + " match kind mismatch");
    }
  }
  // Action must be in the table's action list (or the builtin noop).
  bool listed = entry.actionName == "noop" || entry.actionName == "NoAction";
  for (const auto& a : decl_->actionNames) listed |= a == entry.actionName;
  if (!listed) {
    throw std::invalid_argument(qualifiedName() + ": action '" +
                                entry.actionName +
                                "' is not in the table's action list");
  }
  const p4::ActionDecl* action = control_->findAction(entry.actionName);
  size_t expected = action != nullptr ? action->params.size() : 0;
  if (entry.actionArgs.size() != expected) {
    throw std::invalid_argument(qualifiedName() + ": action '" +
                                entry.actionName + "' expects " +
                                std::to_string(expected) + " arguments");
  }
  if (action != nullptr) {
    for (size_t i = 0; i < expected; ++i) {
      if (entry.actionArgs[i].width() != action->params[i].width) {
        throw std::invalid_argument(qualifiedName() + ": argument " +
                                    std::to_string(i) + " width mismatch");
      }
    }
  }
  if (entry.priority != 0 && !hasTernary_) {
    throw std::invalid_argument(
        qualifiedName() + ": priorities are only valid with ternary keys");
  }
}

std::string TableState::matchSignature(const TableEntry& e) const {
  // FieldMatch::operator== compares (mask, value & mask), so rendering
  // exactly those two plus the priority makes signature equality coincide
  // with the duplicate predicate. Kinds need not be mixed in: validate()
  // pins every match kind to the table schema.
  std::string sig = std::to_string(e.priority);
  for (const auto& m : e.matches) {
    sig += '|';
    sig += m.mask.toHexString();
    sig += ':';
    sig += m.value.bitAnd(m.mask).toHexString();
  }
  return sig;
}

size_t TableState::actionSlot(const std::string& actionName) const {
  const auto& names = decl_->actionNames;
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == actionName) return i;
  }
  // validate() admits only declared actions and the two builtins.
  return names.size() + (actionName == "noop" ? 0 : 1);
}

const std::string& TableState::actionSlotName(size_t slot) const {
  static const std::string kBuiltins[] = {"noop", "NoAction"};
  const auto& names = decl_->actionNames;
  return slot < names.size() ? names[slot] : kBuiltins[slot - names.size()];
}

void TableState::countEntry(const TableEntry& e, bool installed) {
  size_t& actions = actionCounts_[actionSlot(e.actionName)];
  installed ? ++actions : --actions;
  for (size_t k = 0; k < e.matches.size(); ++k) {
    if (e.matches[k].isExactValued()) continue;
    installed ? ++maskedCounts_[k] : --maskedCounts_[k];
  }
}

void TableState::reindexFrom(size_t from) {
  for (size_t i = from; i < entries_.size(); ++i) {
    idToIndex_[entries_[i].id] = i;
  }
}

uint64_t TableState::insert(TableEntry entry) {
  validate(entry);
  if (entries_.size() >= decl_->size) {
    throw std::invalid_argument(qualifiedName() + ": table is full (size " +
                                std::to_string(decl_->size) + ")");
  }
  std::string sig = matchSignature(entry);
  auto sit = sigCount_.find(sig);
  if (sit != sigCount_.end() && sit->second > 0) {
    throw std::invalid_argument(qualifiedName() +
                                ": duplicate entry " + entry.toString());
  }
  entry.id = nextId_++;
  ++sigCount_[std::move(sig)];
  countEntry(entry, true);
  idToIndex_[entry.id] = entries_.size();
  entries_.push_back(std::move(entry));
  return entries_.back().id;
}

void TableState::restoreEntry(TableEntry entry) {
  validate(entry);
  if (entry.id == 0) {
    throw std::invalid_argument(qualifiedName() +
                                ": restoreEntry needs an explicit id");
  }
  if (entries_.size() >= decl_->size) {
    throw std::invalid_argument(qualifiedName() + ": table is full (size " +
                                std::to_string(decl_->size) + ")");
  }
  if (idToIndex_.count(entry.id) != 0) {
    throw std::invalid_argument(qualifiedName() + ": duplicate restored id " +
                                std::to_string(entry.id));
  }
  std::string sig = matchSignature(entry);
  auto sit = sigCount_.find(sig);
  if (sit != sigCount_.end() && sit->second > 0) {
    throw std::invalid_argument(qualifiedName() + ": duplicate entry " +
                                entry.toString());
  }
  if (entry.id >= nextId_) nextId_ = entry.id + 1;
  ++sigCount_[std::move(sig)];
  countEntry(entry, true);
  idToIndex_[entry.id] = entries_.size();
  entries_.push_back(std::move(entry));
}

void TableState::modify(TableEntry entry) {
  validate(entry);
  auto it = idToIndex_.find(entry.id);
  if (it == idToIndex_.end()) {
    throw std::invalid_argument(qualifiedName() + ": no entry with id " +
                                std::to_string(entry.id));
  }
  TableEntry& e = entries_[it->second];
  auto sit = sigCount_.find(matchSignature(e));
  if (sit != sigCount_.end()) {
    if (sit->second >= 2) --duplicateEntries_;
    if (--sit->second == 0) sigCount_.erase(sit);
  }
  if (++sigCount_[matchSignature(entry)] >= 2) ++duplicateEntries_;
  countEntry(e, false);
  countEntry(entry, true);
  e = std::move(entry);
}

void TableState::remove(uint64_t id) {
  auto it = idToIndex_.find(id);
  if (it == idToIndex_.end()) {
    throw std::invalid_argument(qualifiedName() + ": no entry with id " +
                                std::to_string(id));
  }
  size_t index = it->second;
  auto sit = sigCount_.find(matchSignature(entries_[index]));
  if (sit != sigCount_.end()) {
    if (sit->second >= 2) --duplicateEntries_;
    if (--sit->second == 0) sigCount_.erase(sit);
  }
  countEntry(entries_[index], false);
  idToIndex_.erase(it);
  entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(index));
  reindexFrom(index);
}

void TableState::clear() {
  entries_.clear();
  sigCount_.clear();
  idToIndex_.clear();
  duplicateEntries_ = 0;
  std::fill(actionCounts_.begin(), actionCounts_.end(), 0);
  std::fill(maskedCounts_.begin(), maskedCounts_.end(), 0);
}

void TableState::setDefaultAction(std::string actionName,
                                  std::vector<BitVec> args) {
  TableEntry probe;
  probe.actionName = actionName;
  probe.actionArgs = args;
  // Reuse entry validation for the action part by faking the key matches.
  for (const auto& k : decl_->keys) {
    FieldMatch m;
    m.kind = k.matchKind;
    m.value = BitVec::zero(k.expr->width);
    m.mask = k.matchKind == p4::MatchKind::kExact
                 ? BitVec::allOnes(k.expr->width)
                 : BitVec::zero(k.expr->width);
    probe.matches.push_back(std::move(m));
  }
  validate(probe);
  defaultActionName_ = std::move(actionName);
  defaultActionArgs_ = std::move(args);
}

bool TableState::precedes(const TableEntry& a, const TableEntry& b) const {
  if (hasTernary_) {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.id < b.id;  // deterministic tie-break: older first
  }
  if (hasLpm_) {
    uint32_t pa = a.matches[lpmIndex_].prefixLen;
    uint32_t pb = b.matches[lpmIndex_].prefixLen;
    if (pa != pb) return pa > pb;  // longest prefix first
    return a.id < b.id;
  }
  return a.id < b.id;
}

std::vector<const TableEntry*> TableState::normalizedEntries() const {
  std::vector<const TableEntry*> sorted;
  sorted.reserve(entries_.size());
  for (const auto& e : entries_) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [this](const TableEntry* a, const TableEntry* b) {
              return precedes(*a, *b);
            });
  // Without ternary keys and with at most one lpm key, eclipse is
  // structurally impossible: an earlier entry under this sort has a
  // longer-or-equal prefix, so its region can only contain a later one's if
  // the match sets are identical — which insert rejects and only modify()
  // can manufacture. That makes normalization O(n log n) for FIB-shaped
  // tables, where the quadratic scan below would dominate million-entry
  // bulk loads.
  if (!hasTernary_ && lpmKeys_ <= 1 && duplicateEntries_ == 0) return sorted;
  // Drop entries whose whole match region is covered by a single earlier
  // entry: they can never be the winning match. (Covering by a union of
  // earlier entries is not detected; that is an optimization, not a
  // soundness requirement.)
  std::vector<const TableEntry*> result;
  for (const TableEntry* e : sorted) {
    bool eclipsed = false;
    for (const TableEntry* winner : result) {
      if (winner->covers(*e)) {
        eclipsed = true;
        break;
      }
    }
    if (!eclipsed) result.push_back(e);
  }
  return result;
}

const TableEntry* TableState::lookup(const std::vector<BitVec>& key) const {
  const TableEntry* best = nullptr;
  for (const auto& e : entries_) {
    if (!e.matchesKey(key)) continue;
    if (best == nullptr || precedes(e, *best)) best = &e;
  }
  return best;
}

}  // namespace flay::runtime
