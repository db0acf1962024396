#include "runtime/table_state.h"

#include <algorithm>
#include <stdexcept>

namespace flay::runtime {

TableState::TableState(const p4::ControlDecl& control,
                       const p4::TableDecl& decl)
    : TableState(control, decl, new Contents) {
  Contents& c = *contents_;
  c.actionCounts.assign(decl.actionNames.size() + 2, 0);
  c.maskedCounts.assign(decl.keys.size(), 0);
  c.defaultActionName = decl.defaultAction.name;
  for (const auto& arg : decl.defaultAction.args) {
    c.defaultActionArgs.push_back(arg->value);
  }
}

TableState::TableState(const p4::ControlDecl& control,
                       const p4::TableDecl& decl, Contents* contents)
    : control_(&control), decl_(&decl), contents_(contents) {
  for (size_t i = 0; i < decl.keys.size(); ++i) {
    if (decl.keys[i].matchKind == p4::MatchKind::kTernary) hasTernary_ = true;
    if (decl.keys[i].matchKind == p4::MatchKind::kLpm) {
      hasLpm_ = true;
      lpmIndex_ = i;
      ++lpmKeys_;
    }
  }
}

TableState::Contents::Contents(const Contents& other)
    : entries(other.entries),
      sigCount(other.sigCount),
      idToIndex(other.idToIndex),
      actionCounts(other.actionCounts),
      maskedCounts(other.maskedCounts),
      defaultActionName(other.defaultActionName),
      defaultActionArgs(other.defaultActionArgs),
      duplicateEntries(other.duplicateEntries),
      nextId(other.nextId) {}

TableState::TableState(const TableState& other) noexcept
    : control_(other.control_),
      decl_(other.decl_),
      contents_(other.contents_),
      hasTernary_(other.hasTernary_),
      hasLpm_(other.hasLpm_),
      lpmIndex_(other.lpmIndex_),
      lpmKeys_(other.lpmKeys_) {
  // Relaxed suffices: the new owner was made from one that stays alive
  // throughout, so the count cannot reach zero concurrently.
  contents_->owners.fetch_add(1, std::memory_order_relaxed);
}

TableState& TableState::operator=(const TableState& other) noexcept {
  other.contents_->owners.fetch_add(1, std::memory_order_relaxed);
  release(contents_);
  control_ = other.control_;
  decl_ = other.decl_;
  contents_ = other.contents_;
  hasTernary_ = other.hasTernary_;
  hasLpm_ = other.hasLpm_;
  lpmIndex_ = other.lpmIndex_;
  lpmKeys_ = other.lpmKeys_;
  return *this;
}

TableState::~TableState() { release(contents_); }

void TableState::release(Contents* contents) {
  // Release publishes this owner's reads of the block to whoever ends up
  // alone with it: the deleting owner here (acquire half), or an owner that
  // mutates in place after reading the count in mutableContents().
  if (contents->owners.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    delete contents;
  }
}

TableState::Contents& TableState::mutableContents() {
  // Acquire pairs with release(): once the count reads 1, every access the
  // other (now gone) owners made to the block happened before this
  // mutation, even if they ran on other threads. The count cannot rise
  // meanwhile: only this table could be copied, and copying it concurrently
  // with a mutation is a data race by the usual rules.
  if (contents_->owners.load(std::memory_order_acquire) == 1) {
    contents_->memoReady.store(false, std::memory_order_relaxed);
    contents_->normalized.clear();
  } else {
    Contents* clone = new Contents(*contents_);
    release(contents_);
    contents_ = clone;
  }
  return *contents_;
}

TableState TableState::reseated(const p4::ControlDecl& control,
                                const p4::TableDecl& decl) const {
  contents_->owners.fetch_add(1, std::memory_order_relaxed);
  return TableState(control, decl, contents_);
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

void TableState::countEntry(Contents& c, const TableEntry& e,
                            bool installed) const {
  size_t& actions = c.actionCounts[actionSlot(e.actionName)];
  installed ? ++actions : --actions;
  for (size_t k = 0; k < e.matches.size(); ++k) {
    if (e.matches[k].isExactValued()) continue;
    installed ? ++c.maskedCounts[k] : --c.maskedCounts[k];
  }
}

void TableState::install(Contents& c, TableEntry entry,
                         std::string sig) const {
  ++c.sigCount[std::move(sig)];
  countEntry(c, entry, true);
  c.idToIndex[entry.id] = c.entries.size();
  c.entries.push_back(std::move(entry));
}

uint64_t TableState::insert(TableEntry entry) {
  validate(entry);
  if (size() >= decl_->size) {
    throw std::invalid_argument(qualifiedName() + ": table is full (size " +
                                std::to_string(decl_->size) + ")");
  }
  std::string sig = matchSignature(entry);
  auto sit = contents_->sigCount.find(sig);
  if (sit != contents_->sigCount.end() && sit->second > 0) {
    throw std::invalid_argument(qualifiedName() +
                                ": duplicate entry " + entry.toString());
  }
  Contents& c = mutableContents();
  entry.id = c.nextId++;
  uint64_t id = entry.id;
  install(c, std::move(entry), std::move(sig));
  return id;
}

void TableState::restoreEntry(TableEntry entry) {
  validate(entry);
  if (entry.id == 0) {
    throw std::invalid_argument(qualifiedName() +
                                ": restoreEntry needs an explicit id");
  }
  if (size() >= decl_->size) {
    throw std::invalid_argument(qualifiedName() + ": table is full (size " +
                                std::to_string(decl_->size) + ")");
  }
  if (contents_->idToIndex.count(entry.id) != 0) {
    throw std::invalid_argument(qualifiedName() + ": duplicate restored id " +
                                std::to_string(entry.id));
  }
  std::string sig = matchSignature(entry);
  auto sit = contents_->sigCount.find(sig);
  if (sit != contents_->sigCount.end() && sit->second > 0) {
    throw std::invalid_argument(qualifiedName() + ": duplicate entry " +
                                entry.toString());
  }
  Contents& c = mutableContents();
  if (entry.id >= c.nextId) c.nextId = entry.id + 1;
  install(c, std::move(entry), std::move(sig));
}

void TableState::setNextId(uint64_t id) { mutableContents().nextId = id; }

void TableState::modify(TableEntry entry) {
  validate(entry);
  auto it = contents_->idToIndex.find(entry.id);
  if (it == contents_->idToIndex.end()) {
    throw std::invalid_argument(qualifiedName() + ": no entry with id " +
                                std::to_string(entry.id));
  }
  size_t index = it->second;
  Contents& c = mutableContents();
  TableEntry& e = c.entries[index];
  auto sit = c.sigCount.find(matchSignature(e));
  if (sit != c.sigCount.end()) {
    if (sit->second >= 2) --c.duplicateEntries;
    if (--sit->second == 0) c.sigCount.erase(sit);
  }
  if (++c.sigCount[matchSignature(entry)] >= 2) ++c.duplicateEntries;
  countEntry(c, e, false);
  countEntry(c, entry, true);
  e = std::move(entry);
}

void TableState::remove(uint64_t id) {
  auto it = contents_->idToIndex.find(id);
  if (it == contents_->idToIndex.end()) {
    throw std::invalid_argument(qualifiedName() + ": no entry with id " +
                                std::to_string(id));
  }
  size_t index = it->second;
  Contents& c = mutableContents();
  auto sit = c.sigCount.find(matchSignature(c.entries[index]));
  if (sit != c.sigCount.end()) {
    if (sit->second >= 2) --c.duplicateEntries;
    if (--sit->second == 0) c.sigCount.erase(sit);
  }
  countEntry(c, c.entries[index], false);
  c.idToIndex.erase(id);
  c.entries.erase(c.entries.begin() + static_cast<ptrdiff_t>(index));
  // The erase shifted every later entry down by one.
  for (size_t i = index; i < c.entries.size(); ++i) {
    c.idToIndex[c.entries[i].id] = i;
  }
}

void TableState::clear() {
  Contents& c = mutableContents();
  c.entries.clear();
  c.sigCount.clear();
  c.idToIndex.clear();
  c.duplicateEntries = 0;
  std::fill(c.actionCounts.begin(), c.actionCounts.end(), 0);
  std::fill(c.maskedCounts.begin(), c.maskedCounts.end(), 0);
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
  Contents& c = mutableContents();
  c.defaultActionName = std::move(actionName);
  c.defaultActionArgs = std::move(args);
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

const std::vector<const TableEntry*>& TableState::normalizedEntries() const {
  const Contents& c = *contents_;
  // Double-checked: copies sharing the block may ask from several threads
  // at once; the first computes under the lock, the rest wait or see the
  // acquire-published result.
  if (!c.memoReady.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(c.memoMu);
    if (!c.memoReady.load(std::memory_order_relaxed)) {
      c.normalized = normalize();
      c.memoReady.store(true, std::memory_order_release);
    }
  }
  return c.normalized;
}

std::vector<const TableEntry*> TableState::normalize() const {
  const Contents& c = *contents_;
  std::vector<const TableEntry*> sorted;
  sorted.reserve(c.entries.size());
  for (const auto& e : c.entries) sorted.push_back(&e);
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
  if (!hasTernary_ && lpmKeys_ <= 1 && c.duplicateEntries == 0) return sorted;
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
  for (const auto& e : contents_->entries) {
    if (!e.matchesKey(key)) continue;
    if (best == nullptr || precedes(e, *best)) best = &e;
  }
  return best;
}

}  // namespace flay::runtime
