#include "runtime/device_config.h"

#include <stdexcept>
#include <tuple>

#include "obs/obs.h"

namespace flay::runtime {

// ---------------------------------------------------------------------------
// ValueSetState
// ---------------------------------------------------------------------------

void ValueSetState::insert(BitVec value, BitVec mask) {
  if (value.width() != width_ || mask.width() != width_) {
    throw std::invalid_argument("value_set '" + name_ + "' width mismatch");
  }
  if (members_.size() >= size_) {
    throw std::invalid_argument("value_set '" + name_ + "' is full");
  }
  for (const auto& [v, m] : members_) {
    if (v == value && m == mask) {
      throw std::invalid_argument("value_set '" + name_ + "' duplicate");
    }
  }
  members_.emplace_back(std::move(value), std::move(mask));
}

void ValueSetState::insert(BitVec value) {
  BitVec mask = BitVec::allOnes(value.width());
  insert(std::move(value), std::move(mask));
}

void ValueSetState::remove(const BitVec& value, const BitVec& mask) {
  for (auto it = members_.begin(); it != members_.end(); ++it) {
    if (it->first == value && it->second == mask) {
      members_.erase(it);
      return;
    }
  }
  throw std::invalid_argument("value_set '" + name_ + "' member not found");
}

bool ValueSetState::matches(const BitVec& v) const {
  for (const auto& [value, mask] : members_) {
    if (v.bitAnd(mask) == value.bitAnd(mask)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// ActionProfileState
// ---------------------------------------------------------------------------

void ActionProfileState::addMember(Member m) {
  if (members_.size() >= size_) {
    throw std::invalid_argument("action profile is full");
  }
  if (findMember(m.memberId) != nullptr) {
    throw std::invalid_argument("duplicate action profile member id");
  }
  members_.push_back(std::move(m));
}

void ActionProfileState::removeMember(uint32_t memberId) {
  for (auto it = members_.begin(); it != members_.end(); ++it) {
    if (it->memberId == memberId) {
      members_.erase(it);
      return;
    }
  }
  throw std::invalid_argument("action profile member not found");
}

const ActionProfileState::Member* ActionProfileState::findMember(
    uint32_t memberId) const {
  for (const auto& m : members_) {
    if (m.memberId == memberId) return &m;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Update factories
// ---------------------------------------------------------------------------

Update Update::insert(std::string table, TableEntry e) {
  Update u;
  u.kind = Kind::kInsert;
  u.target = std::move(table);
  u.entry = std::move(e);
  return u;
}

Update Update::remove(std::string table, uint64_t id) {
  Update u;
  u.kind = Kind::kDelete;
  u.target = std::move(table);
  u.entry.id = id;
  return u;
}

Update Update::modify(std::string table, TableEntry e) {
  Update u;
  u.kind = Kind::kModify;
  u.target = std::move(table);
  u.entry = std::move(e);
  return u;
}

Update Update::setDefault(std::string table, std::string action,
                          std::vector<BitVec> args) {
  Update u;
  u.kind = Kind::kSetDefaultAction;
  u.target = std::move(table);
  u.actionName = std::move(action);
  u.actionArgs = std::move(args);
  return u;
}

Update Update::valueSetInsert(std::string vs, BitVec value, BitVec mask) {
  Update u;
  u.kind = Kind::kValueSetInsert;
  u.target = std::move(vs);
  u.value = std::move(value);
  u.mask = std::move(mask);
  return u;
}

std::string Update::toString() const {
  switch (kind) {
    case Kind::kInsert:
      return "insert " + target + " " + entry.toString();
    case Kind::kModify:
      return "modify " + target + " id=" + std::to_string(entry.id) + " " +
             entry.toString();
    case Kind::kDelete:
      return "delete " + target + " id=" + std::to_string(entry.id);
    case Kind::kSetDefaultAction: {
      std::string s = "set-default " + target + " " + actionName + "(";
      for (size_t i = 0; i < actionArgs.size(); ++i) {
        if (i > 0) s += ", ";
        s += actionArgs[i].toHexString();
      }
      return s + ")";
    }
    case Kind::kValueSetInsert:
      return "vs-insert " + target + " " + value.toHexString() + " &&& " +
             mask.toHexString();
    case Kind::kValueSetDelete:
      return "vs-delete " + target + " " + value.toHexString() + " &&& " +
             mask.toHexString();
    case Kind::kProfileAdd: {
      std::string s = "profile-add " + target + " member=" +
                      std::to_string(member.memberId) + " " +
                      member.actionName + "(";
      for (size_t i = 0; i < member.args.size(); ++i) {
        if (i > 0) s += ", ";
        s += member.args[i].toHexString();
      }
      return s + ")";
    }
    case Kind::kProfileRemove:
      return "profile-remove " + target + " member=" +
             std::to_string(member.memberId);
  }
  return "unknown-update";
}

// ---------------------------------------------------------------------------
// Update::fromString — schema-directed inverse of toString
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void badUpdate(std::string_view text, const std::string& why) {
  throw std::invalid_argument("cannot parse update '" + std::string(text) +
                              "': " + why);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  return s;
}

/// Consumes and returns the next space-delimited word.
std::string_view takeWord(std::string_view& s) {
  s = trim(s);
  size_t sp = s.find(' ');
  std::string_view word = sp == std::string_view::npos ? s : s.substr(0, sp);
  s.remove_prefix(sp == std::string_view::npos ? s.size() : sp + 1);
  return word;
}

/// Splits "a, b, c" on top-level commas (the rendered lists never nest).
std::vector<std::string_view> splitList(std::string_view s) {
  std::vector<std::string_view> out;
  s = trim(s);
  if (s.empty()) return out;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string_view::npos) comma = s.size();
    out.push_back(trim(s.substr(pos, comma - pos)));
    pos = comma + 1;
    if (comma == s.size()) break;
  }
  return out;
}

uint64_t parseUint(std::string_view orig, std::string_view digits) {
  if (digits.empty()) badUpdate(orig, "expected a number");
  uint64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') {
      badUpdate(orig, "bad number '" + std::string(digits) + "'");
    }
    uint64_t d = static_cast<uint64_t>(c - '0');
    // A value that wraps uint64 must be rejected, not silently reduced
    // mod 2^64 — wire input is adversarial.
    if (v > (UINT64_MAX - d) / 10) {
      badUpdate(orig, "number '" + std::string(digits) + "' overflows");
    }
    v = v * 10 + d;
  }
  return v;
}

struct TableSchema {
  const p4::ControlDecl* control = nullptr;
  const p4::TableDecl* decl = nullptr;
};

TableSchema findTable(const p4::CheckedProgram& checked,
                      std::string_view target, std::string_view orig) {
  size_t dot = target.find('.');
  if (dot == std::string_view::npos) badUpdate(orig, "unqualified target");
  std::string control(target.substr(0, dot));
  std::string table(target.substr(dot + 1));
  for (const auto& c : checked.program.controls) {
    if (c.name != control) continue;
    if (const p4::TableDecl* t = c.findTable(table)) return {&c, t};
  }
  badUpdate(orig, "unknown table '" + std::string(target) + "'");
}

const p4::ValueSetDecl* findValueSet(const p4::CheckedProgram& checked,
                                     std::string_view target,
                                     std::string_view orig) {
  size_t dot = target.find('.');
  if (dot == std::string_view::npos) badUpdate(orig, "unqualified target");
  std::string parser(target.substr(0, dot));
  std::string vs(target.substr(dot + 1));
  for (const auto& p : checked.program.parsers) {
    if (p.name != parser) continue;
    for (const auto& v : p.valueSets) {
      if (v.name == vs) return &v;
    }
  }
  badUpdate(orig, "unknown value_set '" + std::string(target) + "'");
}

const p4::ControlDecl* findControlByPrefix(const p4::CheckedProgram& checked,
                                           std::string_view target,
                                           std::string_view orig) {
  size_t dot = target.find('.');
  if (dot == std::string_view::npos) badUpdate(orig, "unqualified target");
  std::string control(target.substr(0, dot));
  for (const auto& c : checked.program.controls) {
    if (c.name == control) return &c;
  }
  badUpdate(orig, "unknown control '" + std::string(control) + "'");
}

/// Parses "act(0x01, 0x02)" against the control's action declaration; the
/// builtin noop/NoAction take no arguments.
void parseActionCall(const p4::ControlDecl& control, std::string_view call,
                     std::string_view orig, std::string* actionName,
                     std::vector<BitVec>* args) {
  call = trim(call);
  size_t open = call.find('(');
  if (open == std::string_view::npos || call.back() != ')') {
    badUpdate(orig, "expected action(args)");
  }
  *actionName = std::string(trim(call.substr(0, open)));
  std::vector<std::string_view> argText =
      splitList(call.substr(open + 1, call.size() - open - 2));
  const p4::ActionDecl* decl = control.findAction(*actionName);
  size_t expected = decl != nullptr ? decl->params.size() : 0;
  if (argText.size() != expected) {
    badUpdate(orig, "action '" + *actionName + "' expects " +
                        std::to_string(expected) + " arguments, got " +
                        std::to_string(argText.size()));
  }
  args->clear();
  for (size_t i = 0; i < argText.size(); ++i) {
    args->push_back(BitVec::parse(decl->params[i].width, argText[i]));
  }
}

/// Parses "[m0, m1, ...] -> act(args)[ prio=P]" against the table schema.
TableEntry parseEntryBody(const TableSchema& schema, std::string_view body,
                          std::string_view orig) {
  body = trim(body);
  if (body.empty() || body.front() != '[') badUpdate(orig, "expected '['");
  size_t close = body.find(']');
  if (close == std::string_view::npos) badUpdate(orig, "unterminated '['");
  std::vector<std::string_view> matchText =
      splitList(body.substr(1, close - 1));
  if (matchText.size() != schema.decl->keys.size()) {
    badUpdate(orig, "entry has " + std::to_string(matchText.size()) +
                        " matches, table has " +
                        std::to_string(schema.decl->keys.size()) + " keys");
  }
  TableEntry entry;
  for (size_t i = 0; i < matchText.size(); ++i) {
    const p4::KeyElement& key = schema.decl->keys[i];
    uint32_t width = key.expr->width;
    std::string_view m = matchText[i];
    switch (key.matchKind) {
      case p4::MatchKind::kExact:
        entry.matches.push_back(FieldMatch::exact(BitVec::parse(width, m)));
        break;
      case p4::MatchKind::kTernary: {
        size_t amp = m.find(" &&& ");
        if (amp == std::string_view::npos) {
          badUpdate(orig, "ternary key needs 'value &&& mask'");
        }
        entry.matches.push_back(
            FieldMatch::ternary(BitVec::parse(width, trim(m.substr(0, amp))),
                                BitVec::parse(width, trim(m.substr(amp + 5)))));
        break;
      }
      case p4::MatchKind::kLpm: {
        size_t slash = m.rfind('/');
        if (slash == std::string_view::npos) {
          badUpdate(orig, "lpm key needs 'value/prefixLen'");
        }
        uint64_t len = parseUint(orig, m.substr(slash + 1));
        // FieldMatch::lpm rejects prefixLen > width, but only after the
        // u32 cast — catch a 2^32-aliasing length before it truncates.
        if (len > width) {
          badUpdate(orig, "lpm prefix length " + std::to_string(len) +
                              " exceeds key width");
        }
        entry.matches.push_back(
            FieldMatch::lpm(BitVec::parse(width, trim(m.substr(0, slash))),
                            static_cast<uint32_t>(len)));
        break;
      }
    }
  }
  std::string_view rest = trim(body.substr(close + 1));
  if (rest.substr(0, 2) != "->") badUpdate(orig, "expected '->'");
  rest = trim(rest.substr(2));
  // Optional trailing " prio=P" (P may be negative).
  size_t prio = rest.rfind(" prio=");
  if (prio != std::string_view::npos && rest.find(')', prio) == std::string_view::npos) {
    std::string_view p = rest.substr(prio + 6);
    bool negative = !p.empty() && p.front() == '-';
    if (negative) p.remove_prefix(1);
    uint64_t v = parseUint(orig, p);
    // priority is int32 on the wire and in the classifier; a magnitude that
    // does not fit must fail here, not wrap into a different priority.
    uint64_t limit = negative ? 2147483648ull : 2147483647ull;
    if (v > limit) {
      badUpdate(orig, "priority " + std::string(negative ? "-" : "") +
                          std::string(p) + " out of int32 range");
    }
    entry.priority =
        negative ? static_cast<int32_t>(-static_cast<int64_t>(v))
                 : static_cast<int32_t>(v);
    rest = trim(rest.substr(0, prio));
  }
  parseActionCall(*schema.control, rest, orig, &entry.actionName,
                  &entry.actionArgs);
  return entry;
}

/// Parses "key=N" returning N.
uint64_t parseKeyedUint(std::string_view& s, std::string_view key,
                        std::string_view orig) {
  std::string_view word = takeWord(s);
  if (word.substr(0, key.size()) != key || word.size() <= key.size() ||
      word[key.size()] != '=') {
    badUpdate(orig, "expected '" + std::string(key) + "=N'");
  }
  return parseUint(orig, word.substr(key.size() + 1));
}

std::pair<BitVec, BitVec> parseValueMask(uint32_t width, std::string_view s,
                                         std::string_view orig) {
  size_t amp = s.find(" &&& ");
  if (amp == std::string_view::npos) {
    badUpdate(orig, "expected 'value &&& mask'");
  }
  return {BitVec::parse(width, trim(s.substr(0, amp))),
          BitVec::parse(width, trim(s.substr(amp + 5)))};
}

}  // namespace

Update Update::fromString(const p4::CheckedProgram& checked,
                          std::string_view text) {
  std::string_view orig = text;
  std::string_view s = trim(text);
  std::string_view kind = takeWord(s);
  std::string target(takeWord(s));
  if (target.empty()) badUpdate(orig, "missing target");

  if (kind == "insert" || kind == "modify") {
    TableSchema schema = findTable(checked, target, orig);
    Update u;
    u.kind = kind == "insert" ? Kind::kInsert : Kind::kModify;
    u.target = std::move(target);
    uint64_t id = 0;
    if (u.kind == Kind::kModify) id = parseKeyedUint(s, "id", orig);
    u.entry = parseEntryBody(schema, s, orig);
    u.entry.id = id;
    return u;
  }
  if (kind == "delete") {
    Update u;
    u.kind = Kind::kDelete;
    // Existence check only: ids need no schema, but an unknown table should
    // fail here, not at replay time.
    findTable(checked, target, orig);
    u.target = std::move(target);
    u.entry.id = parseKeyedUint(s, "id", orig);
    if (!trim(s).empty()) {
      badUpdate(orig, "trailing garbage after id");
    }
    return u;
  }
  if (kind == "set-default") {
    TableSchema schema = findTable(checked, target, orig);
    Update u;
    u.kind = Kind::kSetDefaultAction;
    u.target = std::move(target);
    parseActionCall(*schema.control, s, orig, &u.actionName, &u.actionArgs);
    return u;
  }
  if (kind == "vs-insert" || kind == "vs-delete") {
    const p4::ValueSetDecl* vs = findValueSet(checked, target, orig);
    Update u;
    u.kind = kind == "vs-insert" ? Kind::kValueSetInsert : Kind::kValueSetDelete;
    u.target = std::move(target);
    std::tie(u.value, u.mask) = parseValueMask(vs->width, trim(s), orig);
    return u;
  }
  if (kind == "profile-add") {
    const p4::ControlDecl* control = findControlByPrefix(checked, target, orig);
    Update u;
    u.kind = Kind::kProfileAdd;
    u.target = std::move(target);
    uint64_t member = parseKeyedUint(s, "member", orig);
    if (member > UINT32_MAX) badUpdate(orig, "member id out of range");
    u.member.memberId = static_cast<uint32_t>(member);
    parseActionCall(*control, s, orig, &u.member.actionName, &u.member.args);
    return u;
  }
  if (kind == "profile-remove") {
    Update u;
    u.kind = Kind::kProfileRemove;
    findControlByPrefix(checked, target, orig);
    u.target = std::move(target);
    uint64_t member = parseKeyedUint(s, "member", orig);
    if (member > UINT32_MAX) badUpdate(orig, "member id out of range");
    u.member.memberId = static_cast<uint32_t>(member);
    if (!trim(s).empty()) {
      badUpdate(orig, "trailing garbage after member id");
    }
    return u;
  }
  badUpdate(orig, "unknown update kind '" + std::string(kind) + "'");
}

// ---------------------------------------------------------------------------
// DeviceConfig
// ---------------------------------------------------------------------------

DeviceConfig::DeviceConfig(const p4::CheckedProgram& checked)
    : checked_(&checked) {
  for (const auto& control : checked.program.controls) {
    for (const auto& table : control.tables) {
      std::string qualified = control.name + "." + table.name;
      tables_.emplace(qualified, TableState(control, table));
    }
    for (const auto& profile : control.actionProfiles) {
      profiles_.emplace(control.name + "." + profile.name,
                        ActionProfileState(profile.size));
    }
  }
  for (const auto& parser : checked.program.parsers) {
    for (const auto& vs : parser.valueSets) {
      std::string qualified = parser.name + "." + vs.name;
      valueSets_.emplace(qualified,
                         ValueSetState(qualified, vs.width, vs.size));
    }
  }
}

TableState& DeviceConfig::table(const std::string& qualifiedName) {
  auto it = tables_.find(qualifiedName);
  if (it == tables_.end()) {
    throw std::invalid_argument("unknown table '" + qualifiedName + "'");
  }
  return it->second;
}

const TableState& DeviceConfig::table(const std::string& qualifiedName) const {
  return const_cast<DeviceConfig*>(this)->table(qualifiedName);
}

ValueSetState& DeviceConfig::valueSet(const std::string& qualifiedName) {
  auto it = valueSets_.find(qualifiedName);
  if (it == valueSets_.end()) {
    throw std::invalid_argument("unknown value_set '" + qualifiedName + "'");
  }
  return it->second;
}

const ValueSetState& DeviceConfig::valueSet(
    const std::string& qualifiedName) const {
  return const_cast<DeviceConfig*>(this)->valueSet(qualifiedName);
}

ActionProfileState& DeviceConfig::actionProfile(
    const std::string& qualifiedName) {
  auto it = profiles_.find(qualifiedName);
  if (it == profiles_.end()) {
    throw std::invalid_argument("unknown action profile '" + qualifiedName +
                                "'");
  }
  return it->second;
}

const ActionProfileState& DeviceConfig::actionProfile(
    const std::string& qualifiedName) const {
  return const_cast<DeviceConfig*>(this)->actionProfile(qualifiedName);
}

namespace {

/// Per-kind update counters. A rejected (throwing) update is counted under
/// runtime.rejected_updates instead of its kind — only installed state is
/// interesting for the update-mix telemetry.
obs::Counter& updateKindCounter(Update::Kind kind) {
  obs::Registry& reg = obs::Registry::global();
  switch (kind) {
    case Update::Kind::kInsert:
      return reg.counter("runtime.inserts");
    case Update::Kind::kModify:
      return reg.counter("runtime.modifies");
    case Update::Kind::kDelete:
      return reg.counter("runtime.deletes");
    case Update::Kind::kSetDefaultAction:
      return reg.counter("runtime.default_action_sets");
    case Update::Kind::kValueSetInsert:
      return reg.counter("runtime.value_set_inserts");
    case Update::Kind::kValueSetDelete:
      return reg.counter("runtime.value_set_deletes");
    case Update::Kind::kProfileAdd:
      return reg.counter("runtime.profile_adds");
    case Update::Kind::kProfileRemove:
      return reg.counter("runtime.profile_removes");
  }
  return reg.counter("runtime.unknown_updates");
}

}  // namespace

std::string DeviceConfig::apply(const Update& update) {
  try {
    applyChecked(update);
  } catch (...) {
    obs::Registry::global().counter("runtime.rejected_updates").add(1);
    throw;
  }
  updateKindCounter(update.kind).add(1);
  return update.target;
}

void DeviceConfig::applyChecked(const Update& update) {
  switch (update.kind) {
    case Update::Kind::kInsert:
      table(update.target).insert(update.entry);
      break;
    case Update::Kind::kModify:
      table(update.target).modify(update.entry);
      break;
    case Update::Kind::kDelete:
      table(update.target).remove(update.entry.id);
      break;
    case Update::Kind::kSetDefaultAction:
      table(update.target)
          .setDefaultAction(update.actionName, update.actionArgs);
      break;
    case Update::Kind::kValueSetInsert:
      valueSet(update.target).insert(update.value, update.mask);
      break;
    case Update::Kind::kValueSetDelete:
      valueSet(update.target).remove(update.value, update.mask);
      break;
    case Update::Kind::kProfileAdd:
      actionProfile(update.target).addMember(update.member);
      break;
    case Update::Kind::kProfileRemove:
      actionProfile(update.target).removeMember(update.member.memberId);
      break;
  }
}

}  // namespace flay::runtime
