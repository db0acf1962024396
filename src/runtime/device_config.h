#ifndef FLAY_RUNTIME_DEVICE_CONFIG_H
#define FLAY_RUNTIME_DEVICE_CONFIG_H

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "p4/typecheck.h"
#include "runtime/table_state.h"

namespace flay::runtime {

/// A parser value set's runtime contents.
class ValueSetState {
 public:
  ValueSetState(std::string name, uint32_t width, uint32_t size)
      : name_(std::move(name)), width_(width), size_(size) {}

  void insert(BitVec value, BitVec mask);
  void insert(BitVec value);
  void remove(const BitVec& value, const BitVec& mask);
  void clear() { members_.clear(); }

  bool matches(const BitVec& v) const;
  bool empty() const { return members_.empty(); }
  size_t size() const { return members_.size(); }
  uint32_t width() const { return width_; }
  const std::vector<std::pair<BitVec, BitVec>>& members() const {
    return members_;
  }

 private:
  std::string name_;
  uint32_t width_;
  uint32_t size_;
  std::vector<std::pair<BitVec, BitVec>> members_;  // value, mask
};

/// An action profile's member list (shared action bindings).
class ActionProfileState {
 public:
  struct Member {
    uint32_t memberId;
    std::string actionName;
    std::vector<BitVec> args;
  };

  explicit ActionProfileState(uint32_t size) : size_(size) {}

  void addMember(Member m);
  void removeMember(uint32_t memberId);
  bool empty() const { return members_.empty(); }
  const std::vector<Member>& members() const { return members_; }
  const Member* findMember(uint32_t memberId) const;

 private:
  uint32_t size_;
  std::vector<Member> members_;
};

/// One control-plane update, the unit Flay's incremental analysis consumes.
struct Update {
  enum class Kind {
    kInsert,
    kModify,
    kDelete,
    kSetDefaultAction,
    kValueSetInsert,
    kValueSetDelete,
    kProfileAdd,
    kProfileRemove,
  };
  Kind kind = Kind::kInsert;
  /// Qualified object name: "Ingress.fwd" (table), "MyParser.tpids"
  /// (value set), "Ingress.prof" (action profile).
  std::string target;
  TableEntry entry;                      // insert/modify/delete(by id)
  std::string actionName;                // set-default
  std::vector<BitVec> actionArgs;        // set-default
  BitVec value, mask;                    // value-set ops
  ActionProfileState::Member member;     // profile ops

  static Update insert(std::string table, TableEntry e);
  static Update remove(std::string table, uint64_t id);
  static Update modify(std::string table, TableEntry e);
  static Update setDefault(std::string table, std::string action,
                           std::vector<BitVec> args);
  static Update valueSetInsert(std::string vs, BitVec value, BitVec mask);

  /// One-line human-readable rendering ("insert Ingress.fwd [..] -> act(..)"),
  /// used by the oracle's divergence reports and as the wire format of the
  /// controller's write-ahead journal.
  std::string toString() const;

  /// Parses the exact toString() rendering back into an Update. The text
  /// carries no bit widths, so parsing is schema-directed: `checked` supplies
  /// key widths, match kinds, and action-parameter widths (the same way
  /// P4Runtime messages are only decodable against a pipeline's P4Info).
  /// Round-trip law: fromString(p, u.toString()).toString() == u.toString()
  /// for every update well-formed against `p` — the property crash recovery
  /// replays depend on. Throws std::invalid_argument on malformed text or
  /// unknown objects/actions.
  static Update fromString(const p4::CheckedProgram& checked,
                           std::string_view text);
};

/// The full control-plane configuration of one device/program: every table,
/// value set, and action profile keyed by qualified name. This is what the
/// controller mutates and what Flay specializes against.
class DeviceConfig {
 public:
  /// Builds empty state for every configurable object in the program.
  /// `checked` must outlive this config.
  explicit DeviceConfig(const p4::CheckedProgram& checked);

  TableState& table(const std::string& qualifiedName);
  const TableState& table(const std::string& qualifiedName) const;
  ValueSetState& valueSet(const std::string& qualifiedName);
  const ValueSetState& valueSet(const std::string& qualifiedName) const;
  ActionProfileState& actionProfile(const std::string& qualifiedName);
  const ActionProfileState& actionProfile(
      const std::string& qualifiedName) const;

  bool hasTable(const std::string& qualifiedName) const {
    return tables_.count(qualifiedName) != 0;
  }
  bool hasValueSet(const std::string& qualifiedName) const {
    return valueSets_.count(qualifiedName) != 0;
  }

  /// Deterministic iteration (map is ordered).
  const std::map<std::string, TableState>& tables() const { return tables_; }
  const std::map<std::string, ValueSetState>& valueSets() const {
    return valueSets_;
  }
  const std::map<std::string, ActionProfileState>& actionProfiles() const {
    return profiles_;
  }

  /// Applies one update; returns the qualified name of the touched object.
  /// Throws std::invalid_argument on malformed updates.
  std::string apply(const Update& update);

  const p4::CheckedProgram& checkedProgram() const { return *checked_; }

 private:
  void applyChecked(const Update& update);

  const p4::CheckedProgram* checked_;
  std::map<std::string, TableState> tables_;
  std::map<std::string, ValueSetState> valueSets_;
  std::map<std::string, ActionProfileState> profiles_;
};

}  // namespace flay::runtime

#endif  // FLAY_RUNTIME_DEVICE_CONFIG_H
