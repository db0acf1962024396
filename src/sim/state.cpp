#include "sim/state.h"

#include <stdexcept>

namespace flay::sim {

DataPlaneState::DataPlaneState(const p4::CheckedProgram& checked) {
  for (const auto& control : checked.program.controls) {
    for (const auto& r : control.registers) {
      RegisterArray arr;
      arr.width = r.width;
      arr.size = r.size;
      registers_.emplace(control.name + "." + r.name, std::move(arr));
    }
    for (const auto& c : control.counters) {
      counters_.emplace(control.name + "." + c.name,
                        std::vector<uint64_t>(c.size, 0));
    }
    for (const auto& m : control.meters) {
      meters_.emplace(control.name + "." + m.name,
                      std::vector<uint32_t>(m.size, 0));
    }
  }
}

const DataPlaneState::RegisterArray& DataPlaneState::reg(
    const std::string& qualified) const {
  auto it = registers_.find(qualified);
  if (it == registers_.end()) {
    throw std::invalid_argument("unknown register '" + qualified + "'");
  }
  return it->second;
}

BitVec DataPlaneState::registerRead(const std::string& qualified,
                                    uint64_t index) const {
  const RegisterArray& arr = reg(qualified);
  // Out-of-range indices read zero, matching BMv2's forgiving behaviour;
  // registerWrite() never stores them.
  auto cell = arr.cells.find(index);
  return cell == arr.cells.end() ? BitVec::zero(arr.width) : cell->second;
}

void DataPlaneState::registerWrite(const std::string& qualified,
                                   uint64_t index, const BitVec& value) {
  auto it = registers_.find(qualified);
  if (it == registers_.end()) {
    throw std::invalid_argument("unknown register '" + qualified + "'");
  }
  if (index >= it->second.size) return;  // silently dropped
  it->second.cells[index] = value;
}

void DataPlaneState::counterIncrement(const std::string& qualified,
                                      uint64_t index) {
  auto it = counters_.find(qualified);
  if (it == counters_.end()) {
    throw std::invalid_argument("unknown counter '" + qualified + "'");
  }
  if (index < it->second.size()) ++it->second[index];
}

uint64_t DataPlaneState::counterValue(const std::string& qualified,
                                      uint64_t index) const {
  auto it = counters_.find(qualified);
  if (it == counters_.end()) {
    throw std::invalid_argument("unknown counter '" + qualified + "'");
  }
  return index < it->second.size() ? it->second[index] : 0;
}

uint32_t DataPlaneState::meterExecute(const std::string& qualified,
                                      uint64_t index) const {
  auto it = meters_.find(qualified);
  if (it == meters_.end()) {
    throw std::invalid_argument("unknown meter '" + qualified + "'");
  }
  return index < it->second.size() ? it->second[index] : 0;
}

void DataPlaneState::meterSetColor(const std::string& qualified,
                                   uint64_t index, uint32_t color) {
  auto it = meters_.find(qualified);
  if (it == meters_.end()) {
    throw std::invalid_argument("unknown meter '" + qualified + "'");
  }
  if (index < it->second.size()) it->second[index] = color & 3;
}

std::map<std::string, std::string> DataPlaneState::externSnapshot() const {
  std::map<std::string, std::string> snap;
  for (const auto& [name, arr] : registers_) {
    for (const auto& [index, value] : arr.cells) {
      if (!value.isZero()) {
        snap[name + "[" + std::to_string(index) + "]"] = value.toHexString();
      }
    }
  }
  for (const auto& [name, cells] : counters_) {
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i] != 0) {
        snap[name + "[" + std::to_string(i) + "]"] = std::to_string(cells[i]);
      }
    }
  }
  for (const auto& [name, cells] : meters_) {
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i] != 0) {
        snap[name + "[" + std::to_string(i) + "]"] = std::to_string(cells[i]);
      }
    }
  }
  return snap;
}

void DataPlaneState::reset() {
  for (auto& [name, arr] : registers_) arr.cells.clear();
  for (auto& [name, cells] : counters_) {
    for (auto& c : cells) c = 0;
  }
  for (auto& [name, cells] : meters_) {
    for (auto& c : cells) c = 0;
  }
}

}  // namespace flay::sim
