#ifndef FLAY_SIM_STATE_H
#define FLAY_SIM_STATE_H

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "p4/typecheck.h"
#include "support/bitvec.h"

namespace flay::sim {

/// Mutable data-plane state that persists across packets: register arrays,
/// counters, and meter configurations. Keyed by qualified extern name
/// ("Ingress.flow_bytes"). Register arrays hold only the cells written so
/// far, so constructing and resetting the state costs O(externs), not
/// O(cells).
class DataPlaneState {
 public:
  explicit DataPlaneState(const p4::CheckedProgram& checked);

  BitVec registerRead(const std::string& qualified, uint64_t index) const;
  void registerWrite(const std::string& qualified, uint64_t index,
                     const BitVec& value);

  void counterIncrement(const std::string& qualified, uint64_t index);
  uint64_t counterValue(const std::string& qualified, uint64_t index) const;

  /// Meters are modeled as a configured color per index (0 = green by
  /// default); tests and workloads set colors to exercise meter branches.
  uint32_t meterExecute(const std::string& qualified, uint64_t index) const;
  void meterSetColor(const std::string& qualified, uint64_t index,
                     uint32_t color);

  void reset();

  /// Sparse rendering of every extern cell that differs from its initial
  /// value ("Ingress.flow_bytes[5]" -> "0x2a"). Two states over different
  /// (but behaviourally equivalent) programs compare equal exactly when all
  /// their non-default cells agree — the extern half of the oracle's
  /// divergence check.
  std::map<std::string, std::string> externSnapshot() const;

 private:
  struct RegisterArray {
    uint32_t width = 0;
    uint64_t size = 0;
    /// Written cells by index; a cell never written reads as zero.
    std::unordered_map<uint64_t, BitVec> cells;
  };
  const RegisterArray& reg(const std::string& qualified) const;

  std::map<std::string, RegisterArray> registers_;
  std::map<std::string, std::vector<uint64_t>> counters_;
  std::map<std::string, std::vector<uint32_t>> meters_;
};

}  // namespace flay::sim

#endif  // FLAY_SIM_STATE_H
