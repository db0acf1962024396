#include "workloads.h"

#include <algorithm>
#include <stdexcept>

#include "net/workloads.h"

namespace perfbench {

using flay::BitVec;
using flay::runtime::TableEntry;
using flay::runtime::Update;

namespace {

// churn_switch tables held near the encoder's over-approximation threshold
// (100 entries) from below: every update re-encodes the touched table's
// whole precedence chain and normalizes it, the cost that grows with table
// size. They are chosen so that no precise table keys on a field another
// precise table writes: nested precise encodings multiply in size, and the
// canonical rendering behind stateDigest() grows with them.
const std::vector<const char*> kSwitchPreciseTables = {
    "SwitchIngress.ipv4_lpm",
    "SwitchIngress.ipv6_lpm",
    "SwitchIngress.port_security",
    "SwitchIngress.ingress_acl",
};
constexpr size_t kSwitchPreciseLo = 85;
constexpr size_t kSwitchPreciseHi = 99;
// churn_switch tables past the threshold, which bring the config to ~2.7k
// entries: their churn is cheap to encode but still pays normalize.
const std::vector<std::pair<const char*, size_t>> kSwitchLargeTables = {
    {"SwitchIngress.ipv4_host", 800}, {"SwitchIngress.ipv6_host", 500},
    {"SwitchIngress.snat", 400},      {"SwitchIngress.dmac_fwd", 300},
    {"SwitchIngress.smac_learn", 300},
};
// churn_switch tables kept at 0..2 entries: an insert into an empty one or
// the delete that empties it flips a specialization decision, which is where
// this workload's few recompiles come from.
const std::vector<const char*> kSwitchSmallTables = {
    "SwitchIngress.qos_map",
    "SwitchIngress.cpu_punt",
    "SwitchIngress.dscp_rewrite",
};
constexpr double kSwitchPreciseWeight = 12;
constexpr double kSwitchLargeWeight = 1;
constexpr double kSwitchSmallWeight = 0.5;

constexpr size_t kScionBandHi = 8;
constexpr uint64_t kScionFlipPercent = 25;

constexpr size_t kFibRoutes = 1200;
constexpr const char* kFibRoutesTable = "BulkIngress.routes";
constexpr const char* kFibAclTable = "BulkIngress.acl";

}  // namespace

std::optional<WorkloadKind> parseWorkload(const std::string& name) {
  if (name == "churn_switch") return WorkloadKind::kChurnSwitch;
  if (name == "respec_scion") return WorkloadKind::kRespecScion;
  if (name == "fib_forward") return WorkloadKind::kFibForward;
  return std::nullopt;
}

const char* workloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kChurnSwitch: return "churn_switch";
    case WorkloadKind::kRespecScion: return "respec_scion";
    case WorkloadKind::kFibForward: return "fib_forward";
  }
  return "?";
}

// Why each workload exists, and the layer it loads:
//  - churn_switch: per-update analysis cost that grows with table size
//    (encode, normalize/digest, substitute, arena growth) and the verdict
//    cache's memory; few packets, few recompiles.
//  - respec_scion: specialize, the check engine, recheck, device compile and
//    install, and config migration; tables stay small, recompiles are common.
//  - fib_forward: per-packet lookup/interpret and per-update epoch adoption
//    at 1.2k routes; reads the TableState that churn_switch writes.
WorkloadSpec workloadSpec(WorkloadKind kind) {
  WorkloadSpec spec;
  spec.kind = kind;
  switch (kind) {
    case WorkloadKind::kChurnSwitch:
      spec.program = "switch";
      spec.packetsPerUpdate = 4;
      spec.freshPacketsPerUpdate = 4;
      spec.updatesPerSecond = 65;
      break;
    case WorkloadKind::kRespecScion:
      spec.program = "scion";
      spec.packetsPerUpdate = 8;
      spec.freshPacketsPerUpdate = 8;
      spec.updatesPerSecond = 450;
      break;
    case WorkloadKind::kFibForward:
      spec.program = "bulkroute";
      spec.packetsPerUpdate = 96;
      // Generating a packet scans every installed route to steer its key,
      // which costs more than forwarding it, so only a sixth are fresh.
      spec.freshPacketsPerUpdate = 16;
      spec.updatesPerSecond = 85;
      // bulkroute declares a 1.25M-entry FIB; give the device the TCAM and
      // SRAM to place it, or every install is rejected.
      spec.pipeline.tcamBlocksPerStage = 512;
      spec.pipeline.sramBlocksPerStage = 1024;
      break;
  }
  return spec;
}

UpdateGenerator::UpdateGenerator(const flay::p4::CheckedProgram& checked,
                                 WorkloadKind kind, uint64_t seed)
    : kind_(kind),
      seed_(seed),
      replay_(checked),
      fuzzer_(seed ^ 0x5DEECE66Dull),
      rng_(seed) {
  switch (kind_) {
    case WorkloadKind::kChurnSwitch:
      for (const char* table : kSwitchPreciseTables) {
        bands_.push_back(
            {table, kSwitchPreciseLo, kSwitchPreciseHi, kSwitchPreciseWeight});
      }
      for (const auto& [table, target] : kSwitchLargeTables) {
        bands_.push_back({table, target - target / 20, target + target / 20,
                          kSwitchLargeWeight});
      }
      for (const char* table : kSwitchSmallTables) {
        bands_.push_back({table, 0, 2, kSwitchSmallWeight});
      }
      break;
    case WorkloadKind::kRespecScion:
      for (const auto& [name, table] : replay_.tables()) {
        bands_.push_back({name, 0, kScionBandHi, 1});
      }
      break;
    case WorkloadKind::kFibForward:
      bands_.push_back(
          {kFibRoutesTable, kFibRoutes - kFibRoutes / 50,
           kFibRoutes + kFibRoutes / 50, 1});
      bands_.push_back({kFibAclTable, kFibRoutes / 64 - 8, kFibRoutes / 64 + 8, 0});
      break;
  }
  for (const Band& b : bands_) {
    if (!replay_.hasTable(b.table)) {
      throw std::logic_error("workload names unknown table " + b.table);
    }
  }
}

bool UpdateGenerator::accept(const Update& u) {
  uint64_t id = 0;
  if (u.kind == Update::Kind::kInsert) id = replay_.table(u.target).nextId();
  try {
    replay_.apply(u);
  } catch (const std::invalid_argument&) {
    return false;
  }
  if (u.kind == Update::Kind::kInsert) {
    ids_[u.target].push_back(id);
  } else if (u.kind == Update::Kind::kDelete) {
    std::vector<uint64_t>& ids = ids_[u.target];
    ids.erase(std::find(ids.begin(), ids.end(), u.entry.id));
  }
  pending_.push_back(u);
  return true;
}

bool UpdateGenerator::tryInsert(const std::string& table) {
  const flay::runtime::TableState& state = replay_.table(table);
  TableEntry e;
  try {
    e = fuzzer_.uniqueEntries(state, 1).at(0);
  } catch (const std::invalid_argument&) {
    return false;
  }
  // Fresh priorities keep successive single-entry draws distinct.
  if (state.usesPriority()) {
    e.priority = static_cast<int32_t>(1 + rng_() % 100000);
  }
  return accept(Update::insert(table, std::move(e)));
}

bool UpdateGenerator::tryDelete(const std::string& table) {
  const std::vector<uint64_t>& ids = ids_[table];
  if (ids.empty()) return false;
  return accept(Update::remove(table, ids[rng_() % ids.size()]));
}

bool UpdateGenerator::tryFlipDefault(const std::string& table) {
  const flay::runtime::TableState& state = replay_.table(table);
  std::vector<std::string> actions;
  for (const std::string& a : state.decl().actionNames) {
    // Default flips on scion's last hop tables (v4_t11, v6_t15, the ones
    // with a drop action) leave a specialized program that the oracle sees
    // drop packets the original forwards, and the run's memory grows to
    // ~1 GB. Tables that can drop are kept out of the flips so that the
    // workload runs clean; the divergence is a Flay defect, not the
    // benchmark's to measure.
    if (a == "drop_pkt") return false;
    if (a != state.defaultActionName()) actions.push_back(a);
  }
  if (actions.empty()) return false;
  const std::string& action = actions[rng_() % actions.size()];
  std::vector<BitVec> args;
  if (const flay::p4::ActionDecl* decl = state.control().findAction(action)) {
    for (const auto& p : decl->params) args.push_back(fuzzer_.randomValue(p.width));
  }
  return accept(Update::setDefault(table, action, std::move(args)));
}

const UpdateGenerator::Band& UpdateGenerator::pickBand() {
  double total = 0;
  for (const Band& b : bands_) total += b.weight;
  double r = std::uniform_real_distribution<double>(0, total)(rng_);
  for (const Band& b : bands_) {
    if (r < b.weight) return b;
    r -= b.weight;
  }
  return bands_.back();
}

void UpdateGenerator::churnStep() {
  const Band& b = pickBand();
  size_t n = replay_.table(b.table).size();
  // A rejected draw (duplicate key, empty table) leaves nothing pending and
  // the caller draws again.
  if (n < b.lo || (n < b.hi && rng_() % 2 == 0)) {
    tryInsert(b.table);
  } else {
    tryDelete(b.table);
  }
}

std::vector<Update> UpdateGenerator::preload() {
  switch (kind_) {
    case WorkloadKind::kChurnSwitch:
      // Routed packets leave on a port instead of all being dropped.
      accept(Update::setDefault(
          "SwitchIngress.nexthop_rewrite", "rewrite_l2",
          {BitVec(48, 0x02000000000aull), BitVec(48, 0x02000000000bull),
           BitVec(9, 5)}));
      for (const Band& b : bands_) {
        size_t target = (b.lo + b.hi) / 2;
        if (b.hi <= 2) target = rng_() % (b.hi + 1);
        for (size_t guard = 0;
             replay_.table(b.table).size() < target && guard < target * 8;
             ++guard) {
          tryInsert(b.table);
        }
      }
      break;
    case WorkloadKind::kRespecScion:
      for (const Band& b : bands_) {
        size_t target = rng_() % (b.hi / 2 + 1);
        for (size_t guard = 0;
             replay_.table(b.table).size() < target && guard < target * 8;
             ++guard) {
          tryInsert(b.table);
        }
      }
      break;
    case WorkloadKind::kFibForward:
      // Every packet lands in VRF 1, the VRF of every route below.
      accept(Update::setDefault("BulkIngress.vrf_assign", "set_vrf",
                                {BitVec(16, 1)}));
      while (replay_.table(kFibRoutesTable).size() < kFibRoutes) {
        if (!accept(flay::net::bulkRouteUpdate(nextRoute_++, seed_))) {
          throw std::logic_error("bulk route stream produced an invalid update");
        }
      }
      break;
  }
  std::vector<Update> out;
  out.swap(pending_);
  return out;
}

Update UpdateGenerator::next() {
  for (size_t attempt = 0; attempt < 1000 && pending_.empty(); ++attempt) {
    switch (kind_) {
      case WorkloadKind::kChurnSwitch:
        churnStep();
        break;
      case WorkloadKind::kRespecScion:
        if (rng_() % 100 < kScionFlipPercent) {
          tryFlipDefault(pickBand().table);
        } else {
          churnStep();
        }
        break;
      case WorkloadKind::kFibForward: {
        const Band& routes = bands_[0];
        const Band& acl = bands_[1];
        size_t nRoutes = replay_.table(routes.table).size();
        if (replay_.table(acl.table).size() > acl.hi) {
          tryDelete(acl.table);
        } else if (nRoutes < routes.lo ||
                   (nRoutes < routes.hi && rng_() % 2 == 0)) {
          if (!accept(flay::net::bulkRouteUpdate(nextRoute_++, seed_))) {
            throw std::logic_error("bulk route stream produced an invalid update");
          }
        } else {
          tryDelete(routes.table);
        }
        break;
      }
    }
  }
  if (pending_.empty()) {
    throw std::runtime_error("workload generator could not produce an update");
  }
  Update u = std::move(pending_.front());
  pending_.clear();
  return u;
}

std::map<std::string, size_t> UpdateGenerator::entriesPerTable() const {
  std::map<std::string, size_t> out;
  for (const auto& [name, table] : replay_.tables()) {
    if (!table.empty()) out[name] = table.size();
  }
  return out;
}

}  // namespace perfbench
