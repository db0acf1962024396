#ifndef FLAY_SMT_INTERNAL_OBS_H
#define FLAY_SMT_INTERNAL_OBS_H

#include <chrono>

#include "obs/obs.h"

// Telemetry handles shared by the SMT facade (solver.cpp) and the
// incremental probe session (incremental.cpp). Internal to src/smt/ — both
// paths must report into the *same* counters so flayc --stats output is
// identical whichever path answered a probe.

namespace flay::smt::internal {

/// Telemetry for the queries Flay issues instead of Z3 calls. The SAT layer
/// below reports its own conflict/propagation counters; these count at the
/// query granularity of §3's analysis.
struct SmtObs {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& checks = reg.counter("smt.checks");
  obs::Counter& satResults = reg.counter("smt.sat_results");
  obs::Counter& unsatResults = reg.counter("smt.unsat_results");
  obs::Counter& unknownResults = reg.counter("smt.unknown_results");
  obs::Counter& validQueries = reg.counter("smt.valid_queries");
  obs::Counter& constantQueries = reg.counter("smt.constant_queries");
  obs::Counter& foldedQueries = reg.counter("smt.folded_queries");
  obs::Histogram& checkUs = reg.histogram("smt.check_us");
  // Encode (Tseitin emission) vs solve (CDCL search) wall time per probe:
  // the two components folded into checkUs, reported separately so the
  // incremental path's encode savings are attributable.
  obs::Histogram& encodeUs = reg.histogram("smt.encode_us");
  obs::Histogram& solveUs = reg.histogram("smt.solve_us");
  // Incremental-session accounting.
  obs::Counter& incrementalProbes = reg.counter("smt.incremental_probes");
  obs::Counter& incrementalFallbacks =
      reg.counter("smt.incremental_fallbacks");
  obs::Counter& groupsOpened = reg.counter("smt.groups_opened");
  obs::Counter& groupsRetired = reg.counter("smt.groups_retired");
  obs::Counter& sessionRebuilds = reg.counter("smt.session_rebuilds");

  static SmtObs& get() {
    static SmtObs instance;
    return instance;
  }
};

/// Accumulates encode-vs-solve wall time within one probe and flushes both
/// into the registry on destruction.
class PhaseTimer {
 public:
  PhaseTimer() = default;
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  ~PhaseTimer() {
    SmtObs& o = SmtObs::get();
    o.encodeUs.record(encodeUs_);
    o.solveUs.record(solveUs_);
  }

  class Scope {
   public:
    explicit Scope(uint64_t& acc)
        : acc_(acc), start_(std::chrono::steady_clock::now()) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      acc_ += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start_)
              .count());
    }

   private:
    uint64_t& acc_;
    std::chrono::steady_clock::time_point start_;
  };

  Scope encode() { return Scope(encodeUs_); }
  Scope solve() { return Scope(solveUs_); }

 private:
  uint64_t encodeUs_ = 0;
  uint64_t solveUs_ = 0;
};

}  // namespace flay::smt::internal

#endif  // FLAY_SMT_INTERNAL_OBS_H
