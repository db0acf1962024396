#include "flay/check_engine.h"

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "expr/analysis.h"
#include "obs/obs.h"

namespace flay::flay {

using expr::ExprRef;

namespace {

struct EngineObs {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& prefetchBatches = reg.counter("parallel.prefetch_batches");
  obs::Counter& prefetchQueries = reg.counter("parallel.prefetch_queries");
  obs::Counter& syncProbes = reg.counter("parallel.sync_probes");
  obs::Counter& memoHits = reg.counter("cache.hits");
  obs::Counter& memoMisses = reg.counter("cache.misses");
  obs::Histogram& prefetchUs = reg.histogram("parallel.prefetch_us");

  static EngineObs& get() {
    static EngineObs instance;
    return instance;
  }
};

}  // namespace

CheckEngine::CheckEngine(const expr::ExprArena& arena) : arena_(arena) {}

CheckEngine::~CheckEngine() = default;

void CheckEngine::configure(const CheckEngineOptions& options) {
  if (options.jobs != options_.jobs) {
    // Slot count changed: drop the pool and the warm sessions and let the
    // next probe re-warm. Verdicts are facts, so a rebuild can never change
    // an answer.
    pool_.reset();
    sessions_.clear();
  }
  options_ = options;
}

void CheckEngine::ensureSessions() {
  const size_t slots = options_.jobs <= 1 ? 1 : options_.jobs;
  if (sessions_.size() == slots) return;
  sessions_.clear();
  sessions_.reserve(slots);
  for (size_t i = 0; i < slots; ++i) {
    auto session = std::make_unique<smt::ProbeSession>(arena_);
    session->setNodeWatermark(watermark_);
    sessions_.push_back(std::move(session));
  }
}

void CheckEngine::setIncrementalWatermark(uint32_t nodeId) {
  if (nodeId <= watermark_) return;
  watermark_ = nodeId;
  for (auto& s : sessions_) s->setNodeWatermark(watermark_);
}

bool CheckEngine::withinDagLimit(ExprRef e) const {
  return options_.solverDagLimit > 0 &&
         expr::dagSize(arena_, e) <= options_.solverDagLimit;
}

const smt::ConstantProbe* CheckEngine::lookup(uint32_t id) {
  EngineObs& o = EngineObs::get();
  auto it = memo_.find(id);
  if (it == memo_.end()) {
    o.memoMisses.add(1);
    return nullptr;
  }
  o.memoHits.add(1);
  return &it->second;
}

void CheckEngine::prefetch(const std::vector<CheckQuery>& queries) {
  prefetched_.clear();
  if (queries.empty()) return;
  EngineObs& o = EngineObs::get();
  o.prefetchBatches.add(1);
  obs::ScopedTimer timer(o.prefetchUs, "parallel.prefetch");

  // Keep only the checks the verdict path would actually send to the solver:
  // folded constants and over-limit DAGs settle (or stay unknown) without a
  // probe, and hash-consing makes duplicates exact id matches.
  std::vector<const CheckQuery*> pending;
  std::unordered_set<uint32_t> seen;
  for (const CheckQuery& q : queries) {
    if (!q.expr.valid() || arena_.isConst(q.expr)) continue;
    if (!withinDagLimit(q.expr)) continue;
    if (!seen.insert(q.expr.id).second) continue;
    if (const smt::ConstantProbe* hit = lookup(q.expr.id)) {
      prefetched_[q.expr.id] = {*hit, /*fromMemo=*/true};
      continue;
    }
    pending.push_back(&q);
  }
  o.prefetchQueries.add(pending.size());
  if (pending.empty()) return;

  // Probe concurrently: one task per session slot over a contiguous slice,
  // so each (not thread-safe) session is touched by exactly one thread.
  // Workers write disjoint result slots and only read the arena (probes
  // never intern), so the pool's completion barrier is the only
  // synchronization needed. Slicing does not affect verdicts — they are
  // facts, and warm-solve timeouts fall back to the same fresh probe.
  ensureSessions();
  std::vector<smt::ConstantProbe> probes(pending.size());
  auto probeSlice = [this, &pending, &probes](size_t slot, size_t begin,
                                              size_t end) {
    for (size_t i = begin; i < end; ++i) {
      probes[i] = sessions_[slot]->probe(pending[i]->expr, pending[i]->scope,
                                         options_.solverConflictBudget);
    }
  };
  const size_t slots = sessions_.size();
  if (slots == 1 || pending.size() == 1) {
    probeSlice(0, 0, pending.size());
  } else {
    if (pool_ == nullptr) {
      pool_ = std::make_unique<support::ThreadPool>(options_.jobs - 1);
    }
    const size_t chunk = (pending.size() + slots - 1) / slots;
    std::vector<std::function<void()>> tasks;
    for (size_t k = 0; k * chunk < pending.size(); ++k) {
      tasks.push_back([&probeSlice, &pending, k, chunk] {
        probeSlice(k, k * chunk, std::min(pending.size(), (k + 1) * chunk));
      });
    }
    pool_->run(std::move(tasks));
  }

  for (size_t i = 0; i < pending.size(); ++i) {
    const uint32_t id = pending[i]->expr.id;
    if (!probes[i].timedOut) memo_.emplace(id, probes[i]);
    prefetched_[id] = {std::move(probes[i]), /*fromMemo=*/false};
  }
}

smt::ConstantProbe CheckEngine::settle(ExprRef e, const std::string& scope,
                                       CheckOutcome* outcome) {
  if (outcome != nullptr) outcome->solverQueried = true;
  auto staged = prefetched_.find(e.id);
  if (staged != prefetched_.end()) {
    if (outcome != nullptr) {
      outcome->timedOut = staged->second.probe.timedOut;
      outcome->cacheHit = staged->second.fromMemo;
    }
    return staged->second.probe;
  }
  if (const smt::ConstantProbe* hit = lookup(e.id)) {
    if (outcome != nullptr) outcome->cacheHit = true;
    return *hit;
  }
  // Lazy checks run on the coordinating thread; slot 0's session is the
  // designated warm solver for them.
  EngineObs::get().syncProbes.add(1);
  ensureSessions();
  smt::ConstantProbe probe =
      sessions_[0]->probe(e, scope, options_.solverConflictBudget);
  if (outcome != nullptr) outcome->timedOut = probe.timedOut;
  if (!probe.timedOut) memo_.emplace(e.id, probe);
  return probe;
}

TriVerdict CheckEngine::boolVerdict(ExprRef specialized,
                                    const std::string& scope,
                                    CheckOutcome* outcome) {
  if (arena_.isTrue(specialized)) return TriVerdict::kTrue;
  if (arena_.isFalse(specialized)) return TriVerdict::kFalse;
  if (!withinDagLimit(specialized)) return TriVerdict::kUnknown;
  smt::ConstantProbe probe = settle(specialized, scope, outcome);
  if (probe.constant) {
    return probe.boolValue ? TriVerdict::kTrue : TriVerdict::kFalse;
  }
  return TriVerdict::kUnknown;
}

std::optional<BitVec> CheckEngine::constVerdict(ExprRef specialized,
                                               const std::string& scope,
                                               CheckOutcome* outcome) {
  if (arena_.isBool(specialized)) return std::nullopt;
  if (arena_.isConst(specialized)) return arena_.constValue(specialized);
  if (!withinDagLimit(specialized)) return std::nullopt;
  smt::ConstantProbe probe = settle(specialized, scope, outcome);
  if (probe.constant) return probe.value;
  return std::nullopt;
}

void CheckEngine::invalidateScope(const std::string& scope) {
  for (auto& s : sessions_) s->retireScope(scope);
}

}  // namespace flay::flay
