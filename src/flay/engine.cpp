#include "flay/engine.h"

#include <algorithm>
#include <stdexcept>

#include "expr/analysis.h"

#include "expr/canonical.h"
#include "expr/substitute.h"
#include "obs/obs.h"

namespace flay::flay {

using expr::ExprRef;

namespace {

/// Global handles for the update-hot-path telemetry, resolved once. The
/// registry guarantees handle stability, so caching references here keeps
/// the per-update cost to atomic increments.
struct EngineObs {
  obs::Registry& reg = obs::Registry::global();
  obs::Counter& updates = reg.counter("flay.updates");
  obs::Counter& batches = reg.counter("flay.batches");
  obs::Counter& taintedPoints = reg.counter("flay.tainted_points");
  obs::Counter& recompileVerdicts = reg.counter("flay.recompile_verdicts");
  obs::Counter& exprChangeVerdicts = reg.counter("flay.expr_change_verdicts");
  obs::Counter& overapproximations = reg.counter("flay.overapproximations");
  obs::Counter& batchAborts = reg.counter("flay.batch_aborts");
  obs::Histogram& configApplyUs = reg.histogram("flay.config_apply_us");
  obs::Histogram& batchApplyUs = reg.histogram("flay.batch_apply_us");
  obs::Histogram& analyzeUs = reg.histogram("flay.analyze_us");
  obs::Histogram& closureUs = reg.histogram("flay.closure_us");
  obs::Histogram& encodeUs = reg.histogram("flay.encode_us");
  obs::Histogram& digestUs = reg.histogram("flay.digest_us");
  obs::Histogram& substituteUs = reg.histogram("flay.substitute_us");
  obs::Counter& bulkLoads = reg.counter("flay.bulk_loads");
  obs::Counter& bulkChunks = reg.counter("flay.bulk_chunks");
  obs::Counter& bulkRejected = reg.counter("flay.bulk_rejected");
  obs::Histogram& bulkVerdictUs = reg.histogram("flay.bulk_verdict_us");

  static EngineObs& get() {
    static EngineObs instance;
    return instance;
  }
};

uint64_t microsSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

FlayService::FlayService(const p4::CheckedProgram& checked, FlayOptions options)
    : checked_(checked),
      options_(options),
      arena_(std::make_unique<expr::ExprArena>()) {
  SymbolicExecutor executor(checked_, *arena_, options_.analysis);
  analysis_ = executor.run();
  config_ = std::make_unique<runtime::DeviceConfig>(checked_);
  encoder_ = std::make_unique<ControlPlaneEncoder>(*arena_, analysis_,
                                                   options_.encoder);
  checkEngine_ = std::make_unique<CheckEngine>(*arena_);
  buildObjectDependencies();
  auto start = std::chrono::steady_clock::now();
  respecializeAll();
  preprocessTime_ = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
}

void FlayService::buildObjectDependencies() {
  // A table must be re-encoded whenever an object it reads changes: another
  // object whose placeholders its key expressions mention (chained tables:
  // a key on a metadata field written by an upstream table's action), and
  // the action profile backing it. Value sets read nothing: the parser runs
  // path by path, so a select sees only what its own path extracted or set,
  // never a placeholder.
  //
  // Value sets come first in the re-encoding order: they live in the
  // parser, so a table's key expression can embed a value-set use symbol
  // but never the reverse. Encoding a table before the value set it
  // mentions is rebound would match its keys under the stale value.
  for (const auto& use : analysis_.valueSetUses) {
    objectOrderIndex_.emplace(use.qualified, objectOrderIndex_.size());
  }
  for (const auto& info : analysis_.tables) {
    objectOrderIndex_.emplace(info.qualified, objectOrderIndex_.size());
    std::set<std::string> owners;
    for (ExprRef k : info.keyExprs) {
      for (uint32_t s : expr::collectSymbols(
               *arena_, k, expr::SymbolClass::kControlPlane)) {
        auto it = analysis_.symbolOwner.find(s);
        if (it != analysis_.symbolOwner.end()) owners.insert(it->second);
      }
    }
    if (!info.decl->actionProfile.empty()) {
      owners.insert(info.control->name + "." + info.decl->actionProfile);
    }
    owners.erase(info.qualified);
    for (const auto& o : owners) objectDependents_[o].insert(info.qualified);
  }
}

const std::vector<std::string>& FlayService::closureOf(
    const std::string& object) {
  auto cached = closureCache_.find(object);
  if (cached != closureCache_.end()) return cached->second;
  // Transitive closure over the dependents relation. The graph is built
  // once in buildObjectDependencies() and never mutated, so the result is
  // memoized: a burst re-touching the same table pays one map lookup
  // instead of a graph walk per batch.
  std::set<std::string> closure{object};
  std::vector<std::string> frontier{object};
  while (!frontier.empty()) {
    std::string o = std::move(frontier.back());
    frontier.pop_back();
    auto it = objectDependents_.find(o);
    if (it == objectDependents_.end()) continue;
    for (const auto& d : it->second) {
      if (closure.insert(d).second) frontier.push_back(d);
    }
  }
  return closureCache_
      .emplace(object,
               std::vector<std::string>(closure.begin(), closure.end()))
      .first->second;
}

std::vector<std::string> FlayService::dependencyClosure(
    const std::set<std::string>& objects) {
  std::set<std::string> closure;
  for (const auto& o : objects) {
    const std::vector<std::string>& c = closureOf(o);
    closure.insert(c.begin(), c.end());
  }
  // Emit in program order so upstream bindings are resolved before any
  // downstream encoding reads them; objects outside the known order (action
  // profiles, which encode nothing themselves) go last, in name order.
  auto rank = [this](const std::string& o) {
    auto it = objectOrderIndex_.find(o);
    return it == objectOrderIndex_.end() ? objectOrderIndex_.size()
                                         : it->second;
  };
  std::vector<std::string> ordered(closure.begin(), closure.end());
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&rank](const std::string& a, const std::string& b) {
                     return rank(a) < rank(b);
                   });
  return ordered;
}

void FlayService::rebindObject(const std::string& object,
                               expr::Substitution& assignment,
                               bool* overapproximated) {
  // The assignment already holds the upstream objects' new values, so a
  // chained table's encoding comes back resolved.
  std::vector<Binding> bindings;
  if (config_->hasTable(object)) {
    bindings = encoder_->encodeTable(analysis_.table(object),
                                     config_->table(object), *config_,
                                     overapproximated, &assignment);
  } else if (config_->hasValueSet(object)) {
    bindings = encoder_->encodeValueSet(object, config_->valueSet(object));
  }
  for (const auto& b : bindings) {
    if (b.value.valid()) {
      bindings_[b.symbol] = b.value;
      assignment.bind(b.symbol, b.value);
    } else {
      bindings_.erase(b.symbol);  // over-approximation: leave free
      assignment.bind(b.symbol, b.symbol);
    }
  }
}

expr::Substitution FlayService::currentAssignment() const {
  expr::Substitution subst(*arena_);
  for (const auto& [symbol, value] : bindings_) subst.bind(symbol, value);
  return subst;
}

std::string FlayService::pointDigest(expr::ExprRef specialized) const {
  if (arena_->isTrue(specialized)) return "T";
  if (arena_->isFalse(specialized)) return "F";
  if (arena_->isConst(specialized)) {
    return arena_->constValue(specialized).toHexString();
  }
  return "";  // non-constant: the general implementation is already needed
}

std::string FlayService::tableDigest(const std::string& qualified) const {
  TableShape shape = tableShape(qualified);
  std::string d = shape.empty ? "empty;" : "live;";
  // The default action by name, not just as a member of the action set: a
  // table whose hit specializes to false has its default's body inlined,
  // so a set-default to an action some entry already uses still changes
  // the specialized program.
  d += shape.defaultAction + ";";
  for (const auto& a : shape.actions) d += a + ",";
  const auto& keys = config_->table(qualified).decl().keys;
  for (size_t k = 0; k < keys.size(); ++k) {
    if (keys[k].matchKind == p4::MatchKind::kExact) continue;
    d += shape.exactable[k] ? ";exactable" : ";masked";
  }
  return d;
}

UpdateVerdict FlayService::analyzeObjects(const std::set<std::string>& objects) {
  EngineObs& eobs = EngineObs::get();
  obs::ScopedTimer analyzeTimer(eobs.analyzeUs, "flay.analyze");
  auto start = std::chrono::steady_clock::now();
  UpdateVerdict verdict;
  uint64_t tableDigestUs = 0;
  uint64_t pointDigestUs = 0;

  // Everything interned before this round — program structure and surviving
  // specializations alike — is shared across the probes that follow, so the
  // warm solvers may encode it into their permanent clause group. Nodes the
  // rebinding below interns fresh belong to this round's components and go
  // into retirable scope groups.
  checkEngine_->setIncrementalWatermark(
      static_cast<uint32_t>(arena_->numNodes()));

  // Re-encode the updated objects plus every object whose encoding depends
  // on them, upstream first. One substitution serves the whole round: it
  // starts as the current assignment, takes each re-encoded object's new
  // values (so the tables downstream match under them), and then
  // specializes the affected points.
  std::vector<std::string> closure;
  {
    obs::ScopedTimer t(eobs.closureUs, "flay.closure");
    closure = dependencyClosure(objects);
  }
  expr::Substitution assignment = currentAssignment();
  uint64_t encodeUs = 0;
  for (const auto& object : closure) {
    auto encodeStart = std::chrono::steady_clock::now();
    bool over = false;
    rebindObject(object, assignment, &over);
    verdict.overapproximated |= over;
    encodeUs += microsSince(encodeStart);
    // Structural change check (Fig. 3 C->D: match-kind shape, action sets).
    if (config_->hasTable(object)) {
      auto digestStart = std::chrono::steady_clock::now();
      std::string digest = tableDigest(object);
      auto [it, inserted] = tableDigests_.try_emplace(object, digest);
      if (!inserted && it->second != digest) {
        verdict.needsRecompilation = true;
        verdict.changedComponents.insert(object);
        it->second = std::move(digest);
      }
      tableDigestUs += microsSince(digestStart);
    }
  }
  eobs.encodeUs.record(encodeUs);

  // The shared memo makes repeated subtrees across points cheap.
  auto substituteStart = std::chrono::steady_clock::now();

  // Affected points: union of the taint sets of the touched objects — or,
  // with the ablation knob off, every point in the program.
  std::set<uint32_t> affected;
  if (options_.useTaintMap) {
    for (const auto& object : closure) {
      for (uint32_t id : analysis_.annotations.affectedPoints(object)) {
        affected.insert(id);
      }
    }
  } else {
    for (const auto& p : analysis_.annotations.points()) {
      affected.insert(p.id);
    }
  }
  eobs.taintedPoints.add(affected.size());
  if (pointDigests_.size() < analysis_.annotations.points().size()) {
    pointDigests_.resize(analysis_.annotations.points().size());
  }
  for (uint32_t id : affected) {
    ProgramPoint& p = analysis_.annotations.point(id);
    ExprRef specialized = assignment.apply(p.expr);
    if (specialized == p.specialized) continue;  // O(1): hash-consed refs
    p.specialized = specialized;
    verdict.changedPoints.push_back(id);
    // The recompile decision: did the point's *verdict* (constant vs
    // general) flip, not merely its expression?
    auto digestStart = std::chrono::steady_clock::now();
    std::string digest = pointDigest(specialized);
    if (digest != pointDigests_[id]) {
      pointDigests_[id] = std::move(digest);
      verdict.needsRecompilation = true;
      verdict.changedComponents.insert(p.component);
    }
    pointDigestUs += microsSince(digestStart);
  }
  uint64_t substituteUs = microsSince(substituteStart);
  eobs.substituteUs.record(substituteUs > pointDigestUs
                               ? substituteUs - pointDigestUs
                               : 0);
  // Points of these components now carry different specialized
  // expressions: retire the warm clause groups that encoded the old ones
  // before anything probes the new ones. (The verdict memo stays — a
  // verdict is a permanent fact about its expression id.)
  {
    std::set<std::string> respecialized;
    for (uint32_t id : verdict.changedPoints) {
      respecialized.insert(analysis_.annotations.point(id).component);
    }
    for (const auto& component : respecialized) {
      checkEngine_->invalidateScope(component);
    }
  }
  eobs.digestUs.record(tableDigestUs + pointDigestUs);
  verdict.expressionsChanged = !verdict.changedPoints.empty();
  if (verdict.expressionsChanged) eobs.exprChangeVerdicts.add(1);
  if (verdict.needsRecompilation) eobs.recompileVerdicts.add(1);
  if (verdict.overapproximated) eobs.overapproximations.add(1);
  verdict.analysisTime = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start);
  notifyAnalyses(verdict);
  return verdict;
}

UpdateVerdict FlayService::applyUpdate(const runtime::Update& update) {
  EngineObs& eobs = EngineObs::get();
  std::string object;
  {
    obs::ScopedTimer t(eobs.configApplyUs, "flay.config_apply");
    object = config_->apply(update);
  }
  eobs.updates.add(1);
  return analyzeObjects({object});
}

UpdateVerdict FlayService::applyBatch(
    const std::vector<runtime::Update>& updates) {
  EngineObs& eobs = EngineObs::get();
  eobs.batches.add(1);
  std::set<std::string> objects;
  // config_apply_us is a *per-apply* latency histogram: one sample per
  // update, in the abort path too. The whole-loop time goes to the separate
  // batch_apply_us histogram, so batch size never skews per-apply quantiles.
  auto batchStart = std::chrono::steady_clock::now();
  for (const auto& u : updates) {
    auto applyStart = std::chrono::steady_clock::now();
    try {
      objects.insert(config_->apply(u));
    } catch (...) {
      eobs.configApplyUs.record(microsSince(applyStart));
      eobs.batchApplyUs.record(microsSince(batchStart));
      eobs.batchAborts.add(1);
      // Updates before the malformed one are already installed in the
      // config; re-analyze that prefix before surfacing the error so the
      // annotations never get out of sync with the installed state.
      if (!objects.empty()) analyzeObjects(objects);
      throw;
    }
    eobs.configApplyUs.record(microsSince(applyStart));
    eobs.updates.add(1);
  }
  eobs.batchApplyUs.record(microsSince(batchStart));
  return analyzeObjects(objects);
}

BulkLoadReport FlayService::applyStream(const UpdateSource& source,
                                        const BulkLoadOptions& options,
                                        const BulkChunkCallback& cb) {
  EngineObs& eobs = EngineObs::get();
  eobs.bulkLoads.add(1);
  const size_t chunkSize = std::max<size_t>(options.chunkSize, 1);
  BulkLoadReport report;
  bool exhausted = false;
  while (!exhausted) {
    BulkChunkVerdict chunk;
    chunk.chunkIndex = report.chunks;
    std::set<std::string> objects;
    auto chunkStart = std::chrono::steady_clock::now();
    while (chunk.updates < chunkSize) {
      std::optional<runtime::Update> u = source();
      if (!u) {
        exhausted = true;
        break;
      }
      ++chunk.updates;
      auto applyStart = std::chrono::steady_clock::now();
      try {
        objects.insert(config_->apply(*u));
      } catch (const std::invalid_argument&) {
        // Same contract as a sequential replay that skips rejections:
        // nothing changed, count and move on.
        eobs.configApplyUs.record(microsSince(applyStart));
        ++chunk.rejected;
        eobs.bulkRejected.add(1);
        continue;
      }
      eobs.configApplyUs.record(microsSince(applyStart));
      eobs.updates.add(1);
      ++chunk.applied;
      if (options.collectApplied) {
        chunk.appliedUpdates.push_back(std::move(*u));
      }
    }
    if (chunk.updates == 0) break;
    if (!objects.empty()) chunk.verdict = analyzeObjects(objects);
    chunk.verdictLatencyUs = microsSince(chunkStart);
    eobs.bulkVerdictUs.record(chunk.verdictLatencyUs);
    eobs.bulkChunks.add(1);
    report.updates += chunk.updates;
    report.applied += chunk.applied;
    report.rejected += chunk.rejected;
    ++report.chunks;
    report.expressionsChanged |= chunk.verdict.expressionsChanged;
    report.needsRecompilation |= chunk.verdict.needsRecompilation;
    report.overapproximated |= chunk.verdict.overapproximated;
    report.changedComponents.insert(chunk.verdict.changedComponents.begin(),
                                    chunk.verdict.changedComponents.end());
    if (cb) cb(chunk);
  }
  return report;
}

BulkLoadReport FlayService::bulkLoad(const std::vector<runtime::Update>& updates,
                                     const BulkLoadOptions& options,
                                     const BulkChunkCallback& cb) {
  size_t next = 0;
  return applyStream(
      [&]() -> std::optional<runtime::Update> {
        if (next >= updates.size()) return std::nullopt;
        return updates[next++];
      },
      options, cb);
}

ServiceSnapshot FlayService::snapshot() const {
  ServiceSnapshot snap{*config_, bindings_, pointDigests_, tableDigests_, {}};
  const auto& points = analysis_.annotations.points();
  snap.specialized.reserve(points.size());
  for (const auto& p : points) snap.specialized.push_back(p.specialized);
  return snap;
}

void FlayService::restore(const ServiceSnapshot& snap) {
  *config_ = snap.config;
  bindings_ = snap.bindings;
  pointDigests_ = snap.pointDigests;
  tableDigests_ = snap.tableDigests;
  auto& points = analysis_.annotations.points();
  for (size_t i = 0; i < points.size() && i < snap.specialized.size(); ++i) {
    points[i].specialized = snap.specialized[i];
  }
  // The rollback changed the control-plane assignment without an analysis
  // round; attached analyses re-derive their state from the new bindings.
  notifyAnalyses(UpdateVerdict{});
}

void FlayService::adoptConfig(runtime::DeviceConfig config) {
  if (&config.checkedProgram() != &checked_) {
    throw std::invalid_argument(
        "adoptConfig: config was built against a different program");
  }
  *config_ = std::move(config);
  bindings_.clear();
  respecializeAll();
}

std::string FlayService::stateDigest() const {
  expr::Fnv fnv;
  for (const auto& [name, table] : config_->tables()) {
    fnv.mix(name);
    for (const runtime::TableEntry& e : table.entries()) {
      fnv.mix(std::to_string(e.id));
      fnv.mix(e.toString());
    }
    fnv.mix(table.defaultActionName());
    for (const auto& a : table.defaultActionArgs()) fnv.mix(a.toHexString());
    fnv.mix(std::to_string(table.nextId()));
  }
  for (const auto& [name, vs] : config_->valueSets()) {
    fnv.mix(name);
    for (const auto& [value, mask] : vs.members()) {
      fnv.mix(value.toHexString());
      fnv.mix(mask.toHexString());
    }
  }
  for (const auto& [name, prof] : config_->actionProfiles()) {
    fnv.mix(name);
    for (const auto& m : prof.members()) {
      fnv.mix(std::to_string(m.memberId));
      fnv.mix(m.actionName);
      for (const auto& a : m.args) fnv.mix(a.toHexString());
    }
  }
  // Specialized expressions are hashed canonically (commutative chains
  // flattened and hash-sorted): arena ids and the arena's id-ordered
  // operand placement both depend on construction history, which neither a
  // crash recovery nor an alternate update path (bulk load vs sequential
  // replay) shares with the run it is compared against.
  expr::CanonicalHasher hasher(*arena_);
  for (const auto& p : analysis_.annotations.points()) {
    fnv.mix(hasher.hash(p.specialized).hex());
  }
  return fnv.hex();
}

expr::ExprRef FlayService::resolveSymbol(expr::ExprRef symbolExpr) const {
  auto it = bindings_.find(symbolExpr);
  return it == bindings_.end() ? symbolExpr : it->second;
}

void FlayService::respecializeAll() {
  std::set<std::string> objects;
  for (const auto& [name, t] : config_->tables()) objects.insert(name);
  for (const auto& [name, vs] : config_->valueSets()) objects.insert(name);
  // Re-specialize every point, including ones without control-plane taint.
  analyzeObjects(objects);
  expr::Substitution subst = currentAssignment();
  for (auto& p : analysis_.annotations.points()) {
    p.specialized = subst.apply(p.expr);
  }
  // Baseline digests for subsequent recompile-level change detection.
  pointDigests_.resize(analysis_.annotations.points().size());
  for (const auto& p : analysis_.annotations.points()) {
    pointDigests_[p.id] = pointDigest(p.specialized);
  }
  tableDigests_.clear();
  for (const auto& [name, table] : config_->tables()) {
    tableDigests_[name] = tableDigest(name);
  }
}

}  // namespace flay::flay
