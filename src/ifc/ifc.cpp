#include "ifc/ifc.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "expr/analysis.h"
#include "expr/substitute.h"
#include "p4/typecheck.h"

namespace flay::ifc {

namespace {

/// Sorted, deduplicated symbol refs for a set of symbol ids.
std::vector<expr::ExprRef> symbolRefs(
    expr::ExprArena& arena, const std::unordered_set<uint32_t>& ids) {
  std::vector<uint32_t> sorted(ids.begin(), ids.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<expr::ExprRef> out;
  out.reserve(sorted.size());
  for (uint32_t id : sorted) {
    const expr::Symbol& s = arena.symbolInfo(id);
    out.push_back(s.width == 0 ? arena.boolVar(s.name, s.cls)
                               : arena.var(s.name, s.width, s.cls));
  }
  return out;
}

}  // namespace

const char* toString(FlowStatus s) {
  switch (s) {
    case FlowStatus::kSecure: return "SECURE";
    case FlowStatus::kLeak: return "LEAK";
    case FlowStatus::kUnknown: return "UNKNOWN";
  }
  return "?";
}

size_t IfcReport::violations() const {
  size_t n = 0;
  for (const auto& f : flows) n += f.isViolation() ? 1 : 0;
  return n;
}

std::string IfcReport::render() const {
  std::ostringstream out;
  out << "ifc: " << flows.size() << " flow(s), " << violations()
      << " violation(s)\n";
  for (const auto& f : flows) {
    out << "  " << f.label << " -> " << f.sink << ": " << toString(f.status);
    if (!f.sources.empty()) {
      out << " via=";
      for (size_t i = 0; i < f.sources.size(); ++i) {
        out << (i != 0 ? "," : "") << f.sources[i];
      }
    }
    if (!f.declassifiers.empty()) {
      out << " declassify=";
      for (size_t i = 0; i < f.declassifiers.size(); ++i) {
        out << (i != 0 ? "," : "") << f.declassifiers[i];
      }
    }
    out << "\n";
  }
  return out.str();
}

IfcEngine::IfcEngine(flay::FlayService& service, IfcPolicy policy)
    : service_(service), policy_(std::move(policy)) {
  policy_.validate(service_.checkedProgram());
  expr::ExprArena& arena = service_.arena();
  const flay::AnalysisResult& analysis = service_.analysis();
  parserAccept_ = analysis.parserAccept;
  egressHermetic_ = analysis.finalState.at("sm.egress_spec");

  // Source symbols and their primed (self-composition) copies, per label.
  std::map<std::string, p4::FieldInfo> fieldInfo;
  for (const auto& f : service_.checkedProgram().env.fields()) {
    fieldInfo[f.canonical] = f;
  }
  auto sourceRef = [&](const std::string& canonical) -> expr::ExprRef {
    auto it = fieldInfo.find(canonical);
    if (it != fieldInfo.end()) {
      return it->second.isBool
                 ? arena.boolVar(canonical, expr::SymbolClass::kDataPlane)
                 : arena.var(canonical, it->second.width,
                             expr::SymbolClass::kDataPlane);
    }
    // Intrinsic inputs admitted by validate() but absent from env.fields().
    uint32_t width = canonical == "sm.ingress_port" ? p4::kPortWidth : 32;
    return arena.var(canonical, width, expr::SymbolClass::kDataPlane);
  };
  for (const auto& [label, fields] : policy_.labels) {
    for (const auto& f : fields) {
      expr::ExprRef src = sourceRef(f);
      const expr::Symbol& s = arena.symbolInfo(arena.node(src).a);
      std::string primedName = "ifc$" + s.name;
      expr::ExprRef primed =
          s.width == 0 ? arena.boolVar(primedName, s.cls)
                       : arena.var(primedName, s.width, s.cls);
      renames_[label].emplace_back(src, primed);
    }
  }

  // Control-plane placeholders every observation depends on: deliverability
  // (parser accept + final egress) plus the declassified tables' match
  // outcomes. Per-sink deps add the sink value's own placeholders.
  std::unordered_set<uint32_t> globalDeps =
      expr::collectSymbols(arena, egressHermetic_,
                           expr::SymbolClass::kControlPlane);
  for (uint32_t id : expr::collectSymbols(arena, parserAccept_,
                                          expr::SymbolClass::kControlPlane)) {
    globalDeps.insert(id);
  }
  for (const auto& d : policy_.declassify) {
    const flay::TableInfo& info = analysis.table(d.table);
    globalDeps.insert(arena.node(info.hitSymbol).a);
    globalDeps.insert(arena.node(info.actionSymbol).a);
  }

  std::vector<SinkPolicy> sorted = policy_.sinks;
  std::sort(sorted.begin(), sorted.end(),
            [](const SinkPolicy& a, const SinkPolicy& b) {
              return a.field < b.field;
            });
  std::vector<std::string> labels = policy_.labelNames();
  for (const auto& sinkPolicy : sorted) {
    if (sinkPolicy.allowAll) continue;
    SinkState sink;
    sink.field = sinkPolicy.field;
    sink.hermetic = analysis.finalState.at(sinkPolicy.field);
    std::unordered_set<uint32_t> deps = expr::collectSymbols(
        arena, sink.hermetic, expr::SymbolClass::kControlPlane);
    deps.insert(globalDeps.begin(), globalDeps.end());
    sink.cpSymbols = symbolRefs(arena, deps);
    for (const auto& label : labels) {
      if (sinkPolicy.allowed.count(label) != 0) continue;
      FlowState flow;
      flow.verdict.label = label;
      flow.verdict.sink = sinkPolicy.field;
      sink.flowIndices.push_back(flows_.size());
      flows_.push_back(std::move(flow));
    }
    if (!sink.flowIndices.empty()) sinks_.push_back(std::move(sink));
  }
}

bool IfcEngine::refreshResolved(SinkState& sink) {
  bool changed = sink.lastResolved.size() != sink.cpSymbols.size();
  std::vector<expr::ExprRef> resolved;
  resolved.reserve(sink.cpSymbols.size());
  for (size_t i = 0; i < sink.cpSymbols.size(); ++i) {
    expr::ExprRef r = service_.resolveSymbol(sink.cpSymbols[i]);
    changed |= sink.lastResolved.size() <= i || sink.lastResolved[i] != r;
    resolved.push_back(r);
  }
  sink.lastResolved = std::move(resolved);
  return changed;
}

void IfcEngine::bindResolved(const SinkState& sink,
                             expr::Substitution& subst) {
  for (size_t i = 0; i < sink.cpSymbols.size(); ++i) {
    if (sink.lastResolved[i] != sink.cpSymbols[i]) {
      subst.bind(sink.cpSymbols[i], sink.lastResolved[i]);
    }
  }
}

expr::ExprRef IfcEngine::iff(expr::ExprRef a, expr::ExprRef b) {
  expr::ExprArena& arena = service_.arena();
  return arena.bOr(arena.bAnd(a, b), arena.bAnd(arena.bNot(a), arena.bNot(b)));
}

expr::ExprRef IfcEngine::buildQuery(const SinkState& sink, FlowState& flow) {
  expr::ExprArena& arena = service_.arena();
  const std::string& label = flow.verdict.label;

  // Taint pre-filter: labeled source symbols structurally reachable in the
  // specialized observation. None reachable = the flow is not even
  // potential under this config; no executability query needed.
  std::unordered_set<uint32_t> dp = expr::collectSymbols(
      arena, sink.specializedValue, expr::SymbolClass::kDataPlane);
  for (uint32_t id : expr::collectSymbols(arena, sink.specializedObs,
                                          expr::SymbolClass::kDataPlane)) {
    dp.insert(id);
  }
  flow.verdict.sources.clear();
  auto renameIt = renames_.find(label);
  if (renameIt != renames_.end()) {
    for (const auto& [src, primed] : renameIt->second) {
      if (dp.count(arena.node(src).a) != 0) {
        flow.verdict.sources.push_back(
            arena.symbolInfo(arena.node(src).a).name);
      }
    }
  }
  std::sort(flow.verdict.sources.begin(), flow.verdict.sources.end());
  flow.verdict.declassifiers = policy_.declassifiersFor(label);
  if (flow.verdict.sources.empty()) return arena.boolConst(true);

  expr::Substitution rename(arena);
  for (const auto& [src, primed] : renameIt->second) rename.bind(src, primed);
  expr::ExprRef value = sink.specializedValue;
  expr::ExprRef valueP = rename.apply(value);
  expr::ExprRef obs = sink.specializedObs;
  expr::ExprRef obsP = rename.apply(obs);

  // Delimited release: compared runs must agree on every declassified
  // table's installed match outcome. An empty table resolves its hit to a
  // constant, so the constraint collapses to `true` and releases nothing —
  // downgrading applies only to entries the config actually installs.
  expr::ExprRef release = arena.boolConst(true);
  for (const auto& table : flow.verdict.declassifiers) {
    const flay::TableInfo& info = service_.analysis().table(table);
    expr::ExprRef hit = service_.resolveSymbol(info.hitSymbol);
    expr::ExprRef action = service_.resolveSymbol(info.actionSymbol);
    release = arena.bAnd(release, iff(hit, rename.apply(hit)));
    release = arena.bAnd(release, arena.eq(action, rename.apply(action)));
  }

  expr::ExprRef valueDiffers = arena.isBool(value)
                                   ? arena.bNot(iff(value, valueP))
                                   : arena.neq(value, valueP);
  expr::ExprRef obsDiffers = arena.bNot(iff(obs, obsP));
  expr::ExprRef leak =
      arena.bOr(obsDiffers, arena.bAnd(arena.bAnd(obs, obsP), valueDiffers));
  return arena.implies(release, arena.bNot(leak));
}

IfcReport IfcEngine::runRecheck(bool fromScratch) {
  expr::ExprArena& arena = service_.arena();
  flay::CheckEngine& engine = service_.checkEngine();
  IfcReport report;
  report.stats.flows = flows_.size();

  // Phase 1: refresh the per-sink specializations. A sink whose tracked
  // control-plane assignment is unchanged keeps its observation — and all
  // its flow verdicts — with no substitution, rendering, or probing.
  std::vector<size_t> dirty;
  expr::ExprRef drop =
      arena.bvConst(BitVec(p4::kPortWidth, p4::kDropPort));
  for (size_t i = 0; i < sinks_.size(); ++i) {
    SinkState& sink = sinks_[i];
    bool changed = refreshResolved(sink);
    if (!changed && sink.specializedValue.valid() && !fromScratch) {
      report.stats.reused += sink.flowIndices.size();
      continue;
    }
    expr::Substitution subst(arena);
    bindResolved(sink, subst);
    sink.specializedValue = subst.apply(sink.hermetic);
    sink.specializedObs = arena.bAnd(subst.apply(parserAccept_),
                                     arena.neq(subst.apply(egressHermetic_),
                                               drop));
    dirty.push_back(i);
  }

  // Phase 2: rebuild the dirty sinks' queries. Hash-consing makes "did the
  // semantic question change" an O(1) ExprRef comparison; unchanged queries
  // reuse the memoized verdict. Scopes with replaced queries are
  // invalidated before new probes so the warm clause groups under
  // "ifc.<sink>" retire first.
  std::vector<size_t> pending;
  std::vector<flay::CheckQuery> batch;
  for (size_t i : dirty) {
    SinkState& sink = sinks_[i];
    bool invalidate = false;
    for (size_t fi : sink.flowIndices) {
      FlowState& flow = flows_[fi];
      expr::ExprRef previous = flow.query;
      expr::ExprRef query = buildQuery(sink, flow);
      if (!fromScratch && previous.valid() && query == previous) {
        ++report.stats.reused;
        continue;
      }
      invalidate |= previous.valid() && query != previous;
      flow.query = query;
      if (flow.verdict.sources.empty()) {
        flow.verdict.status = FlowStatus::kSecure;
        continue;
      }
      pending.push_back(fi);
      batch.push_back({query, "ifc." + sink.field});
    }
    if (invalidate && !fromScratch) {
      engine.invalidateScope("ifc." + sink.field);
    }
  }

  // Phase 3: settle the changed queries on the constant-verdict hot path —
  // parallel prefetch, verdict memo, warm probe sessions.
  engine.prefetch(batch);
  for (size_t k = 0; k < pending.size(); ++k) {
    FlowState& flow = flows_[pending[k]];
    flay::CheckOutcome outcome;
    flay::TriVerdict verdict =
        engine.boolVerdict(flow.query, batch[k].scope, &outcome);
    ++report.stats.queries;
    if (outcome.cacheHit) ++report.stats.cacheHits;
    if (outcome.timedOut) ++report.stats.timeouts;
    if (verdict == flay::TriVerdict::kTrue) {
      flow.verdict.status = FlowStatus::kSecure;
    } else if (verdict == flay::TriVerdict::kFalse ||
               (outcome.solverQueried && !outcome.timedOut)) {
      // Constant-false or proved-not-constant: a differing pair exists.
      flow.verdict.status = FlowStatus::kLeak;
    } else {
      // Unsettled (budget or DAG limit): conservatively a violation.
      flow.verdict.status = FlowStatus::kUnknown;
    }
  }

  for (const auto& flow : flows_) report.flows.push_back(flow.verdict);
  return report;
}

IfcReport IfcEngine::recheck() {
  lastReport_ = runRecheck(false);
  return lastReport_;
}

IfcReport IfcEngine::recheckFromScratch() {
  // A fresh engine shares no incremental bookkeeping with this one; its
  // pass rebuilds every observation and query from the service's current
  // state. (The verdict memo may still answer — verdicts are pure facts.)
  IfcEngine fresh(service_, policy_);
  return fresh.runRecheck(true);
}

void IfcEngine::onUpdateAnalyzed(const flay::UpdateVerdict& verdict) {
  (void)verdict;
  recheck();
}

}  // namespace flay::ifc
