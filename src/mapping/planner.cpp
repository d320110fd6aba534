#include "mapping/planner.hpp"

#include "analysis/execution.hpp"
#include "frontend/ast_printer.hpp"
#include "frontend/const_fold.hpp"

#include <algorithm>
#include <functional>
#include <unordered_map>

namespace ompdart {

using ir::UpdateDirection;
using ir::UpdatePlacement;

namespace {

/// A statement referenced by source range. Loop anchors record their body
/// range too, so BodyBegin/BodyEnd placements materialize without the AST.
ir::StmtAnchor anchorFor(const Stmt *stmt) {
  ir::StmtAnchor anchor;
  anchor.beginOffset = stmt->range().begin.offset;
  anchor.endOffset = stmt->range().end.offset;
  anchor.line = stmt->range().begin.line;
  anchor.endLine = stmt->range().end.line;
  const Stmt *body = nullptr;
  switch (stmt->kind()) {
  case StmtKind::For:
    body = static_cast<const ForStmt *>(stmt)->body();
    break;
  case StmtKind::While:
    body = static_cast<const WhileStmt *>(stmt)->body();
    break;
  case StmtKind::Do:
    body = static_cast<const DoStmt *>(stmt)->body();
    break;
  default:
    break;
  }
  if (body != nullptr) {
    anchor.hasBody = true;
    anchor.bodyIsCompound = body->kind() == StmtKind::Compound;
    anchor.bodyBeginOffset = body->range().begin.offset;
    anchor.bodyEndOffset = body->range().end.offset;
  }
  return anchor;
}

} // namespace

MappingPlanner::MappingPlanner(const TranslationUnit &unit,
                               const InterproceduralResult &interproc,
                               DiagnosticEngine &diags,
                               PlannerOptions options)
    : unit_(unit), interproc_(interproc), diags_(diags), options_(options),
      mallocExtents_(unit),
      extents_(unit, interproc, mallocExtents_, options.imports, &diags) {}

ir::MappingIr MappingPlanner::plan() { return plan(buildAllCfgs(unit_)); }

ir::MappingIr
MappingPlanner::plan(const std::vector<std::unique_ptr<AstCfg>> &cfgs) {
  ir::MappingIr result;
  symbolIds_.clear();
  symbolVars_.clear();
  regionAsts_.clear();
  estimateFunctionExecutions(cfgs);
  for (const auto &cfg : cfgs) {
    if (cfg->kernels().empty())
      continue;
    planFunction(cfg->function(), *cfg, result);
  }
  markPresentMaps(result);
  return result;
}

ir::SymbolId MappingPlanner::internSymbol(const VarDecl *var,
                                          ir::MappingIr &out) {
  auto it = symbolIds_.find(var);
  if (it != symbolIds_.end())
    return it->second;
  ir::Symbol sym;
  sym.id = static_cast<ir::SymbolId>(out.symbols.size());
  sym.name = var->name();
  // The declaration-statement offset (the variable's own range when there
  // is none) is the identity backends re-resolve the symbol by.
  const SourceRange range =
      var->declStmtRange().isValid() ? var->declStmtRange() : var->range();
  sym.declOffset = range.begin.offset;
  sym.declLine = range.begin.line;
  sym.isGlobal = var->isGlobal();
  sym.isParam = var->isParam();
  const Type *base = scalarBaseType(var->type());
  sym.elemBytes =
      base != nullptr ? base->sizeInBytes() : var->type()->sizeInBytes();
  symbolIds_.emplace(var, sym.id);
  symbolVars_.push_back(var);
  out.symbols.push_back(std::move(sym));
  return out.symbols.back().id;
}

void MappingPlanner::commitRegion(RegionDraft &draft, const FunctionDecl *fn,
                                  ir::MappingIr &out) {
  ir::Region &region = draft.region;
  for (auto &[var, item] : draft.maps) {
    item.symbol = internSymbol(var, out);
    region.maps.push_back(std::move(item));
  }
  for (auto &[var, item] : draft.updates) {
    item.symbol = internSymbol(var, out);
    region.updates.push_back(std::move(item));
  }
  for (auto &[var, item] : draft.firstprivates) {
    item.symbol = internSymbol(var, out);
    region.firstprivates.push_back(std::move(item));
  }
  out.regions.push_back(std::move(region));
  regionAsts_.push_back(RegionAst{fn, draft.startStmt});
}

void MappingPlanner::markPresentMaps(ir::MappingIr &out) const {
  // Warm-callee post-pass: a region entry reached through a call site that
  // sits inside an enclosing caller region already mapping the object is
  // warm — its map is a pure reference-count transition (1->2 on entry,
  // 2->1 on exit) that moves no bytes. Per map item, subtract the provable
  // executions of every warm call site from `coldEntries` (the transfer
  // predictor charges transition copies per COLD entry only); when every
  // site is warm, additionally mark the item `present` so the emitted
  // clause documents the invariant. The oracle's predicted==simulated
  // reconciliation found both halves: a hotspot-style staged kernel called
  // from inside main's region was charged cold per call, and mixed
  // inside/outside call sites need the per-site split.
  //
  // The proof needs every call site, so it only applies when this TU is
  // the whole program (it defines main and no cross-TU imports exist).
  if (options_.imports != nullptr)
    return;
  const FunctionDecl *mainFn = unit_.findFunction("main");
  if (mainFn == nullptr || mainFn->body() == nullptr)
    return;

  // Per-caller parent maps, built lazily (site execution estimates walk
  // the caller's loop chain — the same formula the weighted call graph
  // fed to estimateExecutions, one level unrolled).
  std::unordered_map<const FunctionDecl *,
                     std::unordered_map<const Stmt *, const Stmt *>>
      parentsByCaller;
  auto callerParents = [&](const FunctionDecl *caller)
      -> const std::unordered_map<const Stmt *, const Stmt *> & {
    auto it = parentsByCaller.find(caller);
    if (it == parentsByCaller.end()) {
      ParentMap parents(caller);
      it = parentsByCaller.emplace(caller, parents.takeLinks()).first;
    }
    return it->second;
  };

  auto regionOf = [&](const FunctionDecl *fn) -> const ir::Region * {
    for (std::size_t i = 0; i < regionAsts_.size(); ++i)
      if (regionAsts_[i].function == fn)
        return &out.regions[i];
    return nullptr;
  };
  auto symbolOf = [&](const VarDecl *var) {
    auto it = symbolIds_.find(var);
    return it != symbolIds_.end() ? it->second : ir::kInvalidSymbol;
  };

  for (std::size_t r = 0; r < out.regions.size(); ++r) {
    ir::Region &region = out.regions[r];
    const FunctionDecl *fn = regionAsts_[r].function;
    if (fn == mainFn)
      continue;

    // The per-site split reconstructs entryCount = fnExec * startTrips; a
    // guarded region start collapses entries to the floor of one, where
    // per-site attribution is ambiguous — stay conservative (all cold).
    const ProvableMultiplier startMult =
        provableMultiplierOf(callerParents(fn), regionAsts_[r].startStmt);
    if (startMult.guarded)
      continue;

    // Every host-side call site of fn, paired with its caller.
    struct Site {
      const FunctionDecl *caller = nullptr;
      const CallSite *site = nullptr;
      std::uint64_t executions = 0; ///< provable executions of the call
    };
    std::vector<Site> sites;
    bool allSitesVisible = true;
    for (const FunctionDecl *caller : unit_.functions) {
      const FunctionAccessInfo *info = interproc_.accessesFor(caller);
      if (info == nullptr)
        continue;
      for (const CallSite &site : info->callSites) {
        if (site.call == nullptr || site.call->callee() != fn)
          continue;
        if (site.onDevice || site.stmt == nullptr) {
          allSitesVisible = false; // in-kernel calls: no region proof
          continue;
        }
        const ProvableMultiplier mult =
            provableMultiplierOf(callerParents(caller), site.stmt);
        auto execIt = fnExecutions_.find(caller);
        const std::uint64_t callerExec =
            execIt != fnExecutions_.end()
                ? std::max<std::uint64_t>(1, execIt->second)
                : 1;
        Site entry;
        entry.caller = caller;
        entry.site = &site;
        entry.executions =
            mult.guarded ? 1 : saturatingMul(callerExec, mult.trips);
        sites.push_back(entry);
      }
    }
    if (!allSitesVisible || sites.empty())
      continue;

    for (ir::MapItem &map : region.maps) {
      if (map.type == ir::MapType::Alloc)
        continue; // nothing to suppress
      const VarDecl *var = symbolVars_[map.symbol];
      std::uint64_t warmEntries = 0;
      bool warmEverywhere = true;
      for (const Site &entry : sites) {
        bool warm = false;
        const ir::Region *callerRegion = regionOf(entry.caller);
        if (callerRegion != nullptr && !callerRegion->appendsToKernel) {
          const std::size_t callOffset =
              entry.site->stmt->range().begin.offset;
          const bool inRegion =
              callOffset >= callerRegion->start.beginOffset &&
              callOffset < callerRegion->end.endOffset;
          if (inRegion) {
            // Resolve the mapped variable to the caller-side object at
            // this site: params through the argument expression, globals
            // directly.
            const VarDecl *callerObject = var;
            if (var->isParam()) {
              const auto &params = fn->params();
              std::size_t index = params.size();
              for (std::size_t i = 0; i < params.size(); ++i)
                if (params[i] == var)
                  index = i;
              callerObject =
                  index < entry.site->call->args().size()
                      ? argumentObject(entry.site->call->args()[index])
                      : nullptr;
            }
            const ir::SymbolId callerSymbol = symbolOf(callerObject);
            if (callerSymbol != ir::kInvalidSymbol)
              for (const ir::MapItem &callerMap : callerRegion->maps)
                if (callerMap.symbol == callerSymbol &&
                    callerMap.extent.kind == ir::Extent::Kind::Whole)
                  warm = true;
          }
        }
        if (warm)
          warmEntries += saturatingMul(entry.executions, startMult.trips);
        else
          warmEverywhere = false;
      }
      map.coldEntries = warmEntries >= map.coldEntries
                            ? 0
                            : map.coldEntries - warmEntries;
      if (warmEverywhere) {
        map.coldEntries = 0;
        map.modifiers.present = true;
      }
    }
  }
}

void MappingPlanner::estimateFunctionExecutions(
    const std::vector<std::unique_ptr<AstCfg>> &cfgs) {
  (void)cfgs; // ancestor chains come from per-function ParentMaps
  fnExecutions_.clear();

  // Project mode: the link already ran the same estimator over the
  // whole-program call graph — cross-TU call sites included — so the
  // per-TU graph below would only rediscover a subset of its edges.
  if (options_.imports != nullptr && !options_.imports->executions.empty()) {
    for (const FunctionDecl *fn : unit_.functions) {
      auto it = options_.imports->executions.find(fn->name());
      fnExecutions_[fn] =
          it != options_.imports->executions.end() ? it->second : 1;
    }
    return;
  }

  // Single-TU mode: caller edges weighted by the provable trips of the
  // unguarded loops enclosing each host call site, fed to the shared
  // estimator (analysis/execution) the Project link also uses.
  WeightedCallGraph graph;
  for (const FunctionDecl *fn : unit_.functions)
    graph.addFunction(fn->name());
  for (const FunctionDecl *caller : unit_.functions) {
    const FunctionAccessInfo *info = interproc_.accessesFor(caller);
    if (info == nullptr)
      continue;
    std::unordered_map<const Stmt *, const Stmt *> callerParents;
    {
      ParentMap parents(caller);
      callerParents = parents.takeLinks();
    }
    for (const CallSite &site : info->callSites) {
      const FunctionDecl *callee = site.call->callee();
      if (callee == nullptr)
        continue;
      const ProvableMultiplier multiplier =
          provableMultiplierOf(callerParents, site.stmt);
      graph.addCall(caller->name(), callee->name(), multiplier.trips,
                    multiplier.guarded, site.onDevice);
    }
  }
  const std::map<std::string, std::uint64_t> executions =
      estimateExecutions(graph);
  for (const FunctionDecl *fn : unit_.functions) {
    auto it = executions.find(fn->name());
    fnExecutions_[fn] = it != executions.end() ? it->second : 0;
  }
}

bool MappingPlanner::contains(const Stmt *outer, const Stmt *inner) {
  return outer != nullptr && inner != nullptr &&
         outer->range().contains(inner->range());
}

bool MappingPlanner::chooseRegionExtent(const AstCfg &cfg,
                                        RegionDraft &draft) {
  const auto &kernels = cfg.kernels();
  const OmpDirectiveStmt *firstKernel = kernels.front();
  const OmpDirectiveStmt *lastKernel = kernels.back();

  // Hoist the region outside the loops capturing the kernels (one map set
  // per region execution) unless the region-extent ablation keeps it at the
  // kernel statements (maps re-enter on every iteration).
  auto outermostLoopOf = [&](const OmpDirectiveStmt *kernel) -> const Stmt * {
    if (!options_.extendRegionOverLoops)
      return kernel;
    const auto *loops = cfg.enclosingLoops(kernel);
    if (loops != nullptr && !loops->empty())
      return loops->front();
    return kernel;
  };

  const Stmt *startAnchor = outermostLoopOf(firstKernel);
  const Stmt *endAnchor = outermostLoopOf(lastKernel);

  // Lift anchors to children of their lowest common compound so the region
  // is a well-formed statement sequence (parent links were collected by
  // planFunction before this ran).
  const auto startChain = parentChainOf(startAnchor);
  const auto endChain = parentChainOf(endAnchor);
  std::size_t common = 0;
  while (common < startChain.size() && common < endChain.size() &&
         startChain[common] == endChain[common])
    ++common;
  if (common == 0)
    return false;
  const Stmt *lca = startChain[common - 1];
  // Walk up until the common ancestor is a compound statement.
  while (lca != nullptr && lca->kind() != StmtKind::Compound)
    lca = stmtParent(lca);
  if (lca == nullptr)
    return false;
  auto childWithin = [&](const std::vector<const Stmt *> &chain)
      -> const Stmt * {
    for (std::size_t i = 0; i + 1 < chain.size(); ++i)
      if (chain[i] == lca)
        return chain[i + 1];
    return chain.back();
  };
  draft.startStmt = childWithin(startChain);
  draft.endStmt = childWithin(endChain);
  if (draft.startStmt->range().begin.offset >
      draft.endStmt->range().begin.offset)
    std::swap(draft.startStmt, draft.endStmt);
  draft.region.start = anchorFor(draft.startStmt);
  draft.region.end = anchorFor(draft.endStmt);

  // Single-kernel special case: append clauses to the kernel's pragma.
  if (draft.startStmt == draft.endStmt && kernels.size() == 1 &&
      draft.startStmt == firstKernel) {
    draft.region.appendsToKernel = true;
    draft.region.soleKernelPragmaEndOffset =
        firstKernel->pragmaRange().end.offset;
  }
  return true;
}

void MappingPlanner::planFunction(const FunctionDecl *fn, const AstCfg &cfg,
                                  ir::MappingIr &out) {
  accesses_ = interproc_.accessesFor(fn);
  if (accesses_ == nullptr)
    return;
  cfg_ = &cfg;
  extents_.setFunctionContext(accesses_, cfg_);
  facts_.clear();
  updateKeys_.clear();
  sectionMemo_.clear();

  // Child->parent links for this function: region-extent selection walks
  // ancestor chains, and update-execution estimates walk the loop chain
  // above arbitrary anchors (including loops the CFG loop stacks do not
  // key).
  {
    ParentMap parents(fn);
    stmtParents_ = parents.takeLinks();
  }

  RegionDraft draft;
  draft.region.function = fn->name();
  if (!chooseRegionExtent(cfg, draft))
    return;
  regionBeginOffset_ = draft.startStmt->range().begin.offset;

  // Provable region entries: every entry/exit replays the present-table
  // 0->1/1->0 transition copies, so the function's interprocedural call
  // count (hotspot: advance() runs once per time step and buffer swap)
  // multiplies all map traffic. Loops around the region start inside this
  // function (per-kernel regions) multiply on top.
  {
    auto it = fnExecutions_.find(fn);
    const std::uint64_t fnExec =
        it != fnExecutions_.end() ? std::max<std::uint64_t>(1, it->second)
                                  : 1;
    const ProvableMultiplier start =
        provableMultiplierOf(stmtParents_, draft.startStmt);
    // A region start behind an if/switch may never execute: floor of one.
    const std::uint64_t entries =
        start.guarded ? 1 : saturatingMul(fnExec, start.trips);
    draft.region.entryCount = entries;
    regionEntryCount_ = entries;
  }

  // Validity walk over the region: the transfer functions below place the
  // updates and collect the facts the region-exit decisions read.
  draft_ = &draft;
  Walk walk(*this, cfg, *accesses_, extents_);
  walk.walkRegion(draft.startStmt, draft.endStmt);

  // Region-exit decisions, in declaration order so map clause order is
  // stable across Sessions (facts_ is pointer-keyed; its iteration order
  // depends on heap layout).
  std::vector<VarDecl *> exitVars;
  exitVars.reserve(facts_.size());
  for (auto &[var, facts] : facts_)
    exitVars.push_back(var);
  std::sort(exitVars.begin(), exitVars.end(), varDeclBefore);
  for (VarDecl *var : exitVars) {
    VarFacts &facts = facts_[var];
    if (!facts.referencedInKernel)
      continue;
    const VarState &state = walk.state[var];

    // The host must see device results if it may read the variable after
    // the region.
    const bool needsFrom =
        facts.deviceWrite && !state.hostValid && walk.liveAfterRegion(var);

    // A `from` mapping copies out unconditionally at region exit; when the
    // host wrote last (device copy stale on some path), the device must be
    // re-synchronized after that write or the copy-out clobbers newer host
    // data. Resolve it like any host->device RAW: update-to after the
    // producing write (to-direction Algorithm 1).
    if (needsFrom && !state.devValid && state.hostWroteSinceEntry &&
        state.lastHostWriteStmt != nullptr) {
      bool hoisted = false;
      const Stmt *pos = hoistAfterHostWrite(state, nullptr, hoisted);
      if (pos != nullptr)
        addUpdate(var, UpdateDirection::To, pos, UpdatePlacement::After,
                  hoisted);
    }

    const std::optional<SectionInfo> section = sectionFor(var);
    if (!section)
      continue;
    ir::MapItem map;
    map.item = section->spelling;
    map.extent = section->extent;
    map.approxBytes = section->bytes;
    map.coldEntries = regionEntryCount_;
    if (facts.needsTo && needsFrom)
      map.type = ir::MapType::ToFrom;
    else if (facts.needsTo)
      map.type = ir::MapType::To;
    else if (needsFrom)
      map.type = ir::MapType::From;
    else
      map.type = ir::MapType::Alloc;
    draft.maps.emplace_back(var, std::move(map));
  }

  // firstprivate post-pass (paper §IV-D): read-only device scalars become
  // firstprivate on each kernel instead of mapped region entries; their
  // update-to insertions are dropped because the value is passed afresh at
  // every kernel launch.
  if (options_.useFirstprivate) {
    std::vector<VarDecl *> firstprivateVars;
    for (auto &[var, facts] : facts_) {
      if (facts.referencedInKernel && facts.deviceRead && !facts.deviceWrite &&
          !isAggregateLike(var))
        firstprivateVars.push_back(var);
    }
    // Declaration order, for the same stability reason as the map clauses.
    std::sort(firstprivateVars.begin(), firstprivateVars.end(),
              varDeclBefore);
    for (VarDecl *var : firstprivateVars) {
      draft.maps.erase(
          std::remove_if(draft.maps.begin(), draft.maps.end(),
                         [&](const auto &map) { return map.first == var; }),
          draft.maps.end());
      draft.updates.erase(
          std::remove_if(draft.updates.begin(), draft.updates.end(),
                         [&](const auto &update) {
                           return update.first == var &&
                                  update.second.direction ==
                                      UpdateDirection::To;
                         }),
          draft.updates.end());
      for (const OmpDirectiveStmt *kernel : cfg.kernels()) {
        // Attach only to kernels that actually reference the variable.
        bool references = false;
        for (const AccessEvent &event : accesses_->events)
          if (event.var == var && event.kernel == kernel)
            references = true;
        // Skip kernels that already privatize it via an existing clause.
        for (const OmpClause &clause : kernel->clauses()) {
          if (clause.kind != OmpClauseKind::FirstPrivate &&
              clause.kind != OmpClauseKind::Private)
            continue;
          for (const OmpObject &object : clause.objects)
            if (object.var == var)
              references = false;
        }
        if (references) {
          ir::FirstprivateItem item;
          item.var = var->name();
          item.kernelLine = kernel->range().begin.line;
          item.kernelPragmaEndOffset = kernel->pragmaRange().end.offset;
          draft.firstprivates.emplace_back(var, std::move(item));
        }
      }
    }
  }

  // Declaration-before-region validation (paper §IV-D): every mapped
  // variable declared inside the function must precede the region.
  bool declarationError = false;
  for (const auto &[var, map] : draft.maps) {
    if (var->isGlobal() || var->isParam())
      continue;
    if (!var->declStmtRange().isValid())
      continue;
    if (var->declStmtRange().begin.offset >= regionBeginOffset_ &&
        !draft.region.appendsToKernel) {
      diags_.error(var->declStmtRange().begin,
                   "declaration of '" + var->name() +
                       "' must be moved before the target data region "
                       "(before offset " +
                       std::to_string(regionBeginOffset_) +
                       ") so it can be mapped");
      declarationError = true;
    }
  }
  if (declarationError)
    return;

  if (!draft.maps.empty() || !draft.updates.empty() ||
      !draft.firstprivates.empty())
    commitRegion(draft, fn, out);
}

void MappingPlanner::join(State &into, const State &branch) {
  for (const auto &[var, branchState] : branch) {
    VarState &state = into[var];
    state.hostValid = state.hostValid && branchState.hostValid;
    state.devValid = state.devValid && branchState.devValid;
    state.hostWroteSinceEntry =
        state.hostWroteSinceEntry || branchState.hostWroteSinceEntry;
    if (state.lastHostWriteStmt == nullptr)
      state.lastHostWriteStmt = branchState.lastHostWriteStmt;
    if (state.lastHostWriteSubscript == nullptr)
      state.lastHostWriteSubscript = branchState.lastHostWriteSubscript;
    if (state.lastDeviceWriteKernel == nullptr)
      state.lastDeviceWriteKernel = branchState.lastDeviceWriteKernel;
  }
}

bool MappingPlanner::stable(const State &before, const State &after) {
  return std::equal(before.begin(), before.end(), after.begin(), after.end(),
                    [](const auto &a, const auto &b) {
                      return a.first == b.first &&
                             (a.second.hostValid && a.second.devValid) ==
                                 (b.second.hostValid && b.second.devValid);
                    });
}

void MappingPlanner::deviceRead(const AccessEvent &event, Walk &walk) {
  VarDecl *var = event.var;
  VarFacts &facts = facts_[var];
  facts.referencedInKernel = true;
  facts.deviceRead = true;
  VarState &state = walk.state[var];
  if (state.devValid)
    return;
  if (!state.hostWroteSinceEntry) {
    // The value at region entry is still current: one region-entry
    // map(to:) covers every consuming kernel.
    facts.needsTo = true;
    state.devValid = true;
    return;
  }
  // Host produced a newer value inside the region: insert `update to` after
  // the producing write, hoisted out of index loops (to-direction variant of
  // Algorithm 1) but never above the consuming kernel boundary.
  const Stmt *anchor =
      state.lastHostWriteStmt != nullptr ? state.lastHostWriteStmt
                                         : event.stmt;
  bool hoisted = false;
  const Stmt *pos = hoistAfterHostWrite(state, event.kernel, hoisted);
  if (pos == nullptr)
    pos = anchor;
  UpdatePlacement placement = UpdatePlacement::After;
  if (pos == anchor && anchor != nullptr &&
      (anchor->kind() == StmtKind::For || anchor->kind() == StmtKind::While ||
       anchor->kind() == StmtKind::Do) &&
      state.lastHostWriteSubscript == nullptr) {
    // The producing write sits in a loop conditional: place the update at
    // the start of the loop body (paper SIV-F).
    placement = UpdatePlacement::BodyBegin;
  }
  addUpdate(var, UpdateDirection::To, pos, placement, hoisted);
  state.devValid = true;
}

void MappingPlanner::deviceWrite(const AccessEvent &event, bool fullCoverage,
                                 Walk &walk) {
  VarDecl *var = event.var;
  VarFacts &facts = facts_[var];
  facts.referencedInKernel = true;
  facts.deviceWrite = true;
  VarState &state = walk.state[var];

  if (!fullCoverage && !state.devValid) {
    // A partial write needs the object's current value on the device first
    // (untouched elements must survive a later copy-out); resolve it exactly
    // like a read dependency.
    AccessEvent asRead = event;
    asRead.kind = AccessKind::Read;
    deviceRead(asRead, walk);
  }
  state.devValid = true;
  state.hostValid = false;
  state.lastDeviceWriteKernel = event.kernel;
}

void MappingPlanner::hostRead(const AccessEvent &event, Walk &walk) {
  VarDecl *var = event.var;
  VarState &state = walk.state[var];
  if (state.hostValid)
    return;
  // True dependency: the device holds the current value. Insert an
  // `update from` before the reading statement, hoisted per Algorithm 1.
  SourceLocation locLim;
  if (state.lastDeviceWriteKernel != nullptr)
    locLim = state.lastDeviceWriteKernel->range().end;
  const bool loopCarried =
      state.lastDeviceWriteKernel != nullptr && event.stmt != nullptr &&
      state.lastDeviceWriteKernel->range().begin.offset >
          event.stmt->range().begin.offset;
  if (loopCarried) {
    // Loop-carried dependency: the producing kernel sits AFTER this read
    // in source, so the value flows around an enclosing loop. The
    // producer-end hoist limit is meaningless here (the producer ran last
    // iteration); the real bound is the body of the innermost loop
    // carrying the dependency.
    for (const Stmt *loop : walk.loops()) { // outermost-first
      if (!contains(loop, state.lastDeviceWriteKernel))
        continue;
      const Stmt *body = nullptr;
      if (loop->kind() == StmtKind::For)
        body = static_cast<const ForStmt *>(loop)->body();
      else if (loop->kind() == StmtKind::While)
        body = static_cast<const WhileStmt *>(loop)->body();
      else if (loop->kind() == StmtKind::Do)
        body = static_cast<const DoStmt *>(loop)->body();
      if (body != nullptr && body->range().isValid())
        locLim = body->range().begin; // innermost carrier wins
    }
  }
  const Stmt *pos = event.stmt;
  bool hoisted = false;
  if (options_.hoistUpdates) {
    const Stmt *found =
        findUpdateInsertLoc(event.subscript, event.stmt, walk.loops(), locLim);
    hoisted = found != event.stmt;
    pos = found;
  }
  UpdatePlacement placement = UpdatePlacement::Before;
  const bool anchorIsLoopCond =
      pos == event.stmt && (pos->kind() == StmtKind::For ||
                            pos->kind() == StmtKind::While ||
                            pos->kind() == StmtKind::Do);
  if (anchorIsLoopCond) {
    // Reading stale data in a loop conditional: when the producing kernel
    // runs inside the same loop the value changes every iteration, so the
    // update belongs at the end of the loop body (always, for do-loops,
    // whose condition evaluates after the body — paper SIV-F).
    const bool producerInsideLoop =
        state.lastDeviceWriteKernel != nullptr &&
        contains(pos, state.lastDeviceWriteKernel);
    if (producerInsideLoop || pos->kind() == StmtKind::Do)
      placement = UpdatePlacement::BodyEnd;
  }
  // A loop-carried update firing BEFORE its anchor executes ahead of the
  // producer on the first trip — the device image must already be valid,
  // so the map needs its `to` leg (without it the first firing copies
  // uninitialized device memory over live host data; oracle invariant 1
  // caught that). BodyEnd placements fire after the in-loop producer and
  // need no entry copy (bfs's stop_flag stays map(alloc)).
  if (loopCarried && placement == UpdatePlacement::Before)
    facts_[var].needsTo = true;
  addUpdate(var, UpdateDirection::From, pos, placement, hoisted);
  state.hostValid = true;
}

const Stmt *MappingPlanner::hoistAfterHostWrite(
    const VarState &state, const OmpDirectiveStmt *consumerKernel,
    bool &hoisted) const {
  hoisted = false;
  const Stmt *pos = state.lastHostWriteStmt;
  if (pos == nullptr)
    return nullptr;
  if (!options_.hoistUpdates || state.lastHostWriteSubscript == nullptr)
    return pos;
  const auto *loops = cfg_->enclosingLoops(state.lastHostWriteStmt);
  if (loops == nullptr)
    return pos;
  const auto indexVars = referencedIndexVars(state.lastHostWriteSubscript);
  for (auto loopIt = loops->rbegin(); loopIt != loops->rend(); ++loopIt) {
    const Stmt *loop = *loopIt;
    if (loop->range().begin.offset < regionBeginOffset_)
      break; // never hoist outside the data region
    if (consumerKernel != nullptr && contains(loop, consumerKernel))
      break; // hoisting past the consumer would reorder the update
    VarDecl *inductionVar = findIndexingVar(loop);
    if (inductionVar == nullptr)
      continue;
    if (std::find(indexVars.begin(), indexVars.end(), inductionVar) !=
        indexVars.end()) {
      pos = loop;
      hoisted = true;
    }
  }
  return pos;
}

void MappingPlanner::hostWrite(const AccessEvent &event, bool fullCoverage,
                               Walk &walk) {
  VarDecl *var = event.var;
  VarState &state = walk.state[var];

  // A host write only KILLS the variable when it provably overwrites every
  // element; a partial write of device-valid data must sync the untouched
  // elements down first (device->host RAW: exactly a host read), or later
  // host reads of those elements see stale values.
  if (!fullCoverage && !state.hostValid) {
    AccessEvent asRead = event;
    asRead.kind = AccessKind::Read;
    hostRead(asRead, walk);
  }

  state.hostValid = true;
  state.devValid = false;
  state.hostWroteSinceEntry = true;
  state.lastHostWriteStmt = event.stmt;
  state.lastHostWriteSubscript = event.subscript;
}

void MappingPlanner::addUpdate(VarDecl *var, UpdateDirection direction,
                               const Stmt *anchor, UpdatePlacement placement,
                               bool hoisted) {
  const auto key = std::make_tuple(var, direction, anchor);
  if (!updateKeys_.insert(key).second)
    return;
  const std::optional<SectionInfo> section = sectionFor(var);
  if (!section)
    return;
  ir::UpdateItem update;
  update.direction = direction;
  update.placement = placement;
  update.hoisted = hoisted;
  update.item = section->spelling;
  update.extent = section->extent;
  update.approxBytes = section->bytes;
  update.executions = updateExecutionsAt(anchor, placement);
  update.anchor = anchorFor(anchor);
  draft_->updates.emplace_back(var, std::move(update));
}

ExtentInfo MappingPlanner::effectiveExtent(VarDecl *var) const {
  return extents_.effectiveExtent(var);
}

std::optional<MappingPlanner::SectionInfo>
MappingPlanner::sectionFor(VarDecl *var) const {
  auto it = sectionMemo_.find(var);
  if (it == sectionMemo_.end())
    it = sectionMemo_.emplace(var, computeSectionFor(var)).first;
  return it->second;
}

std::optional<MappingPlanner::SectionInfo>
MappingPlanner::computeSectionFor(VarDecl *var) const {
  ExtentInfo extent = effectiveExtent(var);
  const Type *base = scalarBaseType(var->type());
  const std::uint64_t elemSize = base != nullptr ? base->sizeInBytes() : 1;

  if (var->type()->isPointer()) {
    if (!extent.known())
      extent = extents_.deviceSectionExtent(var);
    if (!extent.known()) {
      diags_.error(var->range().begin,
                   "cannot determine extent of pointer '" + var->name() +
                       "'; mapping requires a known allocation size");
      return std::nullopt;
    }
    std::uint64_t bytes =
        extent.constElems ? *extent.constElems * elemSize : 0;
    if (!extent.constElems) {
      // Symbolic extents (e.g. "npoints") keep their source spelling in the
      // emitted clause, but the transfer predictor still needs bytes: fold
      // the extent expression, substituting the constant every call site
      // agrees on when it names a parameter.
      if (const auto elems = symbolicExtentElems(extent))
        bytes = *elems * elemSize;
    }
    return SectionInfo{var->name() + "[0:" + extent.spelling + "]", bytes,
                       extent.constElems
                           ? ir::Extent::constant(*extent.constElems)
                           : ir::Extent::symbolic(extent.spelling)};
  }
  if (var->type()->isArray()) {
    // Guo-style unused-segment filtering: when every device access is
    // provably bounded below the declared extent, map the smaller section.
    std::optional<std::uint64_t> maxUpper;
    bool allBounded = true;
    for (const AccessEvent &event : accesses_->events) {
      if (event.var != var || !event.onDevice || !event.isDataAccess())
        continue;
      if (event.subscript == nullptr) {
        allBounded = false;
        break;
      }
      // Direct single-dimension `a[i]` with an analyzable enclosing loop.
      const Expr *baseExpr = ignoreParensAndCasts(event.subscript->base());
      if (baseExpr == nullptr ||
          baseExpr->kind() == ExprKind::ArraySubscript) {
        allBounded = false;
        break;
      }
      VarDecl *indexVar =
          referencedVar(ignoreParensAndCasts(event.subscript->index()));
      const auto *loops = cfg_->enclosingLoops(event.stmt);
      bool bounded = false;
      if (indexVar != nullptr && loops != nullptr) {
        for (const Stmt *loop : *loops) {
          const auto *forStmt = dynamic_cast<const ForStmt *>(loop);
          if (forStmt == nullptr)
            continue;
          const LoopBounds loopBounds = analyzeForLoop(forStmt);
          if (!loopBounds.valid || loopBounds.inductionVar != indexVar)
            continue;
          if (loopBounds.upperConst && loopBounds.lowerConst &&
              *loopBounds.lowerConst >= 0) {
            maxUpper = std::max<std::uint64_t>(
                maxUpper.value_or(0),
                static_cast<std::uint64_t>(*loopBounds.upperConst));
            bounded = true;
          }
          break;
        }
      } else if (const auto constIndex =
                     foldIntegerConstant(event.subscript->index());
                 constIndex && *constIndex >= 0) {
        maxUpper = std::max<std::uint64_t>(
            maxUpper.value_or(0), static_cast<std::uint64_t>(*constIndex) + 1);
        bounded = true;
      }
      if (!bounded) {
        allBounded = false;
        break;
      }
    }
    if (allBounded && maxUpper && extent.constElems &&
        *maxUpper < *extent.constElems) {
      return SectionInfo{var->name() + "[0:" + std::to_string(*maxUpper) +
                             "]",
                         *maxUpper * elemSize,
                         ir::Extent::constant(*maxUpper)};
    }
    const std::uint64_t bytes =
        extent.constElems ? *extent.constElems * elemSize : 0;
    return SectionInfo{var->name(), bytes, ir::Extent::whole()};
  }
  // Scalars and records map whole.
  return SectionInfo{var->name(), var->type()->sizeInBytes(),
                     ir::Extent::whole()};
}

std::optional<std::uint64_t>
MappingPlanner::symbolicExtentElems(const ExtentInfo &extent) const {
  return extents_.symbolicExtentElems(extent);
}

const Stmt *MappingPlanner::stmtParent(const Stmt *stmt) const {
  auto it = stmtParents_.find(stmt);
  return it != stmtParents_.end() ? it->second : nullptr;
}

std::vector<const Stmt *>
MappingPlanner::parentChainOf(const Stmt *stmt) const {
  std::vector<const Stmt *> chain;
  for (const Stmt *cursor = stmt; cursor != nullptr;
       cursor = stmtParent(cursor))
    chain.push_back(cursor);
  std::reverse(chain.begin(), chain.end());
  return chain;
}

std::uint64_t
MappingPlanner::updateExecutionsAt(const Stmt *anchor,
                                   UpdatePlacement placement) const {
  // Provable trips of unguarded region loops enclosing the insertion
  // point; loops outside the region (and callers) are already folded into
  // the region entry count. `stmtParents_` covers arbitrary anchors,
  // including loop statements Algorithm 1 hoisted to, which the CFG loop
  // stacks do not key. Any if/switch ancestor means the update may never
  // execute: charge the floor of one.
  const ProvableMultiplier multiplier =
      provableMultiplierOf(stmtParents_, anchor, regionBeginOffset_);
  if (multiplier.guarded)
    return 1;
  std::uint64_t product = multiplier.trips;
  // Body placements execute inside the anchor loop itself.
  if ((placement == UpdatePlacement::BodyBegin ||
       placement == UpdatePlacement::BodyEnd) &&
      isLoopStmt(anchor))
    product = saturatingMul(product, loopTripsOrOne(anchor));
  return saturatingMul(regionEntryCount_, product);
}

ir::MappingIr planMappings(const TranslationUnit &unit,
                           const InterproceduralResult &interproc,
                           DiagnosticEngine &diags, PlannerOptions options,
                           const std::vector<std::unique_ptr<AstCfg>> *cfgs) {
  MappingPlanner planner(unit, interproc, diags, options);
  return cfgs != nullptr ? planner.plan(*cfgs) : planner.plan();
}

} // namespace ompdart
