#include "analysis/extent.hpp"

#include "frontend/ast_printer.hpp"
#include "frontend/const_fold.hpp"

#include <algorithm>

namespace ompdart {

ExtentResolver::ExtentResolver(const TranslationUnit &unit,
                               const InterproceduralResult &interproc,
                               const MallocExtents &mallocExtents,
                               const summary::TuImports *imports,
                               DiagnosticEngine *diags)
    : unit_(unit), interproc_(interproc), mallocExtents_(mallocExtents),
      imports_(imports), diags_(diags) {}

ExtentInfo ExtentResolver::effectiveExtent(VarDecl *var) const {
  auto it = extentMemo_.find(var);
  if (it != extentMemo_.end())
    return it->second;
  ExtentInfo extent = computeEffectiveExtent(var);
  extentMemo_.emplace(var, extent);
  return extent;
}

ExtentInfo ExtentResolver::computeEffectiveExtent(VarDecl *var) const {
  ExtentInfo extent = dataExtent(var, mallocExtents_);
  if (extent.known())
    return extent;
  // Guo-style inference when the allocation size is invisible (pointer
  // parameter); accesses that defeat it fall back to the call sites.
  extent = inferFromLoopBounds(var, /*deviceOnly=*/false);
  if (extent.known())
    return extent;
  return callSiteExtent(var);
}

ExtentInfo ExtentResolver::inferFromLoopBounds(VarDecl *var,
                                               bool deviceOnly) const {
  std::optional<std::uint64_t> maxConst;
  std::string symbolicSpelling;
  const Expr *symbolicExpr = nullptr;
  for (const AccessEvent &event : accesses_->events) {
    if (event.var != var || !event.isDataAccess())
      continue;
    if (deviceOnly && !event.onDevice)
      continue;
    if (event.subscript == nullptr)
      return ExtentInfo{}; // whole-object access
    const Expr *base = ignoreParensAndCasts(event.subscript->base());
    if (base == nullptr || base->kind() == ExprKind::ArraySubscript)
      return ExtentInfo{};
    if (const auto constIndex =
            foldIntegerConstant(event.subscript->index());
        constIndex && *constIndex >= 0) {
      maxConst = std::max<std::uint64_t>(
          maxConst.value_or(0), static_cast<std::uint64_t>(*constIndex) + 1);
      continue;
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
        if (loopBounds.upperConst) {
          maxConst = std::max<std::uint64_t>(
              maxConst.value_or(0),
              static_cast<std::uint64_t>(
                  std::max<std::int64_t>(0, *loopBounds.upperConst)));
          bounded = true;
        } else if (loopBounds.upperExpr != nullptr &&
                   !loopBounds.upperInclusiveAdjusted) {
          const std::string spelling = exprToSource(loopBounds.upperExpr);
          if (symbolicSpelling.empty() || symbolicSpelling == spelling) {
            symbolicSpelling = spelling;
            symbolicExpr = loopBounds.upperExpr;
            bounded = true;
          }
        }
        break;
      }
    }
    if (!bounded)
      return ExtentInfo{};
  }
  ExtentInfo extent;
  if (!symbolicSpelling.empty()) {
    extent.spelling = symbolicSpelling;
    extent.expr = symbolicExpr;
  } else if (maxConst) {
    extent.constElems = maxConst;
    extent.spelling = std::to_string(*maxConst);
  }
  return extent;
}

std::pair<const FunctionDecl *, int>
ExtentResolver::paramOwner(const VarDecl *param) const {
  for (const FunctionDecl *fn : unit_.functions)
    for (std::size_t i = 0; i < fn->params().size(); ++i)
      if (fn->params()[i] == param)
        return {fn, static_cast<int>(i)};
  return {nullptr, -1};
}

void ExtentResolver::reportCallSiteDisagreement(
    const VarDecl *param, const FunctionDecl *owner, const std::string &what,
    const std::vector<std::string> &sites) const {
  if (diags_ == nullptr)
    return;
  if (!disagreementDiagnosed_.emplace(param, what).second)
    return;
  std::string where;
  for (const std::string &site : sites)
    where += (where.empty() ? "" : ", ") + site;
  diags_->warning(param->range().begin,
                  "call sites disagree on the " + what + " of parameter '" +
                      param->name() + "' of '" + owner->name() + "': " +
                      where + "; taking the conservative path");
}

ExtentInfo ExtentResolver::callSiteExtent(VarDecl *var) const {
  // Interprocedural extent propagation: a pointer parameter whose accesses
  // defeat loop-bound inference (e.g. neighbor stencils `a[i - cols]`) can
  // still get its extent from the arguments at every call site — local
  // ones plus records the Project link imported from other TUs — provided
  // they agree. Disagreement is diagnosed (naming the call sites) and
  // stays conservative.
  const auto [owner, paramIndex] = paramOwner(var);
  if (owner == nullptr || paramIndex < 0)
    return ExtentInfo{};
  struct SiteExtent {
    ExtentInfo info;
    std::string where;
  };
  std::vector<SiteExtent> sites;
  for (const FunctionDecl *caller : unit_.functions) {
    const FunctionAccessInfo *info = interproc_.accessesFor(caller);
    if (info == nullptr)
      continue;
    for (const CallSite &site : info->callSites) {
      if (site.call->callee() != owner ||
          static_cast<std::size_t>(paramIndex) >= site.call->args().size())
        continue;
      VarDecl *argVar =
          referencedVar(ignoreParensAndCasts(
              site.call->args()[static_cast<std::size_t>(paramIndex)]));
      if (argVar == nullptr)
        return ExtentInfo{}; // untrackable argument: give up
      const ExtentInfo argExtent = dataExtent(argVar, mallocExtents_);
      if (!argExtent.known())
        return ExtentInfo{};
      std::string where = "'" + argExtent.spelling + "'";
      if (site.stmt != nullptr)
        where += " at line " + std::to_string(site.stmt->range().begin.line);
      sites.push_back(SiteExtent{argExtent, std::move(where)});
    }
  }
  if (imports_ != nullptr) {
    auto factsIt = imports_->paramFacts.find(owner->name());
    if (factsIt != imports_->paramFacts.end() &&
        static_cast<std::size_t>(paramIndex) < factsIt->second.size()) {
      for (const summary::ParamCallFact &fact :
           factsIt->second[static_cast<std::size_t>(paramIndex)]) {
        if (!fact.tracked || !fact.extentKnown)
          return ExtentInfo{}; // untrackable external argument: give up
        ExtentInfo imported;
        imported.constElems = fact.extentConstElems;
        imported.spelling = fact.extentSpelling;
        sites.push_back(SiteExtent{
            imported, "'" + imported.spelling + "' at " + fact.callerFile +
                          ":" + std::to_string(fact.line)});
      }
    }
  }
  if (sites.empty())
    return ExtentInfo{};
  for (std::size_t i = 1; i < sites.size(); ++i) {
    if (sites[i].info.spelling != sites.front().info.spelling ||
        sites[i].info.constElems != sites.front().info.constElems) {
      std::vector<std::string> descriptions;
      for (const SiteExtent &site : sites)
        descriptions.push_back(site.where);
      reportCallSiteDisagreement(var, owner, "extent", descriptions);
      return ExtentInfo{};
    }
  }
  // Local sites come first, so a symbolic extent keeps its foldable AST
  // expression whenever one exists.
  return sites.front().info;
}

std::optional<std::uint64_t>
ExtentResolver::symbolicExtentElems(const ExtentInfo &extent) const {
  if (extent.expr == nullptr)
    return std::nullopt;
  if (const auto folded = foldIntegerConstant(extent.expr);
      folded && *folded >= 0)
    return static_cast<std::uint64_t>(*folded);
  const VarDecl *lengthVar =
      referencedVar(ignoreParensAndCasts(extent.expr));
  if (lengthVar == nullptr || !lengthVar->isParam())
    return std::nullopt;
  if (const auto value = paramConstAcrossCallSites(lengthVar);
      value && *value >= 0)
    return static_cast<std::uint64_t>(*value);
  return std::nullopt;
}

std::optional<std::int64_t>
ExtentResolver::paramConstAcrossCallSites(const VarDecl *param) const {
  const auto [owner, paramIndex] = paramOwner(param);
  if (owner == nullptr || paramIndex < 0)
    return std::nullopt;
  // The call-site constant only describes the parameter's entry value; if
  // the function ever reassigns it, the clause will evaluate the new value
  // at runtime — stay conservative.
  if (const FunctionAccessInfo *ownerInfo = interproc_.accessesFor(owner)) {
    for (const AccessEvent &event : ownerInfo->events) {
      if (event.var != param)
        continue;
      if (event.kind == AccessKind::Write ||
          event.kind == AccessKind::Unknown)
        return std::nullopt;
    }
  }
  struct SiteValue {
    std::int64_t value = 0;
    std::string where;
  };
  std::vector<SiteValue> sites;
  for (const FunctionDecl *caller : unit_.functions) {
    const FunctionAccessInfo *info = interproc_.accessesFor(caller);
    if (info == nullptr)
      continue;
    for (const CallSite &site : info->callSites) {
      if (site.call->callee() != owner ||
          static_cast<std::size_t>(paramIndex) >= site.call->args().size())
        continue;
      const auto folded = foldIntegerConstant(
          site.call->args()[static_cast<std::size_t>(paramIndex)]);
      if (!folded)
        return std::nullopt; // non-constant argument: give up
      std::string where = std::to_string(*folded);
      if (site.stmt != nullptr)
        where += " at line " + std::to_string(site.stmt->range().begin.line);
      sites.push_back(SiteValue{*folded, std::move(where)});
    }
  }
  // Cross-TU records the Project link imported for this parameter.
  if (imports_ != nullptr) {
    auto factsIt = imports_->paramFacts.find(owner->name());
    if (factsIt != imports_->paramFacts.end() &&
        static_cast<std::size_t>(paramIndex) < factsIt->second.size()) {
      for (const summary::ParamCallFact &fact :
           factsIt->second[static_cast<std::size_t>(paramIndex)]) {
        if (!fact.constValue)
          return std::nullopt; // non-constant external argument: give up
        sites.push_back(SiteValue{
            *fact.constValue, std::to_string(*fact.constValue) + " at " +
                                  fact.callerFile + ":" +
                                  std::to_string(fact.line)});
      }
    }
  }
  if (sites.empty())
    return std::nullopt;
  for (std::size_t i = 1; i < sites.size(); ++i) {
    if (sites[i].value != sites.front().value) {
      std::vector<std::string> descriptions;
      for (const SiteValue &site : sites)
        descriptions.push_back(site.where);
      reportCallSiteDisagreement(param, owner, "constant value",
                                 descriptions);
      return std::nullopt; // call sites disagree: stay conservative
    }
  }
  return sites.front().value;
}

} // namespace ompdart
