// Shared mapped-extent resolution: declared/malloc extents with Guo-style
// inference from device-access loop bounds and interprocedural call-site
// propagation. Extracted from the mapping planner so other plan consumers
// (the static plan-safety checker in src/check) prove full-coverage writes
// against exactly the extents the planner planned with — a checker that
// re-derived extents its own way would disagree with the planner precisely
// on the programs where inference matters.
//
// The resolver is stateless across functions except for per-function
// context (the function's augmented access stream and AST-CFG), installed
// via `setFunctionContext` before queries. Diagnostics are optional: the
// planner passes its engine so call-site disagreements are reported once;
// the checker passes nullptr and resolves silently (the plan stage already
// reported them).
#pragma once

#include "analysis/bounds.hpp"
#include "analysis/interproc.hpp"
#include "analysis/summary.hpp"
#include "cfg/cfg.hpp"
#include "support/diagnostics.hpp"

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ompdart {

class ExtentResolver {
public:
  ExtentResolver(const TranslationUnit &unit,
                 const InterproceduralResult &interproc,
                 const MallocExtents &mallocExtents,
                 const summary::TuImports *imports, DiagnosticEngine *diags);

  /// Installs the per-function context subsequent queries resolve against.
  /// Resets the extent memo: loop-bound inference depends on the installed
  /// access stream and CFG.
  void setFunctionContext(const FunctionAccessInfo *accesses,
                          const AstCfg *cfg) {
    accesses_ = accesses;
    cfg_ = cfg;
    extentMemo_.clear();
  }

  /// Declared/malloc extent, falling back to inference from the loop bounds
  /// of the function's accesses when the allocation size is invisible.
  [[nodiscard]] ExtentInfo effectiveExtent(VarDecl *var) const;

  /// The section the function's device accesses span, from their loop
  /// bounds alone. Mapping this section is enough when `effectiveExtent`
  /// cannot size the whole object (host accesses defeat inference):
  /// elements only the host touches never need to move. Unknown when a
  /// device access defeats inference too.
  [[nodiscard]] ExtentInfo deviceSectionExtent(VarDecl *var) const {
    return inferFromLoopBounds(var, /*deviceOnly=*/true);
  }

  /// Extent of a pointer parameter derived from agreeing call-site
  /// arguments (interprocedural propagation).
  [[nodiscard]] ExtentInfo callSiteExtent(VarDecl *var) const;

  /// Constant value of a symbolic pointer extent, resolved by folding the
  /// extent expression, or — when it names a parameter — by folding the
  /// agreeing argument at every call site.
  [[nodiscard]] std::optional<std::uint64_t>
  symbolicExtentElems(const ExtentInfo &extent) const;

  /// Constant value a parameter holds across all call sites — local ones
  /// plus imported cross-TU records (nullopt when any call passes a
  /// non-constant or the sites disagree; disagreement additionally emits a
  /// diagnostic naming the call sites when a DiagnosticEngine is attached).
  [[nodiscard]] std::optional<std::int64_t>
  paramConstAcrossCallSites(const VarDecl *param) const;

  /// The function owning `param` and its index, or {nullptr, -1}.
  [[nodiscard]] std::pair<const FunctionDecl *, int>
  paramOwner(const VarDecl *param) const;

private:
  [[nodiscard]] ExtentInfo computeEffectiveExtent(VarDecl *var) const;
  /// Guo-style inference from the loop bounds of the function's accesses
  /// (device accesses only when `deviceOnly`); unknown when any considered
  /// access is not a single-dimension `a[i]` with an analyzable loop (or a
  /// constant index).
  [[nodiscard]] ExtentInfo inferFromLoopBounds(VarDecl *var,
                                               bool deviceOnly) const;

  void reportCallSiteDisagreement(const VarDecl *param,
                                  const FunctionDecl *owner,
                                  const std::string &what,
                                  const std::vector<std::string> &sites) const;

  const TranslationUnit &unit_;
  const InterproceduralResult &interproc_;
  const MallocExtents &mallocExtents_;
  const summary::TuImports *imports_;
  DiagnosticEngine *diags_;

  // Per-function context.
  const FunctionAccessInfo *accesses_ = nullptr;
  const AstCfg *cfg_ = nullptr;

  /// Parameters whose call-site disagreement was already diagnosed (the
  /// extent queries run once per mapped variable reference; the diagnostic
  /// must not repeat).
  mutable std::set<std::pair<const VarDecl *, std::string>>
      disagreementDiagnosed_;

  /// effectiveExtent is pure for a fixed function context but costs a full
  /// scan of the access stream (plus loop-bound analysis per enclosing
  /// loop, and call-site walks for parameters); the planner and checker
  /// query it once per access, so memoize per variable until the
  /// context changes. Disagreement diagnostics stay correct: they are
  /// deduplicated independently above, so dropping repeat computations
  /// never drops a first-time report.
  mutable std::unordered_map<VarDecl *, ExtentInfo> extentMemo_;
};

} // namespace ompdart
