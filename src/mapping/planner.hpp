// The mapping planner: OMPDart's decision engine (paper §IV-D / §IV-E).
//
// For every function containing offload kernels it:
//   1. chooses the extent of the single target-data region (hoisted outside
//      any loops capturing the first/last kernel),
//   2. validates that mapped variables are declared before the region
//      (emitting the paper's "move this declaration" error otherwise),
//   3. runs the forward validity walk over the AST-CFG region (the skeleton
//      in analysis/validity_walk.hpp, shared with the plan-safety checker)
//      tracking which memory space holds each variable's current value.
//      Every host<->device RAW dependency is resolved by the paper's fixed
//      placement rule: a value current at region entry is mapped `to` on
//      the region, a newer value gets a `target update` hoisted out of
//      indexing loops per Algorithm 1, and read-only scalars become
//      `firstprivate`. The PlannerOptions ablation switches turn the
//      firstprivate, hoisting and region-extent steps off.
//   4. infers array sections from bounds analysis / malloc extents.
//
// The result is the Mapping IR itself: AST pointers stay inside the
// planner, which writes symbol ids and source-range anchors straight into
// the IR regions it emits.
#pragma once

#include "analysis/bounds.hpp"
#include "analysis/extent.hpp"
#include "analysis/interproc.hpp"
#include "analysis/summary.hpp"
#include "analysis/validity_walk.hpp"
#include "cfg/cfg.hpp"
#include "mapping/ir.hpp"
#include "support/diagnostics.hpp"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

namespace ompdart {

struct PlannerOptions {
  /// Use firstprivate for read-only scalars (paper §IV-D); disabling this is
  /// the `firstprivate` ablation.
  bool useFirstprivate = true;
  /// Hoist update directives per Algorithm 1; disabling places updates at
  /// the innermost access position (the paper's 14x motivating comparison).
  bool hoistUpdates = true;
  /// Extend the data region outside loops capturing kernels; disabling maps
  /// per kernel (region == each kernel) for the region-extent ablation.
  bool extendRegionOverLoops = true;
  /// Run the interprocedural fixed point; disabling treats every call
  /// pessimistically (interproc ablation).
  bool interprocedural = true;
  /// Cross-TU facts from the Project link (whole-program execution counts,
  /// external call-site constants/extents). Null for single-TU runs — the
  /// planner then derives everything from the unit's own call sites.
  /// Non-owning; must outlive the planner.
  const summary::TuImports *imports = nullptr;
};

/// The validity walk's planner policy: must-valid bits per variable,
/// AND-merged at joins, with placement decisions as the transfer functions.
class MappingPlanner : private ValidityHooks {
public:
  MappingPlanner(const TranslationUnit &unit,
                 const InterproceduralResult &interproc,
                 DiagnosticEngine &diags, PlannerOptions options = {});

  /// Plans regions for every defined function that launches kernels. The
  /// IR's `file` is left empty for the caller to fill in.
  [[nodiscard]] ir::MappingIr plan();

  /// Same, but reuses caller-provided AST-CFGs (the Session's cached `cfg()`
  /// artifact) instead of rebuilding them.
  [[nodiscard]] ir::MappingIr
  plan(const std::vector<std::unique_ptr<AstCfg>> &cfgs);

private:
  struct VarState {
    bool hostValid = true;
    bool devValid = false;
    bool hostWroteSinceEntry = false;
    const Stmt *lastHostWriteStmt = nullptr;
    const ArraySubscriptExpr *lastHostWriteSubscript = nullptr;
    const OmpDirectiveStmt *lastDeviceWriteKernel = nullptr;

    [[nodiscard]] bool operator==(const VarState &other) const {
      return hostValid == other.hostValid && devValid == other.devValid &&
             hostWroteSinceEntry == other.hostWroteSinceEntry &&
             lastHostWriteStmt == other.lastHostWriteStmt &&
             lastHostWriteSubscript == other.lastHostWriteSubscript &&
             lastDeviceWriteKernel == other.lastDeviceWriteKernel;
    }
  };
  struct VarFacts {
    bool needsTo = false;
    bool deviceRead = false;
    bool deviceWrite = false;
    bool referencedInKernel = false;
  };
  using State = std::map<VarDecl *, VarState>;
  using Walk = ValidityWalk<MappingPlanner>;
  friend Walk;
  /// IR items paired with the variable each one maps.
  template <typename Item>
  using VarItems = std::vector<std::pair<VarDecl *, Item>>;
  /// The region being planned. Its items get symbol ids only when the
  /// region is kept, so ids follow the emitted item order: per region,
  /// maps, then updates, then firstprivates.
  struct RegionDraft {
    ir::Region region; ///< header fields; items land at commit
    const Stmt *startStmt = nullptr;
    const Stmt *endStmt = nullptr;
    VarItems<ir::MapItem> maps;
    VarItems<ir::UpdateItem> updates;
    VarItems<ir::FirstprivateItem> firstprivates;
  };
  /// AST facts of one emitted region (parallel to the IR's regions), for
  /// the warm-callee post-pass.
  struct RegionAst {
    const FunctionDecl *function = nullptr;
    const Stmt *startStmt = nullptr;
  };

  void planFunction(const FunctionDecl *fn, const AstCfg &cfg,
                    ir::MappingIr &out);

  /// Appends the draft's region to `out`, interning its symbols.
  void commitRegion(RegionDraft &draft, const FunctionDecl *fn,
                    ir::MappingIr &out);
  ir::SymbolId internSymbol(const VarDecl *var, ir::MappingIr &out);

  /// Warm-callee post-pass: marks map items `present` when every call site
  /// of the region's function provably executes inside an enclosing caller
  /// region that already maps the object (refcount 1->2 transitions move
  /// no bytes; the transfer predictor skips present items).
  void markPresentMaps(ir::MappingIr &out) const;

  /// Region extent selection (step 1).
  bool chooseRegionExtent(const AstCfg &cfg, RegionDraft &draft);

  /// Validity walk policy (step 3).
  static void join(State &into, const State &branch);
  /// The loop fixed point settles once every variable's both-valid bit
  /// repeats.
  static bool stable(const State &before, const State &after);
  void deviceRead(const AccessEvent &event, Walk &walk);
  void deviceWrite(const AccessEvent &event, bool fullCoverage, Walk &walk);
  void hostRead(const AccessEvent &event, Walk &walk);
  void hostWrite(const AccessEvent &event, bool fullCoverage, Walk &walk);

  /// Adds an update to the region being planned, once per (variable,
  /// direction, anchor).
  void addUpdate(VarDecl *var, ir::UpdateDirection direction,
                 const Stmt *anchor, ir::UpdatePlacement placement,
                 bool hoisted);

  /// Interprocedural execution-count estimate per function: entry functions
  /// execute once; a callee executes caller-executions times the constant
  /// trips of loops enclosing each call site (paper-faithful present-table
  /// accounting needs this: every extra region entry pays the 0->1/1->0
  /// transition copies again).
  void
  estimateFunctionExecutions(const std::vector<std::unique_ptr<AstCfg>> &cfgs);

  /// Statically provable executions of an update inserted at `anchor` with
  /// `placement`: region entries times the constant trips of region loops
  /// enclosing the insertion point.
  [[nodiscard]] std::uint64_t
  updateExecutionsAt(const Stmt *anchor,
                     ir::UpdatePlacement placement) const;

  /// Parent statement per `stmtParents_` (null at the function body root).
  [[nodiscard]] const Stmt *stmtParent(const Stmt *stmt) const;
  /// Chain from the outermost statement down to `stmt` (inclusive).
  [[nodiscard]] std::vector<const Stmt *>
  parentChainOf(const Stmt *stmt) const;

  /// To-direction Algorithm 1: position after the last host write, hoisted
  /// out of indexing loops but never past `consumerKernel` (null = region
  /// end). Returns null when there is no recorded host write.
  [[nodiscard]] const Stmt *
  hoistAfterHostWrite(const VarState &state,
                      const OmpDirectiveStmt *consumerKernel,
                      bool &hoisted) const;

  /// Section spelling, byte estimate and structured extent for a mapped
  /// variable.
  struct SectionInfo {
    std::string spelling;
    std::uint64_t bytes = 0;
    ir::Extent extent;
  };
  /// Memoized per variable for the current function, so the
  /// unknown-pointer-extent error is emitted once per pointer per function
  /// however many maps and updates query the section. Nullopt for a
  /// pointer whose extent is unknown: no item maps it (fail closed).
  [[nodiscard]] std::optional<SectionInfo> sectionFor(VarDecl *var) const;
  /// Uncached computation (emits the unknown-pointer-extent error).
  [[nodiscard]] std::optional<SectionInfo>
  computeSectionFor(VarDecl *var) const;

  /// Declared/malloc extent, falling back to inference from the loop bounds
  /// of device accesses when the allocation size is invisible. Delegates to
  /// the shared ExtentResolver (also used by the plan-safety checker).
  [[nodiscard]] ExtentInfo effectiveExtent(VarDecl *var) const;

  /// Whether a loop statement (by source range) contains another statement.
  [[nodiscard]] static bool contains(const Stmt *outer, const Stmt *inner);

  /// Constant value of a symbolic pointer extent, resolved by folding the
  /// extent expression, or — when it names a parameter — by folding the
  /// agreeing argument at every call site. Delegates to the ExtentResolver.
  [[nodiscard]] std::optional<std::uint64_t>
  symbolicExtentElems(const ExtentInfo &extent) const;

  const TranslationUnit &unit_;
  const InterproceduralResult &interproc_;
  DiagnosticEngine &diags_;
  PlannerOptions options_;
  MallocExtents mallocExtents_;
  /// Shared mapped-extent resolution (declared after mallocExtents_: the
  /// resolver holds a reference to it).
  ExtentResolver extents_;

  /// Interprocedural execution-count estimates (estimateFunctionExecutions).
  std::map<const FunctionDecl *, std::uint64_t> fnExecutions_;

  // Per-function working state.
  const FunctionAccessInfo *accesses_ = nullptr;
  const AstCfg *cfg_ = nullptr;
  RegionDraft *draft_ = nullptr; ///< the region being planned
  std::map<VarDecl *, VarFacts> facts_;
  std::set<std::tuple<VarDecl *, ir::UpdateDirection, const Stmt *>>
      updateKeys_;
  /// sectionFor memo for the current function.
  mutable std::unordered_map<VarDecl *, std::optional<SectionInfo>>
      sectionMemo_;
  std::size_t regionBeginOffset_ = 0;
  /// Provable entries of the current region (planFunction).
  std::uint64_t regionEntryCount_ = 1;
  /// Child -> parent statement links of the current function, for walking
  /// the loop chain above an arbitrary update anchor.
  std::unordered_map<const Stmt *, const Stmt *> stmtParents_;

  // Per-plan symbol table and emitted-region AST facts.
  std::map<const VarDecl *, ir::SymbolId> symbolIds_;
  std::vector<const VarDecl *> symbolVars_; ///< indexed by SymbolId
  std::vector<RegionAst> regionAsts_;
};

/// Convenience: full pipeline for a parsed unit. When `cfgs` is non-null the
/// planner reuses those AST-CFGs instead of rebuilding them.
[[nodiscard]] ir::MappingIr
planMappings(const TranslationUnit &unit,
             const InterproceduralResult &interproc, DiagnosticEngine &diags,
             PlannerOptions options = {},
             const std::vector<std::unique_ptr<AstCfg>> *cfgs = nullptr);

} // namespace ompdart
