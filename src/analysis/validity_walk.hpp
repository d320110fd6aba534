// The forward validity walk over one target-data region (paper §IV-D/E),
// shared by the mapping planner and the plan-safety checker.
//
// The skeleton owns everything the two analyses have in common: locating
// the region's consecutive statements inside the function body, the
// structured walk (if/switch snapshot-and-join, the loop fixed point and
// the rule that a provably entered `for` keeps its body's kills), which
// access events reach the transfer functions, the host/device full-coverage
// write proofs and the region-exit liveness scan. A policy supplies the
// abstract state and what happens at each point:
//
//   using State = ...;
//   static void join(State &into, const State &branch);
//   static bool stable(const State &before, const State &after);
//   bool tracks(VarDecl *var, const State &state) const;
//   void deviceRead(const AccessEvent &, Walk &);
//   void deviceWrite(const AccessEvent &, bool fullCoverage, Walk &);
//   void hostRead(const AccessEvent &, Walk &);
//   void hostWrite(const AccessEvent &, bool fullCoverage, Walk &);
//   void enterRegion(Walk &);              void exitRegion(Walk &);
//   void before(const Stmt *, Walk &);     void after(const Stmt *, Walk &);
//   void bodyBegin(const Stmt *loop, Walk &);
//   void bodyEnd(const Stmt *loop, Walk &);
//
// where `Walk` is `ValidityWalk<Policy>`. `ValidityHooks` provides no-op
// region/anchor hooks and tracks every variable. The policy is a template
// parameter, not a virtual interface: the walk runs on every plan and check.
//
// Loop memo. A loop nested in another in-region loop is walked once per
// fixed-point pass of every enclosing loop, so without care n nested loops
// cost 2^n body walks. The walk therefore memoizes each such loop on
// (loop, entry state) -> exit state. This is exact: the exit state is a
// function of the entry state alone (the loop stack above a statement is
// fixed), and a replay from an entry state already walked repeats only
// effects that are idempotent by construction — deduplicated update
// insertions and facts that only turn on in the planner, deduplicated
// findings, set inserts and flags that only turn on in the checker. The
// memo holds one outermost loop nest at a time: an outermost in-region loop
// is walked once, so nothing inside it is walked after it finishes.
#pragma once

#include "analysis/access.hpp"
#include "analysis/bounds.hpp"
#include "analysis/extent.hpp"
#include "analysis/liveness.hpp"
#include "cfg/cfg.hpp"

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ompdart {

/// No-op region and anchor hooks for a policy that only transfers access
/// events, and a filter that lets every variable through.
struct ValidityHooks {
  template <typename State>
  [[nodiscard]] bool tracks(VarDecl *, const State &) const {
    return true;
  }
  template <typename Walk> void enterRegion(Walk &) {}
  template <typename Walk> void exitRegion(Walk &) {}
  template <typename Walk> void before(const Stmt *, Walk &) {}
  template <typename Walk> void after(const Stmt *, Walk &) {}
  template <typename Walk> void bodyBegin(const Stmt *, Walk &) {}
  template <typename Walk> void bodyEnd(const Stmt *, Walk &) {}
};

template <typename Policy> class ValidityWalk {
public:
  using State = typename Policy::State;

  ValidityWalk(Policy &policy, const AstCfg &cfg,
               const FunctionAccessInfo &accesses,
               const ExtentResolver &extents)
      : policy_(policy), cfg_(cfg), accesses_(accesses), extents_(extents) {}

  /// Validity state at the walk position; after `walkRegion`, at the
  /// region exit.
  State state;

  /// In-region loops enclosing the walk position, outermost first.
  [[nodiscard]] const std::vector<const Stmt *> &loops() const {
    return loops_;
  }

  /// Walks the region whose first and last statements are `start` and
  /// `end`, consecutive children of one compound in the function body.
  /// Returns whether the walk reached `start`.
  bool walkRegion(const Stmt *start, const Stmt *end) {
    start_ = start;
    end_ = end;
    regionEndOffset_ = end->range().end.offset;
    descend(cfg_.function()->body());
    if (entered_ && !exited_)
      policy_.exitRegion(*this); // `end` never followed `start`
    return entered_;
  }

  /// Whether the host may read `var` after the region, so device results
  /// must be copied back (paper: "the problem becomes a liveness problem").
  [[nodiscard]] bool liveAfterRegion(const VarDecl *var) {
    // Globals normally escape (another caller may read them), but inside
    // `main` nothing runs after the function returns and the augmented
    // event stream already covers callee accesses, so the event scan below
    // is a sound and precise liveness answer there.
    const bool preciseGlobals =
        cfg_.function()->name() == "main" && var->isGlobal();
    if (!preciseGlobals) {
      if (!liveness_) // built on first use: many regions never ask
        liveness_.emplace(cfg_, accesses_);
      if (liveness_->escapes(var))
        return true;
    }
    for (const AccessEvent &event : accesses_.events) {
      if (event.var != var || event.onDevice || event.stmt == nullptr)
        continue;
      if (event.kind != AccessKind::Read && event.kind != AccessKind::Unknown)
        continue;
      if (event.isDataAccess() &&
          event.stmt->range().begin.offset >= regionEndOffset_)
        return true;
    }
    return false;
  }

private:
  /// Region-locating descent: finds the compound holding `start_` and
  /// walks from it through `end_`.
  void descend(const Stmt *stmt) {
    if (done_ || stmt == nullptr)
      return;
    switch (stmt->kind()) {
    case StmtKind::Compound:
      for (const Stmt *sub : static_cast<const CompoundStmt *>(stmt)->body()) {
        // The descent below may have found AND finished the region in a
        // nested compound (sole kernel inside a branch); without this
        // re-check the walk would continue into the statements after that
        // branch with `active_` still set, treating post-region host
        // accesses as in-region dependencies (the oracle caught this as a
        // dead post-region update-from replacing the map's `from` leg).
        if (done_)
          return;
        if (sub == start_) {
          active_ = true;
          entered_ = true;
          policy_.enterRegion(*this);
        }
        if (active_)
          walk(sub);
        if (sub == end_ && active_) {
          exited_ = true;
          policy_.exitRegion(*this);
          done_ = true;
          return;
        }
        if (!active_)
          descend(sub);
      }
      return;
    case StmtKind::If: {
      const auto *ifStmt = static_cast<const IfStmt *>(stmt);
      descend(ifStmt->thenStmt());
      descend(ifStmt->elseStmt());
      return;
    }
    case StmtKind::For:
      descend(static_cast<const ForStmt *>(stmt)->body());
      return;
    case StmtKind::While:
      descend(static_cast<const WhileStmt *>(stmt)->body());
      return;
    case StmtKind::Do:
      descend(static_cast<const DoStmt *>(stmt)->body());
      return;
    case StmtKind::Switch:
      descend(static_cast<const SwitchStmt *>(stmt)->body());
      return;
    case StmtKind::OmpDirective:
      descend(static_cast<const OmpDirectiveStmt *>(stmt)->associated());
      return;
    default:
      return;
    }
  }

  void walk(const Stmt *stmt) {
    if (stmt == nullptr)
      return;
    policy_.before(stmt, *this);
    switch (stmt->kind()) {
    case StmtKind::Compound:
      for (const Stmt *sub : static_cast<const CompoundStmt *>(stmt)->body())
        walk(sub);
      break;
    case StmtKind::Decl:
    case StmtKind::Expr:
    case StmtKind::Return:
      leafEvents(stmt);
      break;
    case StmtKind::If: {
      const auto *ifStmt = static_cast<const IfStmt *>(stmt);
      leafEvents(stmt); // condition reads
      State snapshot = state;
      walk(ifStmt->thenStmt());
      State thenState = std::move(state);
      state = std::move(snapshot);
      walk(ifStmt->elseStmt());
      Policy::join(state, thenState);
      break;
    }
    case StmtKind::For:
    case StmtKind::While:
    case StmtKind::Do:
      walkLoop(stmt);
      break;
    case StmtKind::Switch: {
      leafEvents(stmt);
      State snapshot = state;
      walk(static_cast<const SwitchStmt *>(stmt)->body());
      Policy::join(state, snapshot);
      break;
    }
    case StmtKind::Case:
      walk(static_cast<const CaseStmt *>(stmt)->sub());
      break;
    case StmtKind::Default:
      walk(static_cast<const DefaultStmt *>(stmt)->sub());
      break;
    case StmtKind::OmpDirective:
      leafEvents(stmt); // clause values / reductions
      walk(static_cast<const OmpDirectiveStmt *>(stmt)->associated());
      break;
    case StmtKind::Break:
    case StmtKind::Continue:
    case StmtKind::Null:
      break;
    }
    policy_.after(stmt, *this);
  }

  void walkLoop(const Stmt *loop) {
    const Stmt *body = nullptr;
    if (loop->kind() == StmtKind::For) {
      const auto *forStmt = static_cast<const ForStmt *>(loop);
      walk(forStmt->init());
      body = forStmt->body();
    } else if (loop->kind() == StmtKind::While) {
      body = static_cast<const WhileStmt *>(loop)->body();
    } else {
      body = static_cast<const DoStmt *>(loop)->body();
    }
    std::vector<std::pair<State, State>> *walked = nullptr;
    if (!loops_.empty()) {
      walked = &memo_[loop];
      for (const auto &[entry, exit] : *walked)
        if (entry == state) {
          state = exit;
          return;
        }
    }
    State entry = state;
    loops_.push_back(loop);
    // Iterate the body until the validity state stabilizes: the second pass
    // exposes loop-carried host<->device dependencies (paper: data valid on
    // entry must be valid again at the end of the body).
    State before;
    for (int iteration = 0; iteration < 4; ++iteration) {
      if (iteration > 0)
        before = state;
      leafEvents(loop); // cond/inc reads
      policy_.bodyBegin(loop, *this);
      walk(body);
      policy_.bodyEnd(loop, *this);
      if (iteration > 0 && Policy::stable(before, state))
        break;
    }
    loops_.pop_back();
    // for/while bodies may not execute: merge with the entry state.
    if (loop->kind() != StmtKind::Do && !definitelyExecutes(loop))
      Policy::join(state, entry);
    if (walked != nullptr)
      walked->emplace_back(std::move(entry), state);
    else
      memo_.clear(); // an outermost loop is walked once: its nest is done
  }

  /// A `for` loop with provably positive constant trips runs its body, so
  /// its kills stand (a host loop that fully overwrites an array must count
  /// as a kill, or the region exit pays a dead from-copy plus the update-to
  /// guarding it; oracle invariant 2).
  static bool definitelyExecutes(const Stmt *loop) {
    if (loop->kind() != StmtKind::For)
      return false;
    const LoopBounds bounds =
        analyzeForLoop(static_cast<const ForStmt *>(loop));
    return bounds.valid && bounds.upperConst && bounds.lowerConst &&
           *bounds.upperConst > *bounds.lowerConst;
  }

  void leafEvents(const Stmt *stmt) {
    auto it = accesses_.byStmt.find(stmt);
    if (it == accesses_.byStmt.end())
      return;
    for (const AccessEvent &event : it->second) {
      if (event.var == nullptr)
        continue;
      if (isAggregateLike(event.var) && !event.isDataAccess())
        continue;
      if (event.onDevice && isKernelLocal(event.var))
        continue;
      if (!policy_.tracks(event.var, state))
        continue;
      const bool reads = event.kind == AccessKind::Read ||
                         event.kind == AccessKind::Unknown;
      const bool writes = event.kind == AccessKind::Write ||
                          event.kind == AccessKind::Unknown;
      if (event.onDevice) {
        if (reads)
          policy_.deviceRead(event, *this);
        if (writes)
          policy_.deviceWrite(event, deviceWriteCovers(event), *this);
      } else {
        if (reads)
          policy_.hostRead(event, *this);
        if (writes)
          policy_.hostWrite(event, hostWriteCovers(event), *this);
      }
    }
  }

  /// Variables declared inside an offload kernel (loop induction variables,
  /// kernel-local temporaries) are device-private per OpenMP semantics and
  /// never participate in mapping decisions.
  [[nodiscard]] bool isKernelLocal(const VarDecl *var) const {
    if (!var->declStmtRange().isValid())
      return false;
    for (const OmpDirectiveStmt *kernel : cfg_.kernels())
      if (kernel->range().contains(var->declStmtRange()))
        return true;
    return false;
  }

  /// Whether a kernel write provably overwrites the whole object. A partial
  /// write behaves like a read-modify-write: untouched elements must hold
  /// current values before the kernel runs.
  [[nodiscard]] bool deviceWriteCovers(const AccessEvent &event) const {
    if (!isAggregateLike(event.var))
      return !event.conditional; // whole-scalar writes cover the value
    std::vector<const Stmt *> kernelLoops;
    if (const auto *loops = cfg_.enclosingLoops(event.stmt))
      for (const Stmt *loop : *loops)
        if (event.kernel == nullptr ||
            event.kernel->range().contains(loop->range()))
          kernelLoops.push_back(loop);
    return isFullCoverageWrite(event, event.var,
                               extents_.effectiveExtent(event.var),
                               kernelLoops);
  }

  /// Whether a host write provably overwrites every element, i.e. kills
  /// the device copy. Direct writes prove coverage against the enclosing
  /// loop bounds; call-synthesized writes carry the interprocedural proof
  /// (callee full sweep whose bound equals the argument's extent at the
  /// site).
  [[nodiscard]] bool hostWriteCovers(const AccessEvent &event) const {
    if (!isAggregateLike(event.var))
      return !event.conditional;
    if (event.fromCall)
      return event.provenFullCoverage;
    const ExtentInfo extent = extents_.effectiveExtent(event.var);
    // Single-slot objects (scalars behind [1]-arrays, structs written
    // whole) are covered by any unconditional element write.
    if (extent.constElems && *extent.constElems == 1)
      return !event.conditional;
    static const std::vector<const Stmt *> kNoLoops;
    const auto *loops = cfg_.enclosingLoops(event.stmt);
    return isFullCoverageWrite(event, event.var, extent,
                               loops != nullptr ? *loops : kNoLoops);
  }

  Policy &policy_;
  const AstCfg &cfg_;
  const FunctionAccessInfo &accesses_;
  const ExtentResolver &extents_;
  std::optional<LivenessAnalysis> liveness_;

  const Stmt *start_ = nullptr;
  const Stmt *end_ = nullptr;
  std::size_t regionEndOffset_ = 0;
  bool active_ = false;
  bool done_ = false;
  bool entered_ = false;
  bool exited_ = false;

  std::vector<const Stmt *> loops_;
  /// Nested loops already walked: (entry state, exit state) per loop.
  std::unordered_map<const Stmt *, std::vector<std::pair<State, State>>>
      memo_;
};

} // namespace ompdart
