#include "check/checker.hpp"

#include "analysis/extent.hpp"
#include "analysis/validity_walk.hpp"
#include "mapping/ast_index.hpp"

#include <map>
#include <set>
#include <tuple>
#include <vector>

namespace ompdart::check {

namespace {

// Abstract domain: a powerset over per-path validity elements. Each element
// describes the host/device copies of one variable along some control-flow
// path reaching the current point; the state is the union over all merged
// paths. The planner's policy of the same validity walk AND-merges a
// must-valid bit at joins; the union preserves exactly that ("some element
// leaves the host copy invalid" ⟺ the planner's merged hostValid bit is
// false), so the consumption points the checker flags are the planner's
// insertion points and correct plans check clean.
enum : unsigned {
  kBoth = 1u << 0,      ///< both copies hold the current value
  kHostOnlyA = 1u << 1, ///< host valid; device never initialized (alloc/from)
  kHostOnlyW = 1u << 2, ///< host valid; device stale after a host write
  kDevOnly = 1u << 3,   ///< device valid; host stale after a device write
  kCorrupt = 1u << 4,   ///< neither copy holds the full current value
};
/// Elements whose HOST copy is not current (a host read would be stale).
constexpr unsigned kHostStale = kDevOnly | kCorrupt;
/// Elements whose DEVICE copy is not current (a kernel read would be stale).
constexpr unsigned kDevStale = kHostOnlyA | kHostOnlyW | kCorrupt;
/// Device-stale elements that carry a post-entry host write. Region-exit
/// from-legs flag only these: zero-trip-loop entry merges legitimately
/// leave kHostOnlyA alive at the exit of correct plans (the planner
/// accepts that corner), so the uninitialized-device element alone is not
/// evidence of a plan bug at the region boundary. Mid-region update-from
/// applications DO flag kHostOnlyA — see applyUpdate.
constexpr unsigned kDevStaleWritten = kHostOnlyW | kCorrupt;

/// One resolved `target update` insertion with its usefulness accounting.
struct UpdateSite {
  const ir::UpdateItem *item = nullptr;
  VarDecl *var = nullptr;
  const Stmt *anchor = nullptr;
  bool applied = false;
  /// Some application saw a non-Both element — the transfer moved data that
  /// was not already in sync somewhere.
  bool nonRedundant = false;
};

/// Checks one IR region against its function: the checker's policy of the
/// validity walk the planner runs (analysis/validity_walk.hpp), with the
/// plan's legs and updates applied at region entry/exit and at their
/// anchors.
class RegionChecker {
public:
  RegionChecker(const AstIndex &index, const AstCfg &cfg,
                const FunctionAccessInfo &accesses, const ir::MappingIr &ir,
                const ir::Region &region, ExtentResolver &extents,
                CheckResult &result)
      : index_(index), cfg_(cfg), accesses_(accesses), ir_(ir),
        region_(region), extents_(extents), result_(result),
        fn_(cfg.function()) {}

  /// Resolves anchors/symbols and runs the walk. Returns false when the
  /// region cannot be resolved against the function (nothing is flagged
  /// then).
  bool run() {
    const Stmt *start = index_.stmtAt(region_.start, fn_);
    const Stmt *end = index_.stmtAt(region_.end, fn_);
    if (start == nullptr || end == nullptr || !resolveItems())
      return false;
    extents_.setFunctionContext(&accesses_, &cfg_);
    Walk walk(*this, cfg_, accesses_, extents_);
    const bool entered = walk.walkRegion(start, end);
    reportUpdateAccounting();
    return entered;
  }

private:
  using State = std::map<VarDecl *, unsigned>;
  using Walk = ValidityWalk<RegionChecker>;
  friend Walk;

  // ---- walk policy ------------------------------------------------------

  static void join(State &into, const State &branch) {
    for (const auto &[var, elems] : branch)
      into[var] |= elems;
  }
  static bool stable(const State &before, const State &after) {
    return before == after;
  }
  /// Only mapped variables carry state; firstprivate scalars are passed
  /// afresh at each launch and unmapped variables have no plan legs to
  /// contradict.
  bool tracks(VarDecl *var, const State &state) const {
    return state.count(var) != 0;
  }
  void before(const Stmt *stmt, Walk &walk) {
    applyUpdates(stmt, ir::UpdatePlacement::Before, walk.state);
  }
  void after(const Stmt *stmt, Walk &walk) {
    applyUpdates(stmt, ir::UpdatePlacement::After, walk.state);
  }
  void bodyBegin(const Stmt *loop, Walk &walk) {
    applyUpdates(loop, ir::UpdatePlacement::BodyBegin, walk.state);
  }
  void bodyEnd(const Stmt *loop, Walk &walk) {
    applyUpdates(loop, ir::UpdatePlacement::BodyEnd, walk.state);
  }

  // ---- resolution -------------------------------------------------------

  VarDecl *resolveSymbol(ir::SymbolId id) const {
    const ir::Symbol *sym = ir_.symbol(id);
    return sym != nullptr ? index_.resolve(*sym, fn_) : nullptr;
  }

  /// Resolves map and update items to their VarDecls and anchors.
  bool resolveItems() {
    for (const ir::MapItem &item : region_.maps) {
      VarDecl *var = resolveSymbol(item.symbol);
      if (var == nullptr)
        return false;
      mapVars_.push_back({&item, var});
    }
    std::set<VarDecl *> mapped;
    for (const auto &[item, var] : mapVars_)
      mapped.insert(var);
    for (const ir::UpdateItem &item : region_.updates) {
      VarDecl *var = resolveSymbol(item.symbol);
      const Stmt *anchor = index_.stmtAt(item.anchor, fn_);
      if (var == nullptr || anchor == nullptr)
        return false;
      // An update moving data for a symbol the region never maps has no
      // device allocation to address — its transfer fires against an
      // absent mapping.
      if (mapped.count(var) == 0) {
        report(FindingCode::ExitWithoutEntry, var, anchorLocation(item),
               "update '" + item.item +
                   "' targets a symbol the region never maps");
        continue;
      }
      updateSites_.push_back(UpdateSite{&item, var, anchor, false, false});
    }
    for (std::size_t i = 0; i < updateSites_.size(); ++i)
      updatesByAnchor_[std::make_pair(
                           updateSites_[i].anchor,
                           static_cast<int>(updateSites_[i].item->placement))]
          .push_back(i);
    return true;
  }

  // ---- findings ---------------------------------------------------------

  static SourceLocation anchorLocation(const ir::UpdateItem &item) {
    SourceLocation loc;
    loc.offset = item.anchor.beginOffset;
    loc.line = item.anchor.line;
    loc.column = 1;
    return loc;
  }

  SourceLocation regionLocation() const {
    SourceLocation loc;
    loc.offset = region_.start.beginOffset;
    loc.line = region_.start.line;
    loc.column = 1;
    return loc;
  }

  void report(FindingCode code, const VarDecl *var, SourceLocation loc,
              std::string message) {
    const std::string symbol = var != nullptr ? var->name() : std::string();
    if (!reported_
             .emplace(static_cast<int>(code), symbol,
                      loc.isValid() ? loc.offset
                                    : static_cast<std::size_t>(0))
             .second)
      return;
    Finding finding;
    finding.code = code;
    finding.symbol = symbol;
    finding.function = fn_->name();
    finding.location = loc;
    finding.message = std::move(message);
    result_.findings.push_back(std::move(finding));
  }

  // ---- region entry / exit ---------------------------------------------

  void enterRegion(Walk &walk) {
    if (region_.entryCount == 0)
      report(FindingCode::ExitWithoutEntry, nullptr, regionLocation(),
             "region entry count is zero: its exit transfers have no "
             "matching entry");
    for (const auto &[item, var] : mapVars_) {
      const bool presentLike = item->modifiers.present;
      if (presentLike != (item->coldEntries == 0))
        report(FindingCode::ExitWithoutEntry, var, regionLocation(),
               "map item '" + item->item +
                   "' is inconsistent: present modifier and cold-entry "
                   "count disagree");
      if (item->coldEntries > region_.entryCount)
        report(FindingCode::ExitWithoutEntry, var, regionLocation(),
               "map item '" + item->item + "' claims " +
                   std::to_string(item->coldEntries) +
                   " cold entries but the region enters only " +
                   std::to_string(region_.entryCount) + " times");
      // Warm items (already present on the device when this region runs)
      // reference-count through entry/exit without copying; their legs were
      // justified by the enclosing analysis, so both copies count as valid
      // and the exit checks stay silent for them.
      if (presentLike || item->coldEntries == 0) {
        warm_.insert(var);
        walk.state[var] = kBoth;
        continue;
      }
      switch (item->type) {
      case ir::MapType::To:
      case ir::MapType::ToFrom:
        walk.state[var] = kBoth;
        break;
      default: // Alloc / From: no entry copy, device uninitialized
        walk.state[var] = kHostOnlyA;
        break;
      }
    }
  }

  void exitRegion(Walk &walk) {
    SourceLocation endLoc;
    endLoc.offset = region_.end.beginOffset;
    endLoc.line = region_.end.endLine;
    endLoc.column = 1;
    for (const auto &[item, var] : mapVars_) {
      if (warm_.count(var) != 0)
        continue;
      const unsigned elems = walk.state[var];
      const bool toLeg =
          item->type == ir::MapType::To || item->type == ir::MapType::ToFrom;
      const bool fromLeg = item->type == ir::MapType::From ||
                           item->type == ir::MapType::ToFrom;
      const bool seenRead = deviceReadSeen_.count(var) != 0;
      const bool seenWrite = deviceWriteSeen_.count(var) != 0;
      if (fromLeg) {
        if ((elems & kDevStaleWritten) != 0)
          report(FindingCode::StaleDeviceRead, var, endLoc,
                 "region exit copies '" + item->item +
                     "' out of a device copy that misses a host write made "
                     "inside the region");
        if (!seenWrite)
          report(FindingCode::DeadTransfer, var, endLoc,
                 "from-leg for '" + item->item +
                     "' copies out data no kernel ever writes");
        else if (!walk.liveAfterRegion(var))
          report(FindingCode::DeadTransfer, var, endLoc,
                 "from-leg for '" + item->item +
                     "' copies out a value the host never reads after the "
                     "region");
      } else if ((elems & kHostStale) != 0 && walk.liveAfterRegion(var)) {
        report(FindingCode::StaleHostRead, var, endLoc,
               "'" + item->item +
                   "' is read on the host after the region but its last "
                   "value lives only on the device (no from-leg)");
      }
      if (toLeg && !seenRead)
        report(FindingCode::DeadTransfer, var, endLoc,
               "to-leg for '" + item->item +
                   "' copies in data nothing on the device consumes");
    }
  }

  void reportUpdateAccounting() {
    for (const UpdateSite &site : updateSites_) {
      if (!site.applied || site.nonRedundant || warm_.count(site.var) != 0)
        continue;
      report(FindingCode::DoubleTransfer, site.var,
             anchorLocation(*site.item),
             "update '" + site.item->item +
                 "' always fires with both copies already in sync");
    }
  }

  // ---- update application ----------------------------------------------

  void applyUpdates(const Stmt *stmt, ir::UpdatePlacement placement,
                    State &state) {
    auto it = updatesByAnchor_.find(
        std::make_pair(stmt, static_cast<int>(placement)));
    if (it == updatesByAnchor_.end())
      return;
    for (const std::size_t index : it->second)
      applyUpdate(updateSites_[index], state);
  }

  void applyUpdate(UpdateSite &site, State &state) {
    auto it = state.find(site.var);
    if (it == state.end())
      return;
    unsigned &elems = it->second;
    site.applied = true;
    if ((elems & ~kBoth) != 0)
      site.nonRedundant = true;
    const SourceLocation loc = anchorLocation(*site.item);
    if (site.item->direction == ir::UpdateDirection::To) {
      if ((elems & kHostStale) != 0)
        report(FindingCode::StaleHostRead, site.var, loc,
               "update to '" + site.item->item +
                   "' copies a host value that is stale here (the device "
                   "holds a newer one)");
      unsigned out = 0;
      if ((elems & (kBoth | kHostOnlyA | kHostOnlyW)) != 0)
        out |= kBoth;
      if ((elems & kHostStale) != 0)
        out |= kCorrupt; // the stale host copy clobbered newer device data
      elems = out;
    } else {
      // Unlike the region-exit from-leg, an update-from flags the
      // never-initialized element too: the planner forces a to-leg onto
      // any map whose update-from can run before the first device write
      // (the loop-carried rule), so kHostOnlyA reaching one is always a
      // dropped or weakened to-leg — the dynamic oracle confirms these
      // corrupt host data (bench_check concordance).
      if ((elems & kDevStale) != 0)
        report(FindingCode::StaleDeviceRead, site.var, loc,
               "update from '" + site.item->item +
                   "' copies a device value the host side never fed or "
                   "refreshed");
      unsigned out = 0;
      if ((elems & (kBoth | kDevOnly | kHostOnlyA)) != 0)
        out |= kBoth;
      if ((elems & kDevStaleWritten) != 0)
        out |= kCorrupt;
      elems = out;
      // The copy-out consumes the device copy — the entry to-leg that fed
      // a loop-carried before-update is not dead.
      deviceReadSeen_.insert(site.var);
    }
  }

  // ---- access transfer functions ---------------------------------------

  SourceLocation eventLocation(const AccessEvent &event) const {
    return event.stmt != nullptr ? event.stmt->range().begin
                                 : regionLocation();
  }

  void deviceRead(const AccessEvent &event, Walk &walk) {
    unsigned &elems = walk.state[event.var];
    deviceReadSeen_.insert(event.var);
    if ((elems & kDevStale) != 0) {
      report(FindingCode::StaleDeviceRead, event.var, eventLocation(event),
             "kernel reads '" + event.var->name() +
                 "' but the device copy may be stale here");
      // Heal as if the missing transfer existed, so one dropped leg does
      // not cascade into a finding at every later consumption point.
      unsigned out = elems & (kBoth | kDevOnly);
      if ((elems & (kHostOnlyA | kHostOnlyW)) != 0)
        out |= kBoth;
      if ((elems & kCorrupt) != 0)
        out |= kDevOnly;
      elems = out;
    }
  }

  void deviceWrite(const AccessEvent &event, bool fullCoverage, Walk &walk) {
    unsigned &elems = walk.state[event.var];
    if (!fullCoverage) {
      // A partial write behaves like a read-modify-write of the whole
      // object: untouched elements must be current on the device first.
      deviceReadSeen_.insert(event.var);
      if ((elems & kDevStale) != 0)
        report(FindingCode::StaleDeviceRead, event.var, eventLocation(event),
               "kernel partially writes '" + event.var->name() +
                   "' but the untouched device elements may be stale here");
    }
    deviceWriteSeen_.insert(event.var);
    unsigned out = 0;
    if (fullCoverage) {
      out = kDevOnly;
    } else {
      if ((elems & (kBoth | kDevOnly)) != 0)
        out |= kDevOnly;
      if ((elems & kDevStale) != 0)
        out |= kCorrupt;
    }
    elems = out;
  }

  void hostRead(const AccessEvent &event, Walk &walk) {
    unsigned &elems = walk.state[event.var];
    if ((elems & kHostStale) != 0) {
      report(FindingCode::StaleHostRead, event.var, eventLocation(event),
             "host reads '" + event.var->name() +
                 "' but the current value lives only on the device here");
      unsigned out = elems & ~kHostStale;
      if ((elems & kDevOnly) != 0)
        out |= kBoth;
      if ((elems & kCorrupt) != 0)
        out |= kHostOnlyW;
      elems = out;
    }
  }

  void hostWrite(const AccessEvent &event, bool fullCoverage, Walk &walk) {
    unsigned &elems = walk.state[event.var];
    if (!fullCoverage && (elems & kHostStale) != 0)
      report(FindingCode::StaleHostRead, event.var, eventLocation(event),
             "host partially writes '" + event.var->name() +
                 "' but the untouched host elements may be stale here");
    unsigned out = 0;
    if (fullCoverage) {
      out = kHostOnlyW;
    } else {
      if ((elems & (kBoth | kHostOnlyA | kHostOnlyW)) != 0)
        out |= kHostOnlyW;
      if ((elems & kHostStale) != 0)
        out |= kCorrupt;
    }
    elems = out;
  }

  // ---- members ----------------------------------------------------------

  const AstIndex &index_;
  const AstCfg &cfg_;
  const FunctionAccessInfo &accesses_;
  const ir::MappingIr &ir_;
  const ir::Region &region_;
  ExtentResolver &extents_;
  CheckResult &result_;
  const FunctionDecl *fn_;

  std::vector<std::pair<const ir::MapItem *, VarDecl *>> mapVars_;
  std::vector<UpdateSite> updateSites_;
  std::map<std::pair<const Stmt *, int>, std::vector<std::size_t>>
      updatesByAnchor_;

  std::set<VarDecl *> warm_;
  std::set<VarDecl *> deviceReadSeen_;
  std::set<VarDecl *> deviceWriteSeen_;
  std::set<std::tuple<int, std::string, std::size_t>> reported_;
};

} // namespace

CheckResult checkPlan(const TranslationUnit &unit,
                      const std::vector<std::unique_ptr<AstCfg>> &cfgs,
                      const InterproceduralResult &interproc,
                      const ir::MappingIr &ir,
                      const summary::TuImports *imports) {
  CheckResult result;
  if (ir.regions.empty())
    return result;
  const AstIndex index(unit);
  MallocExtents mallocExtents(unit);
  // Diagnostics stay off: the plan stage already reported any call-site
  // disagreements; the checker resolves extents silently.
  ExtentResolver extents(unit, interproc, mallocExtents, imports,
                         /*diags=*/nullptr);
  for (const ir::Region &region : ir.regions) {
    const FunctionDecl *fn = unit.findFunction(region.function);
    if (fn == nullptr || fn->body() == nullptr)
      continue;
    const AstCfg *cfg = nullptr;
    for (const auto &candidate : cfgs)
      if (candidate->function() == fn)
        cfg = candidate.get();
    const FunctionAccessInfo *accesses = interproc.accessesFor(fn);
    if (cfg == nullptr || accesses == nullptr)
      continue;
    RegionChecker checker(index, *cfg, *accesses, ir, region, extents,
                          result);
    if (checker.run())
      ++result.regionsChecked;
  }
  return result;
}

} // namespace ompdart::check
