// Static plan-safety checker: flow-sensitive host/device data-consistency
// analysis over a Mapping IR (the `check` pipeline stage).
//
// The checker runs the planner's own validity walk (one skeleton,
// analysis/validity_walk.hpp) with its own policy: the plan is OVERLAID as
// transfer functions — map to/from/alloc legs seed the per-variable
// abstract state at region entry, `target update` items apply at their
// anchors, and kernel reads/writes (from the interprocedurally augmented
// access stream) plus host statements transform it. Any access that
// consumes a copy the plan left stale is a finding.
//
// The abstract domain is a powerset over five per-path elements
// (see checker.cpp): the planner's validity walk AND-merges a must-valid
// bit at joins, and the powerset union preserves exactly that information
// ("some element has an invalid host copy" ⟺ the planner's merged
// hostValid bit is false), so a plan produced by the planner walks through
// the checker with zero findings — the precision gate bench_check enforces
// over the fuzz corpus and the paper benchmarks. Dropping, weakening, or
// shifting any transfer of a correct plan breaks a consistency proof along
// some path and surfaces as a coded finding (the soundness gate).
//
// Traversal, joins, the loop fixed point, the full-coverage write proofs,
// the region-exit liveness scan and the extent resolution
// (analysis/extent.hpp) are the planner's, not copies of them: a checker
// that walked or proved its own way would disagree with the planner
// precisely on the programs where those rules matter.
#pragma once

#include "analysis/interproc.hpp"
#include "analysis/summary.hpp"
#include "cfg/cfg.hpp"
#include "check/finding.hpp"
#include "frontend/ast.hpp"
#include "mapping/ir.hpp"

#include <memory>
#include <vector>

namespace ompdart::check {

/// Checks `ir` against the program it was planned for. `cfgs` must be the
/// AST-CFGs of `unit` and `interproc` its interprocedural result (the same
/// artifacts the planner consumed). Regions whose function, anchors, or
/// symbols cannot be resolved against the unit are skipped, not flagged —
/// the checker never guesses.
[[nodiscard]] CheckResult
checkPlan(const TranslationUnit &unit,
          const std::vector<std::unique_ptr<AstCfg>> &cfgs,
          const InterproceduralResult &interproc, const ir::MappingIr &ir,
          const summary::TuImports *imports = nullptr);

} // namespace ompdart::check
