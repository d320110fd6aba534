// Tests for the static plan-safety checker (src/check/): finding-code and
// JSON round-trips, mutation-battery mechanics, precision on the planner's
// own plans, and — the core of this file — the eight minimized oracle
// regressions re-introduced as IR mutations. Each regression program under
// tests/verify/regressions/ once shipped with a buggy plan; here the
// equivalent single-decision break is applied to today's correct plan and
// the checker must flag it with the diagnostic code of the original bug
// class. That pins the checker to the exact failure modes the dynamic
// oracle has already proven real.
#include "check/checker.hpp"
#include "check/mutate.hpp"
#include "driver/pipeline.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#ifndef OMPDART_REPO_DIR
#define OMPDART_REPO_DIR "."
#endif

namespace ompdart {
namespace {

namespace fs = std::filesystem;
using check::CheckResult;
using check::Finding;
using check::FindingCode;
using check::Mutation;

std::string loadRegression(const std::string &name) {
  const fs::path path = fs::path(OMPDART_REPO_DIR) / "tests" / "verify" /
                        "regressions" / name;
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Front end + plan for one source; keeps the Session alive so mutated IRs
/// can be re-checked against the same unit/CFG/interproc artifacts.
struct PlannedProgram {
  explicit PlannedProgram(const std::string &name)
      : session(name, loadRegression(name)) {
    session.ir();
  }

  [[nodiscard]] const ir::MappingIr &ir() { return session.ir(); }

  [[nodiscard]] CheckResult checkMutant(const ir::MappingIr &mutant) {
    const summary::SealedImports *imports = session.config().imports;
    return check::checkPlan(session.parse().unit(), session.cfg(),
                            session.interproc(), mutant,
                            imports != nullptr ? &imports->imports() : nullptr);
  }

  Session session;
};

/// The region planned for `function`; fails the test when absent.
const ir::Region *regionFor(const ir::MappingIr &ir,
                            const std::string &function,
                            std::size_t *indexOut = nullptr) {
  for (std::size_t i = 0; i < ir.regions.size(); ++i)
    if (ir.regions[i].function == function) {
      if (indexOut != nullptr)
        *indexOut = i;
      return &ir.regions[i];
    }
  return nullptr;
}

/// Index of the first map item in `region` whose spelled item starts with
/// `var` and whose type satisfies `type`; npos when absent.
std::size_t findMap(const ir::Region &region, const std::string &var,
                    ir::MapType type) {
  for (std::size_t i = 0; i < region.maps.size(); ++i)
    if (region.maps[i].type == type &&
        region.maps[i].item.rfind(var, 0) == 0)
      return i;
  return static_cast<std::size_t>(-1);
}

// ---------------------------------------------------------------------------
// Finding codes & JSON
// ---------------------------------------------------------------------------

TEST(FindingTest, CodeNamesRoundTrip) {
  const FindingCode codes[] = {
      FindingCode::StaleDeviceRead, FindingCode::StaleHostRead,
      FindingCode::DeadTransfer, FindingCode::DoubleTransfer,
      FindingCode::ExitWithoutEntry};
  for (const FindingCode code : codes) {
    const auto back = check::findingCodeFromName(check::findingCodeName(code));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, code);
  }
  EXPECT_FALSE(check::findingCodeFromName("no-such-code").has_value());
}

TEST(FindingTest, JsonRoundTrip) {
  Finding finding;
  finding.code = FindingCode::DeadTransfer;
  finding.symbol = "a";
  finding.function = "main";
  finding.location.offset = 42;
  finding.location.line = 7;
  finding.location.column = 3;
  finding.message = "from-leg for 'a' copies out data no kernel ever writes";

  CheckResult result;
  result.findings.push_back(finding);
  result.regionsChecked = 2;

  const auto back = CheckResult::fromJson(result.toJson());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, result);
}

// ---------------------------------------------------------------------------
// Mutation battery mechanics
// ---------------------------------------------------------------------------

TEST(MutateTest, EnumerationIsDeterministicAndNonDestructive) {
  PlannedProgram program("warm_callee_region.c");
  const ir::MappingIr &ir = program.ir();
  ASSERT_FALSE(ir.empty());

  const auto a = check::enumerateMutations(ir);
  const auto b = check::enumerateMutations(ir);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].region, b[i].region);
    EXPECT_EQ(a[i].item, b[i].item);
  }

  const ir::MappingIr before = ir;
  for (const Mutation &mutation : a) {
    const ir::MappingIr mutant = check::applyMutation(ir, mutation);
    EXPECT_NE(mutant, before) << mutation.describe(ir);
  }
  EXPECT_EQ(ir, before); // applyMutation copies, never edits in place
}

TEST(MutateTest, WarmItemsAreNotWeakened) {
  // warm_callee_region's stage() maps are present/coldEntries==0; breaking
  // their legs is invisible to any execution, so the battery must skip
  // them (equivalent mutants would dilute the kill rate).
  PlannedProgram program("warm_callee_region.c");
  const ir::MappingIr &ir = program.ir();
  std::size_t stageIndex = 0;
  ASSERT_NE(regionFor(ir, "stage", &stageIndex), nullptr);
  for (const Mutation &mutation : check::enumerateMutations(ir)) {
    if (mutation.region != stageIndex)
      continue;
    EXPECT_NE(mutation.kind, Mutation::Kind::DropFromLeg);
    EXPECT_NE(mutation.kind, Mutation::Kind::WeakenMapType);
    EXPECT_NE(mutation.kind, Mutation::Kind::BreakPresent);
  }
}

// ---------------------------------------------------------------------------
// Precision: the planner's own plans are clean
// ---------------------------------------------------------------------------

TEST(CheckerTest, PlannerPlansAreClean) {
  const char *const regressions[] = {
      "aliased_pointer_params.c",    "braceless_loop_body_update.c",
      "dead_copyout_after_host_overwrite.c", "guarded_sole_kernel.c",
      "loop_carried_update_from.c",  "mixed_warm_callee_sites.c",
      "partial_host_write_kill.c",   "warm_callee_region.c"};
  for (const char *name : regressions) {
    PlannedProgram program(name);
    const CheckResult &result = program.session.check();
    EXPECT_TRUE(result.clean()) << name;
    EXPECT_GT(result.regionsChecked, 0u) << name;
  }
}

TEST(CheckerTest, CheckStageRunsOnceInFullPipeline) {
  PlannedProgram program("guarded_sole_kernel.c");
  program.session.run();
  EXPECT_EQ(program.session.stageRuns(Stage::Check), 1u);
  const Report &report = program.session.report();
  ASSERT_TRUE(report.check.has_value());
  EXPECT_TRUE(report.check->clean());
}

/// A kernel and a partial host write inside `depth` nested one-trip loops.
std::string deepLoopNest(unsigned depth) {
  std::string source = "double a[4];\nvoid f(void) {\n";
  for (unsigned i = 0; i < depth; ++i) {
    const std::string var = "i" + std::to_string(i);
    source += "  for (int " + var + " = 0; " + var + " < 1; ++" + var + ")\n";
  }
  source += "  {\n"
            "#pragma omp target teams distribute parallel for\n"
            "    for (int k = 0; k < 4; ++k) a[k] = a[k] + 1.0;\n"
            "    a[0] = 2.0;\n"
            "  }\n"
            "}\n";
  return source;
}

// Each loop below the outermost is walked once per fixed-point pass of
// every enclosing loop; without the walk's loop memo a nest of n loops
// costs 2^n body walks and these depths never finish.
TEST(CheckerTest, DeepLoopNestsPlanAndCheckWithoutBlowup) {
  for (const unsigned depth : {24u, 40u}) {
    PipelineConfig config;
    config.check = true;
    Session session("deep.c", deepLoopNest(depth), config);
    ASSERT_TRUE(session.run()) << depth;
    const ir::MappingIr &ir = session.ir();
    ASSERT_EQ(ir.regions.size(), 1u) << depth;
    EXPECT_NE(findMap(ir.regions[0], "a", ir::MapType::To),
              static_cast<std::size_t>(-1))
        << depth;
    EXPECT_EQ(ir.regions[0].updates.size(), 2u) << depth;
    EXPECT_TRUE(session.check().clean()) << depth;
    EXPECT_EQ(session.check().regionsChecked, 1u) << depth;
  }
}

// Symbols resolve only within the region's function: a map item retargeted
// to another function's local leaves its region unresolved, so the region
// is skipped rather than walked against a variable it never touches.
TEST(CheckerTest, SymbolOfAnotherFunctionSkipsTheRegion) {
  const std::string source =
      "void f(void) {\n"
      "  double a[8];\n"
      "  for (int i = 0; i < 8; ++i) a[i] = i;\n"
      "#pragma omp target teams distribute parallel for\n"
      "  for (int i = 0; i < 8; ++i) a[i] = a[i] * 2.0;\n"
      "  a[0] = a[1];\n"
      "}\n"
      "void g(void) {\n"
      "  double b[8];\n"
      "  for (int i = 0; i < 8; ++i) b[i] = i;\n"
      "#pragma omp target teams distribute parallel for\n"
      "  for (int i = 0; i < 8; ++i) b[i] = b[i] + 1.0;\n"
      "  b[0] = b[1];\n"
      "}\n";
  Session session("scoped.c", source);
  const ir::MappingIr &ir = session.ir();
  std::size_t fIndex = 0;
  const ir::Region *g = regionFor(ir, "g");
  ASSERT_NE(regionFor(ir, "f", &fIndex), nullptr);
  ASSERT_NE(g, nullptr);
  ASSERT_FALSE(ir.regions[fIndex].maps.empty());
  ASSERT_FALSE(g->maps.empty());
  EXPECT_EQ(session.check().regionsChecked, 2u);

  ir::MappingIr mutant = ir;
  mutant.regions[fIndex].maps[0].symbol = g->maps[0].symbol;
  const CheckResult result = check::checkPlan(
      session.parse().unit(), session.cfg(), session.interproc(), mutant);
  EXPECT_EQ(result.regionsChecked, 1u);
  EXPECT_TRUE(result.clean());
}

// ---------------------------------------------------------------------------
// The eight oracle regressions as IR mutations
// ---------------------------------------------------------------------------

// aliased_pointer_params: the original bug left the device image of the
// kernel's input uninitialized. Weakening src's to-leg to alloc re-creates
// exactly that — the kernel reads device memory no transfer ever fed.
TEST(CheckerRegressionTest, AliasedPointerParams) {
  PlannedProgram program("aliased_pointer_params.c");
  std::size_t region = 0;
  const ir::Region *stage = regionFor(program.ir(), "stage", &region);
  ASSERT_NE(stage, nullptr);
  const std::size_t map = findMap(*stage, "src", ir::MapType::To);
  ASSERT_NE(map, static_cast<std::size_t>(-1));

  const auto mutant = check::applyMutation(
      program.ir(), {Mutation::Kind::WeakenMapType, region, map});
  const CheckResult result = program.checkMutant(mutant);
  EXPECT_TRUE(result.hasCode(FindingCode::StaleDeviceRead));
}

// braceless_loop_body_update: the rewriter once landed a body-end update
// AFTER the while loop, so the loop condition kept reading stale host
// data. Shifting the body-end update out of the loop is that bug in IR
// form.
TEST(CheckerRegressionTest, BracelessLoopBodyUpdate) {
  PlannedProgram program("braceless_loop_body_update.c");
  std::size_t region = 0;
  const ir::Region *main = regionFor(program.ir(), "main", &region);
  ASSERT_NE(main, nullptr);
  std::size_t update = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < main->updates.size(); ++i)
    if (main->updates[i].placement == ir::UpdatePlacement::BodyEnd &&
        main->updates[i].item == "stop")
      update = i;
  ASSERT_NE(update, static_cast<std::size_t>(-1));

  const auto mutant = check::applyMutation(
      program.ir(), {Mutation::Kind::ShiftUpdate, region, update});
  const CheckResult result = program.checkMutant(mutant);
  EXPECT_TRUE(result.hasCode(FindingCode::StaleHostRead));
}

// dead_copyout_after_host_overwrite: the planner once kept a from-leg for
// data the host fully overwrites. Re-adding that from-leg makes the exit
// copy out a device image that misses the host's newer values.
TEST(CheckerRegressionTest, DeadCopyoutAfterHostOverwrite) {
  PlannedProgram program("dead_copyout_after_host_overwrite.c");
  std::size_t region = 0;
  const ir::Region *main = regionFor(program.ir(), "main", &region);
  ASSERT_NE(main, nullptr);
  const std::size_t map = findMap(*main, "a", ir::MapType::To);
  ASSERT_NE(map, static_cast<std::size_t>(-1));

  ir::MappingIr mutant = program.ir();
  mutant.regions[region].maps[map].type = ir::MapType::ToFrom;
  const CheckResult result = program.checkMutant(mutant);
  EXPECT_TRUE(result.hasCode(FindingCode::StaleDeviceRead));
}

// guarded_sole_kernel: the region walker once dropped the kernel's
// from-leg because a post-region read looked in-region. Dropping the
// from-leg leaves the tail read consuming pre-kernel host values.
TEST(CheckerRegressionTest, GuardedSoleKernel) {
  PlannedProgram program("guarded_sole_kernel.c");
  std::size_t region = 0;
  const ir::Region *main = regionFor(program.ir(), "main", &region);
  ASSERT_NE(main, nullptr);
  const std::size_t map = findMap(*main, "a", ir::MapType::ToFrom);
  ASSERT_NE(map, static_cast<std::size_t>(-1));

  const auto mutant = check::applyMutation(
      program.ir(), {Mutation::Kind::DropFromLeg, region, map});
  const CheckResult result = program.checkMutant(mutant);
  EXPECT_TRUE(result.hasCode(FindingCode::StaleHostRead));
}

// loop_carried_update_from: an update-from once ran before any kernel had
// written the device copy (no to-leg), copying uninitialized device memory
// over live host data on the first trip. Weakening the to-leg re-creates
// it.
TEST(CheckerRegressionTest, LoopCarriedUpdateFrom) {
  PlannedProgram program("loop_carried_update_from.c");
  std::size_t region = 0;
  const ir::Region *main = regionFor(program.ir(), "main", &region);
  ASSERT_NE(main, nullptr);
  const std::size_t map = findMap(*main, "a", ir::MapType::To);
  ASSERT_NE(map, static_cast<std::size_t>(-1));

  const auto mutant = check::applyMutation(
      program.ir(), {Mutation::Kind::WeakenMapType, region, map});
  const CheckResult result = program.checkMutant(mutant);
  EXPECT_TRUE(result.hasCode(FindingCode::StaleDeviceRead));
}

// mixed_warm_callee_sites: per-item coldEntries exist precisely because
// all-or-nothing present marking cannot express a warm/cold call-site mix.
// Claiming present on an item with cold entries is that contradiction.
TEST(CheckerRegressionTest, MixedWarmCalleeSites) {
  PlannedProgram program("mixed_warm_callee_sites.c");
  std::size_t region = 0;
  const ir::Region *stage = regionFor(program.ir(), "stage", &region);
  ASSERT_NE(stage, nullptr);
  const std::size_t map = findMap(*stage, "src", ir::MapType::To);
  ASSERT_NE(map, static_cast<std::size_t>(-1));
  ASSERT_GT(stage->maps[map].coldEntries, 0u);
  ASSERT_FALSE(stage->maps[map].modifiers.present);

  const auto mutant = check::applyMutation(
      program.ir(), {Mutation::Kind::BreakPresent, region, map});
  const CheckResult result = program.checkMutant(mutant);
  EXPECT_TRUE(result.hasCode(FindingCode::ExitWithoutEntry));
}

// partial_host_write_kill: a whole-object kill once dropped the from-leg
// although the host overwrote only half the array — the bug IS a dropped
// from-leg.
TEST(CheckerRegressionTest, PartialHostWriteKill) {
  PlannedProgram program("partial_host_write_kill.c");
  std::size_t region = 0;
  const ir::Region *main = regionFor(program.ir(), "main", &region);
  ASSERT_NE(main, nullptr);
  const std::size_t map = findMap(*main, "a", ir::MapType::ToFrom);
  ASSERT_NE(map, static_cast<std::size_t>(-1));

  const auto mutant = check::applyMutation(
      program.ir(), {Mutation::Kind::DropFromLeg, region, map});
  const CheckResult result = program.checkMutant(mutant);
  EXPECT_TRUE(result.hasCode(FindingCode::StaleHostRead));
}

// warm_callee_region: the warm-callee post-pass marks fully-warm items
// present with zero cold entries. Toggling present off one of them breaks
// the refcount-shape contract the other way around.
TEST(CheckerRegressionTest, WarmCalleeRegion) {
  PlannedProgram program("warm_callee_region.c");
  std::size_t region = 0;
  const ir::Region *stage = regionFor(program.ir(), "stage", &region);
  ASSERT_NE(stage, nullptr);
  const std::size_t map = findMap(*stage, "src", ir::MapType::To);
  ASSERT_NE(map, static_cast<std::size_t>(-1));
  ASSERT_TRUE(stage->maps[map].modifiers.present);
  ASSERT_EQ(stage->maps[map].coldEntries, 0u);

  const auto mutant = check::applyMutation(
      program.ir(), {Mutation::Kind::BreakPresent, region, map});
  const CheckResult result = program.checkMutant(mutant);
  EXPECT_TRUE(result.hasCode(FindingCode::ExitWithoutEntry));
}

// Zeroing the entry count is a pure shape break: every exit transfer then
// has no matching entry.
TEST(CheckerRegressionTest, ZeroEntryCountIsFlagged) {
  PlannedProgram program("guarded_sole_kernel.c");
  ASSERT_FALSE(program.ir().empty());
  const auto mutant = check::applyMutation(
      program.ir(), {Mutation::Kind::ZeroEntryCount, 0, 0});
  const CheckResult result = program.checkMutant(mutant);
  EXPECT_TRUE(result.hasCode(FindingCode::ExitWithoutEntry));
}

} // namespace
} // namespace ompdart
