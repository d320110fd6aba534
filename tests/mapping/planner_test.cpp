#include "../common/test_util.hpp"

#include "analysis/execution.hpp"
#include "analysis/interproc.hpp"
#include "mapping/planner.hpp"

#include <gtest/gtest.h>

namespace ompdart {
namespace {

struct PlanFixture {
  test::ParsedUnit parsed;
  InterproceduralResult interproc;
  DiagnosticEngine planDiags;
  ir::MappingIr plan;

  explicit PlanFixture(const std::string &source,
                       PlannerOptions options = {})
      : parsed(test::parse(source)) {
    EXPECT_TRUE(parsed.ok) << parsed.diags->summary();
    interproc = runInterproceduralAnalysis(parsed.unit());
    plan = planMappings(parsed.unit(), interproc, planDiags, options);
  }

  const ir::Region *region(const std::string &fnName = "f") const {
    return plan.regionFor(fnName);
  }
  /// Name of the variable behind a plan item.
  std::string nameOf(ir::SymbolId id) const {
    const ir::Symbol *symbol = plan.symbol(id);
    return symbol != nullptr ? symbol->name : std::string();
  }
  const ir::MapItem *mapOf(const std::string &varName,
                           const std::string &fnName = "f") const {
    const ir::Region *r = region(fnName);
    if (r == nullptr)
      return nullptr;
    for (const ir::MapItem &map : r->maps)
      if (nameOf(map.symbol) == varName)
        return &map;
    return nullptr;
  }
  /// The statement of `fnName` an anchor references (the outermost one
  /// when several share its source range); null when none does.
  const Stmt *stmtAt(const ir::StmtAnchor &anchor,
                     const std::string &fnName = "f") const {
    auto spans = [&](const Stmt *stmt) {
      return stmt != nullptr &&
             stmt->range().begin.offset == anchor.beginOffset &&
             stmt->range().end.offset == anchor.endOffset;
    };
    for (const auto &[child, parent] :
         ParentMap(parsed.function(fnName)).takeLinks())
      if (spans(child) && !spans(parent))
        return child;
    return nullptr;
  }
};

// --- Paper Listing 1: kernel nested inside a loop ---
TEST(PlannerTest, ListingOneRegionHoistedOutsideLoop) {
  PlanFixture fx(R"(
void f(int *a, int n) {
  for (int i = 0; i < n; ++i) {
    #pragma omp target teams distribute parallel for
    for (int j = 0; j < n; ++j) {
      a[j] += j;
    }
  }
}
)");
  const ir::Region *region = fx.region();
  ASSERT_NE(region, nullptr);
  // Region anchors at the outer loop, not the kernel.
  const Stmt *start = fx.stmtAt(region->start);
  ASSERT_NE(start, nullptr);
  EXPECT_EQ(start->kind(), StmtKind::For);
  EXPECT_EQ(start, fx.stmtAt(region->end));
  EXPECT_FALSE(region->appendsToKernel);
  const ir::MapItem *a = fx.mapOf("a");
  ASSERT_NE(a, nullptr);
  // Device read-modify-writes + escaping pointer param: tofrom.
  EXPECT_EQ(a->type, ir::MapType::ToFrom);
  // No per-iteration updates are needed: the host never touches `a` inside.
  EXPECT_TRUE(region->updates.empty());
}

// --- Paper Listing 2: redundant transfer between consecutive kernels ---
TEST(PlannerTest, ListingTwoSingleRegionSpansBothKernels) {
  PlanFixture fx(R"(
void f(int *a, int n) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; ++i) {
    a[i] += i;
  }
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; ++i) {
    a[i] *= i;
  }
}
)");
  const ir::Region *region = fx.region();
  ASSERT_NE(region, nullptr);
  EXPECT_NE(fx.stmtAt(region->start), fx.stmtAt(region->end));
  // One mapping for `a`, no updates between the kernels.
  ASSERT_EQ(region->maps.size(), 1u);
  EXPECT_TRUE(region->updates.empty());
}

// --- Paper Listing 3 (corrected): update from instead of inner map ---
TEST(PlannerTest, ListingThreeGetsUpdateFrom) {
  PlanFixture fx(R"(
void f(int *a, int n, int m) {
  int sum = 0;
  for (int i = 0; i < m; ++i) {
    #pragma omp target teams distribute parallel for
    for (int j = 0; j < n; ++j) {
      a[j] += j;
    }
    for (int j = 0; j < n; ++j) {
      sum += a[j];
    }
  }
  a[0] = sum;
}
)");
  const ir::Region *region = fx.region();
  ASSERT_NE(region, nullptr);
  // One update-from for `a`, hoisted before the host summation loop (the j
  // loop indexes it) but inside the outer i loop (producer kernel inside).
  ASSERT_EQ(region->updates.size(), 1u);
  const ir::UpdateItem &update = region->updates[0];
  EXPECT_EQ(update.direction, ir::UpdateDirection::From);
  EXPECT_EQ(fx.nameOf(update.symbol), "a");
  EXPECT_TRUE(update.hoisted);
  const Stmt *anchor = fx.stmtAt(update.anchor);
  ASSERT_NE(anchor, nullptr);
  ASSERT_EQ(anchor->kind(), StmtKind::For);
  // The anchor loop must be *inside* the outer loop (not the outer loop).
  EXPECT_NE(anchor, fx.stmtAt(region->start));
}

// --- firstprivate for read-only scalars (paper §IV-D) ---
TEST(PlannerTest, ReadOnlyScalarBecomesFirstprivate) {
  PlanFixture fx(R"(
void f(double *a, int n) {
  double factor = 2.5;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; ++i) {
    a[i] *= factor;
  }
}
)");
  const ir::Region *region = fx.region();
  ASSERT_NE(region, nullptr);
  EXPECT_EQ(fx.mapOf("factor"), nullptr);
  // Both read-only scalars (factor and the loop bound n) privatize.
  bool factorPrivatized = false;
  for (const ir::FirstprivateItem &fp : region->firstprivates)
    factorPrivatized |= fx.nameOf(fp.symbol) == "factor";
  EXPECT_TRUE(factorPrivatized);
  EXPECT_EQ(fx.mapOf("n"), nullptr);
}

TEST(PlannerTest, FirstprivateDisabledByOption) {
  PlannerOptions options;
  options.useFirstprivate = false;
  PlanFixture fx(R"(
void f(double *a, int n) {
  double factor = 2.5;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; ++i) {
    a[i] *= factor;
  }
}
)",
                 options);
  const ir::Region *region = fx.region();
  ASSERT_NE(region, nullptr);
  EXPECT_TRUE(region->firstprivates.empty());
  const ir::MapItem *factor = fx.mapOf("factor");
  ASSERT_NE(factor, nullptr);
  EXPECT_EQ(factor->type, ir::MapType::To);
}

TEST(PlannerTest, DeviceWrittenScalarNotFirstprivate) {
  PlanFixture fx(R"(
void f(double *a, int n) {
  double sum = 0.0;
  #pragma omp target teams distribute parallel for reduction(+: sum)
  for (int i = 0; i < n; ++i) {
    sum += a[i];
  }
  a[0] = sum;
}
)");
  const ir::Region *region = fx.region();
  ASSERT_NE(region, nullptr);
  const ir::MapItem *sum = fx.mapOf("sum");
  ASSERT_NE(sum, nullptr);
  // Written on device and read on host after: tofrom.
  EXPECT_EQ(sum->type, ir::MapType::ToFrom);
  for (const ir::FirstprivateItem &fp : region->firstprivates)
    EXPECT_NE(fx.nameOf(fp.symbol), "sum");
}

// --- map-type decisions ---
TEST(PlannerTest, FullCoverageWriteGetsFromOnly) {
  PlanFixture fx(R"(
void f(double *out, int n) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; ++i) {
    out[i] = i * 2.0;
  }
}
)");
  // out's malloc extent is unknown but it is fully written by the kernel
  // loop bound `n`; device never reads it -> map(from:), not tofrom.
  const ir::MapItem *out = fx.mapOf("out");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->type, ir::MapType::From);
}

TEST(PlannerTest, ReadOnlyArrayGetsToOnly) {
  PlanFixture fx(R"(
void f(const double *in, double *out, int n) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; ++i) {
    out[i] = in[i] * 2.0;
  }
}
)");
  const ir::MapItem *in = fx.mapOf("in");
  ASSERT_NE(in, nullptr);
  EXPECT_EQ(in->type, ir::MapType::To);
}

TEST(PlannerTest, ScratchArrayGetsAlloc) {
  PlanFixture fx(R"(
void f(double *out, int n) {
  double scratch[256];
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 256; ++i) {
    scratch[i] = i;
  }
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 256; ++i) {
    out[i] = scratch[i] + 1.0;
  }
}
)");
  // scratch is written (full coverage) then read, only on the device, and
  // never read on the host afterwards: alloc.
  const ir::MapItem *scratch = fx.mapOf("scratch");
  ASSERT_NE(scratch, nullptr);
  EXPECT_EQ(scratch->type, ir::MapType::Alloc);
}

TEST(PlannerTest, PartialDeviceWriteNeedsTo) {
  PlanFixture fx(R"(
void f(double *a, int n) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n / 2; ++i) {
    a[i] = i;
  }
  a[0] = a[n - 1];
}
)");
  const ir::MapItem *a = fx.mapOf("a");
  ASSERT_NE(a, nullptr);
  // Only half the array is written: the rest must be copied in so the
  // copy-out does not clobber valid host data.
  EXPECT_EQ(a->type, ir::MapType::ToFrom);
}

// --- update-to for host writes between kernels ---
TEST(PlannerTest, HostWriteBetweenKernelsGetsUpdateTo) {
  PlanFixture fx(R"(
void f(double *a, double *b, int n) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; ++i) {
    b[i] = a[i] * 2.0;
  }
  for (int i = 0; i < n; ++i) {
    a[i] = b[i] + 1.0;
  }
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; ++i) {
    b[i] = a[i] * 3.0;
  }
}
)");
  const ir::Region *region = fx.region();
  ASSERT_NE(region, nullptr);
  bool sawUpdateToA = false;
  bool sawUpdateFromB = false;
  for (const ir::UpdateItem &update : region->updates) {
    if (fx.nameOf(update.symbol) == "a" &&
        update.direction == ir::UpdateDirection::To)
      sawUpdateToA = true;
    if (fx.nameOf(update.symbol) == "b" &&
        update.direction == ir::UpdateDirection::From)
      sawUpdateFromB = true;
  }
  EXPECT_TRUE(sawUpdateToA);
  EXPECT_TRUE(sawUpdateFromB);
}

// --- declaration-before-region validation ---
TEST(PlannerTest, DeclarationInsideRegionIsError) {
  PlanFixture fx(R"(
void f(double *a, int n) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; ++i) {
    a[i] = i;
  }
  double mid[64];
  for (int i = 0; i < 64; ++i) mid[i] = a[i];
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 64; ++i) {
    a[i] = mid[i];
  }
}
)");
  EXPECT_TRUE(fx.planDiags.hasErrors());
  bool mentioned = false;
  for (const Diagnostic &diag : fx.planDiags.diagnostics())
    mentioned |= diag.message.find("mid") != std::string::npos;
  EXPECT_TRUE(mentioned);
}

// --- sections ---
TEST(PlannerTest, PointerSectionUsesMallocExtent) {
  PlanFixture fx(R"(
void f(int n) {
  double *a = (double *)malloc(n * sizeof(double));
  for (int i = 0; i < n; ++i) a[i] = i;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; ++i) {
    a[i] *= 2.0;
  }
  free(a);
}
)");
  const ir::MapItem *a = fx.mapOf("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->item, "a[0:n]");
}

TEST(PlannerTest, UnknownPointerExtentWarns) {
  PlanFixture fx(R"(
void f(double *a, int n) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; ++i) {
    a[i] += i;
  }
}
)");
  // The kernel loop bound `n` sizes `a`, so a plan still exists.
  const ir::Region *region = fx.region();
  ASSERT_NE(region, nullptr);
}

TEST(PlannerTest, UnknownPointerExtentWarnsOncePerPointer) {
  // `p` is indexed by a runtime `k` in two kernels and a host statement
  // inside a loop, so its map and both updates query its section.
  PlanFixture fx(R"(
void f(double *p, int k, int n) {
  for (int t = 0; t < n; ++t) {
    #pragma omp target
    {
      p[k] = t;
    }
    p[k] += 1.0;
    #pragma omp target
    {
      p[k] *= 2.0;
    }
  }
}
)");
  ASSERT_NE(fx.region(), nullptr);
  unsigned warnings = 0;
  for (const Diagnostic &diag : fx.planDiags.diagnostics())
    if (diag.message.find("cannot determine extent of pointer 'p'") !=
        std::string::npos)
      ++warnings;
  EXPECT_EQ(warnings, 1u);
}

TEST(PlannerTest, GuoFilteringShrinksSection) {
  PlanFixture fx(R"(
void f() {
  double a[1024];
  for (int i = 0; i < 100; ++i) a[i] = i;
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 100; ++i) {
    a[i] *= 2.0;
  }
  double x = a[5];
  a[0] = x;
}
)");
  const ir::MapItem *a = fx.mapOf("a");
  ASSERT_NE(a, nullptr);
  // Device only touches a[0:100) of the 1024-element array.
  EXPECT_EQ(a->item, "a[0:100]");
  EXPECT_EQ(a->approxBytes, 100u * 8u);
}

// --- region-extent ablation ---
TEST(PlannerTest, PerKernelRegionsWhenExtensionDisabled) {
  PlannerOptions options;
  options.extendRegionOverLoops = false;
  PlanFixture fx(R"(
void f(int *a, int n) {
  for (int i = 0; i < n; ++i) {
    #pragma omp target teams distribute parallel for
    for (int j = 0; j < n; ++j) {
      a[j] += j;
    }
  }
}
)",
                 options);
  const ir::Region *region = fx.region();
  ASSERT_NE(region, nullptr);
  // Region collapses onto the kernel itself.
  EXPECT_TRUE(region->appendsToKernel);
}

// --- interprocedural motif: kernel in callee ---
TEST(PlannerTest, KernelInCalleeStillPlanned) {
  PlanFixture fx(R"(
void stage(double *a, int n) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; ++i) {
    a[i] *= 2.0;
  }
}
void f(double *data, int n) {
  for (int t = 0; t < 4; ++t) {
    stage(data, n);
  }
}
)");
  // The callee containing the kernel gets its own region.
  const ir::Region *stage = fx.region("stage");
  ASSERT_NE(stage, nullptr);
  EXPECT_TRUE(stage->appendsToKernel);
}

TEST(PlannerTest, NoKernelsNoRegion) {
  PlanFixture fx("void f(int *a) { a[0] = 1; }");
  EXPECT_EQ(fx.region(), nullptr);
  EXPECT_TRUE(fx.plan.regions.empty());
}

// --- backprop stale-data motif: update hoisting in the planner ---
TEST(PlannerTest, BackpropUpdateFromHoistedBeforeNestedLoops) {
  PlanFixture fx(R"(
void f(double *partial_sum, double *hidden, int hid, int num_blocks) {
  for (int epoch = 0; epoch < 10; ++epoch) {
    #pragma omp target teams distribute parallel for
    for (int k = 0; k < num_blocks * hid; ++k) {
      partial_sum[k] = k * 0.5 + epoch;
    }
    for (int j = 1; j <= hid; j++) {
      double sum = 0.0;
      for (int k = 0; k < num_blocks; k++) {
        sum += partial_sum[k * hid + j - 1];
      }
      hidden[j] = 1.0 / (1.0 + exp(-sum));
    }
  }
}
)");
  const ir::Region *region = fx.region();
  ASSERT_NE(region, nullptr);
  const ir::UpdateItem *fromUpdate = nullptr;
  for (const ir::UpdateItem &update : region->updates)
    if (fx.nameOf(update.symbol) == "partial_sum" &&
        update.direction == ir::UpdateDirection::From)
      fromUpdate = &update;
  ASSERT_NE(fromUpdate, nullptr);
  // Must be hoisted to the outermost (j) loop, not sit in the k loop.
  EXPECT_TRUE(fromUpdate->hoisted);
  const Stmt *anchor = fx.stmtAt(fromUpdate->anchor);
  ASSERT_NE(anchor, nullptr);
  ASSERT_EQ(anchor->kind(), StmtKind::For);
  // The anchor must be the j loop: its init declares `j`.
  const auto *anchorLoop = static_cast<const ForStmt *>(anchor);
  const auto *init = dynamic_cast<const DeclStmt *>(anchorLoop->init());
  ASSERT_NE(init, nullptr);
  EXPECT_EQ(init->decls()[0]->name(), "j");
}

TEST(PlannerTest, NaivePlacementWhenHoistingDisabled) {
  PlannerOptions options;
  options.hoistUpdates = false;
  PlanFixture fx(R"(
void f(double *partial_sum, double *hidden, int hid, int num_blocks) {
  for (int epoch = 0; epoch < 10; ++epoch) {
    #pragma omp target teams distribute parallel for
    for (int k = 0; k < num_blocks * hid; ++k) {
      partial_sum[k] = k * 0.5 + epoch;
    }
    for (int j = 1; j <= hid; j++) {
      double sum = 0.0;
      for (int k = 0; k < num_blocks; k++) {
        sum += partial_sum[k * hid + j - 1];
      }
      hidden[j] = 1.0 / (1.0 + exp(-sum));
    }
  }
}
)",
                 options);
  const ir::Region *region = fx.region();
  ASSERT_NE(region, nullptr);
  const ir::UpdateItem *fromUpdate = nullptr;
  for (const ir::UpdateItem &update : region->updates)
    if (fx.nameOf(update.symbol) == "partial_sum")
      fromUpdate = &update;
  ASSERT_NE(fromUpdate, nullptr);
  EXPECT_FALSE(fromUpdate->hoisted);
  const Stmt *anchor = fx.stmtAt(fromUpdate->anchor);
  ASSERT_NE(anchor, nullptr);
  EXPECT_NE(anchor->kind(), StmtKind::For);
}

} // namespace
} // namespace ompdart
