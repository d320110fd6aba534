// The differential oracle itself is load-bearing test infrastructure, so
// these tests prove both directions: it PASSES correct plans (the whole
// nine-benchmark suite, simple handcrafted programs) and it DETECTS each
// invariant's violation when handed a deliberately broken Mapping IR via
// verifyIr (dropped from-map, inflated cold-entry counts, duplicated
// updates).
#include "verify/oracle.hpp"

#include "driver/pipeline.hpp"
#include "exp/experiment.hpp"
#include "gen/generator.hpp"
#include "suite/benchmarks.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ompdart {
namespace {

const char *const kRoundTrip = R"(
double a[16];

int main() {
  for (int i = 0; i < 16; ++i) {
    a[i] = i * 0.5;
  }
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 16; ++i) {
    a[i] = a[i] * 2.0;
  }
  double tail = 0.0;
  for (int i = 0; i < 16; ++i) {
    tail += a[i];
  }
  printf("%.6f\n", tail);
  return 0;
}
)";

TEST(OracleTest, PassesSimpleProgramWithAllInvariants) {
  verify::OracleOptions options;
  options.checkRewrite = true;
  const auto verdict =
      verify::runOracle("simple.c", kRoundTrip, /*provableTrips=*/true,
                        options);
  EXPECT_TRUE(verdict.ok) << verdict.divergence();
  EXPECT_TRUE(verdict.predictedChecked);
  EXPECT_TRUE(verdict.rewriteChecked);
  EXPECT_GT(verdict.baselineBytes, 0u);
  EXPECT_LE(verdict.planBytes, verdict.baselineBytes);
  EXPECT_EQ(verdict.predictedBytes, verdict.planBytes);
  EXPECT_FALSE(verdict.irFingerprint.empty());
}

TEST(OracleTest, PassesEverySuiteBenchmark) {
  // The paper's §V safety criterion, re-checked through the oracle for all
  // nine hand-ported benchmarks (trips are not generator-annotated here,
  // so invariant 3 is skipped; the exp reconciliation tests pin it).
  for (const suite::BenchmarkDef &def : suite::allBenchmarks()) {
    verify::OracleOptions options;
    options.checkRewrite = true;
    const auto verdict = verify::runOracle(def.name + ".c", def.unoptimized,
                                           /*provableTrips=*/false, options);
    EXPECT_TRUE(verdict.ok) << def.name << ": " << verdict.divergence();
  }
}

TEST(OracleTest, DetectsDroppedFromMap) {
  // Break invariant (1): weaken the tofrom map to `to`, so the kernel's
  // writes never reach the host.
  Session session("simple.c", kRoundTrip);
  ASSERT_TRUE(session.run());
  ir::MappingIr broken = session.ir();
  ASSERT_FALSE(broken.regions.empty());
  bool weakened = false;
  for (ir::Region &region : broken.regions)
    for (ir::MapItem &map : region.maps)
      if (map.type == ir::MapType::ToFrom) {
        map.type = ir::MapType::To;
        weakened = true;
      }
  ASSERT_TRUE(weakened) << "expected a tofrom map to weaken";

  const auto verdict = verify::verifyIr("simple.c", kRoundTrip, broken,
                                        /*provableTrips=*/true);
  EXPECT_FALSE(verdict.ok);
  EXPECT_FALSE(verdict.outputsMatch) << verdict.divergence();
}

TEST(OracleTest, DetectsWrongColdEntryPrediction) {
  // Break invariant (3): inflate a map item's cold-entry count; predicted
  // bytes then exceed the simulated ledger.
  Session session("simple.c", kRoundTrip);
  ASSERT_TRUE(session.run());
  ir::MappingIr inflated = session.ir();
  ASSERT_FALSE(inflated.regions.empty());
  for (ir::Region &region : inflated.regions)
    for (ir::MapItem &map : region.maps)
      map.coldEntries = map.coldEntries * 7 + 1;

  const auto verdict = verify::verifyIr("simple.c", kRoundTrip, inflated,
                                        /*provableTrips=*/true);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(verdict.outputsMatch);
  EXPECT_TRUE(verdict.predictedChecked);
  EXPECT_FALSE(verdict.predictedMatches);
  EXPECT_GT(verdict.predictedBytes, verdict.planBytes);
}

TEST(OracleTest, DetectsExcessTransfers) {
  // Break invariant (2): duplicate every update several times. The overlay
  // executes each copy, so the planned run moves more than the baseline.
  const std::string source =
      std::string(R"(
double a[16];

int main() {
  for (int i = 0; i < 16; ++i) {
    a[i] = i * 0.5;
  }
  double sum = 0.0;
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < 16; ++i) {
      sum += a[i];
    }
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < 16; ++i) {
      a[i] = a[i] + 1.0;
    }
  }
  printf("%.6f\n", sum);
  return 0;
}
)");
  Session session("carried.c", source);
  ASSERT_TRUE(session.run());
  ir::MappingIr bloated = session.ir();
  ASSERT_FALSE(bloated.regions.empty());
  // Same-point duplicates consolidate (the overlay mirrors the rewriter's
  // (offset, direction) merge), so the excess update is anchored at a
  // statement INSIDE the element loop: it fires once per element per trip.
  ASSERT_FALSE(bloated.regions[0].updates.empty())
      << "expected the plan to carry updates";
  ir::UpdateItem excess = bloated.regions[0].updates[0];
  const std::string anchorText = "sum += a[i];";
  const std::size_t anchorAt = source.find(anchorText);
  ASSERT_NE(anchorAt, std::string::npos);
  excess.placement = ir::UpdatePlacement::After;
  excess.hoisted = false;
  excess.anchor = ir::StmtAnchor{};
  excess.anchor.beginOffset = anchorAt;
  excess.anchor.endOffset = anchorAt + anchorText.size();
  bloated.regions[0].updates.push_back(excess);

  const auto verdict = verify::verifyIr("carried.c", source, bloated,
                                        /*provableTrips=*/false);
  EXPECT_FALSE(verdict.ok);
  EXPECT_FALSE(verdict.transferBounded) << verdict.divergence();
}

TEST(OracleTest, NestingJustUnderTheDepthLimitRunsEveryStage) {
  // A kernel expression nested 256 parentheses deep, a 300-arm else-if
  // chain in the kernel and a 1,000-term host sum: planning, checking,
  // rewriting and both interpreter legs recurse through these trees.
  std::string deep = "data[i] * 2.0";
  for (int level = 0; level < 256; ++level)
    deep = "(" + deep + ")";
  std::string arms = "      if (i == 0) data[i] = 0.5;";
  for (int arm = 1; arm < 300; ++arm)
    arms += " else if (i == " + std::to_string(arm) + ") data[i] += " +
            std::to_string(arm) + ".0;";
  std::string sum = "sum";
  for (int term = 0; term < 1000; ++term)
    sum += " + data[i]";
  const std::string source = "double data[64];\n"
                             "int main() {\n"
                             "  for (int i = 0; i < 64; ++i)\n"
                             "    data[i] = i;\n"
                             "  #pragma omp target teams distribute parallel "
                             "for\n"
                             "  for (int i = 0; i < 64; ++i) {\n"
                             "    data[i] = " +
                             deep +
                             ";\n" + arms +
                             "\n"
                             "  }\n"
                             "  double sum = 0.0;\n"
                             "  for (int i = 0; i < 64; ++i)\n"
                             "    sum = " +
                             sum +
                             ";\n"
                             "  printf(\"%.1f\\n\", sum);\n"
                             "  return 0;\n"
                             "}\n";
  verify::OracleOptions options;
  options.checkRewrite = true;
  const auto verdict = verify::runOracle("deep.c", source,
                                         /*provableTrips=*/true, options);
  EXPECT_TRUE(verdict.ok) << verdict.error << verdict.divergence();
  EXPECT_TRUE(verdict.rewriteChecked);
}

TEST(OracleTest, UnresolvedExtentSkipsPredictedInvariant) {
  // Disagreeing call-site constants leave the callee map's extent
  // symbolic (approxBytes 0): the plan stays correct but is not
  // byte-predictable, so invariant (3) must not apply.
  const char *const source = R"(
double a[48];
double b[48];

void stage(double *src, double *dst, int n, double w) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; ++i) {
    dst[i] = src[i] * w;
  }
}

int main() {
  for (int i = 0; i < 48; ++i) {
    a[i] = i * 0.5;
    b[i] = 0.0;
  }
  stage(a, b, 12, 2.0);
  stage(a, b, 48, 2.0);
  double tail = 0.0;
  for (int i = 0; i < 48; ++i) {
    tail += b[i];
  }
  printf("%.6f\n", tail);
  return 0;
}
)";
  const auto verdict =
      verify::runOracle("extent.c", source, /*provableTrips=*/true);
  EXPECT_TRUE(verdict.ok) << verdict.divergence();
  EXPECT_FALSE(verdict.predictedChecked);
}

TEST(OracleTest, GeneratedProgramOverloadUsesCombinedSource) {
  const gen::GeneratedProgram program = gen::generateProgram(9);
  ASSERT_TRUE(program.multiTu()); // seed 9 is a two-TU split
  const auto verdict = verify::runOracle(program);
  EXPECT_TRUE(verdict.ok) << verdict.divergence();
}

TEST(OracleTest, WarmCalleeMapsCarryPresentAndZeroColdEntries) {
  // The warm-callee accounting is observable in the IR: a helper region
  // whose every call site sits inside main's data region gets
  // present-marked, zero-cold-entry maps.
  const char *const source = R"(
double a[16];
double b[16];

void stage(double *src, double *dst, int n, double w) {
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < n; ++i) {
    dst[i] = src[i] * w + 0.75;
  }
}

int main() {
  for (int i = 0; i < 16; ++i) {
    a[i] = i * 0.5;
    b[i] = 0.0;
  }
  double scale = 1.5;
  double sum = 0.0;
  for (int t = 0; t < 2; ++t) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < 16; ++i) {
      b[i] = a[i] * scale;
    }
    stage(a, b, 16, scale);
    for (int i = 0; i < 16; ++i) {
      sum += b[i];
    }
  }
  printf("%.6f\n", sum);
  return 0;
}
)";
  Session session("warm.c", source);
  ASSERT_TRUE(session.run());
  const ir::Region *stage = session.ir().regionFor("stage");
  ASSERT_NE(stage, nullptr);
  ASSERT_FALSE(stage->maps.empty());
  for (const ir::MapItem &map : stage->maps) {
    EXPECT_TRUE(map.modifiers.present) << map.item;
    EXPECT_EQ(map.coldEntries, 0u) << map.item;
  }
  const auto verdict =
      verify::runOracle("warm.c", source, /*provableTrips=*/true);
  EXPECT_TRUE(verdict.ok) << verdict.divergence();
}

} // namespace
} // namespace ompdart
