// Integration tests over the nine-benchmark suite: for every benchmark the
// three variants must run, produce identical output (the paper's
// correctness check), and exhibit the paper's qualitative transfer shape
// (OMPDart strictly below unoptimized; at or below expert in memcpy calls
// for the firstprivate benchmarks; below expert for lulesh).
#include "exp/experiment.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace ompdart::exp {
namespace {

/// One benchmark's comparison, run on first use and memoized per name. A
/// test process (ctest runs each case in its own) pays only for the
/// benchmarks its assertions read.
const BenchmarkComparison &resultFor(const std::string &name) {
  static std::map<std::string, BenchmarkComparison> memo;
  if (memo.count(name) == 0)
    for (const suite::BenchmarkDef &def : suite::allBenchmarks())
      if (def.name == name)
        memo.emplace(name, runBenchmark(def));
  return memo.at(name);
}

/// The full suite, for the cross-benchmark shape assertions.
const std::map<std::string, BenchmarkComparison> &results() {
  static const std::map<std::string, BenchmarkComparison> cache = [] {
    std::map<std::string, BenchmarkComparison> map;
    for (const suite::BenchmarkDef &def : suite::allBenchmarks())
      map.emplace(def.name, resultFor(def.name));
    return map;
  }();
  return cache;
}

class SuiteTest : public ::testing::TestWithParam<std::string> {
protected:
  const BenchmarkComparison &cmp() { return resultFor(GetParam()); }
};

TEST_P(SuiteTest, AllVariantsRun) {
  const BenchmarkComparison &c = cmp();
  EXPECT_TRUE(c.unoptimized.ok) << c.unoptimized.error;
  EXPECT_TRUE(c.ompdart.ok) << c.ompdart.error << "\n--- transformed ---\n"
                            << c.transformedSource;
  EXPECT_TRUE(c.expert.ok) << c.expert.error;
}

TEST_P(SuiteTest, OutputsIdenticalAcrossVariants) {
  const BenchmarkComparison &c = cmp();
  EXPECT_EQ(c.unoptimized.output, c.ompdart.output)
      << "--- transformed ---\n"
      << c.transformedSource;
  EXPECT_EQ(c.unoptimized.output, c.expert.output);
  EXPECT_FALSE(c.unoptimized.output.empty());
}

TEST_P(SuiteTest, OmpDartReducesTransferVsUnoptimized) {
  const BenchmarkComparison &c = cmp();
  EXPECT_LT(c.ompdart.totalBytes(), c.unoptimized.totalBytes())
      << "--- transformed ---\n"
      << c.transformedSource;
  EXPECT_LT(c.ompdart.totalCalls(), c.unoptimized.totalCalls());
}

TEST_P(SuiteTest, OmpDartRuntimeAtLeastAsGoodAsUnoptimized) {
  const BenchmarkComparison &c = cmp();
  EXPECT_LE(c.ompdart.totalSeconds, c.unoptimized.totalSeconds * 1.001);
}

TEST_P(SuiteTest, ToolOverheadIsSmall) {
  const BenchmarkComparison &c = cmp();
  EXPECT_GT(c.toolSeconds, 0.0);
  EXPECT_LT(c.toolSeconds, 2.0); // paper's slowest (lulesh) was 1.35s
}

TEST_P(SuiteTest, ComplexityMetricsPopulated) {
  const BenchmarkComparison &c = cmp();
  EXPECT_GT(c.kernels, 0u);
  EXPECT_GT(c.offloadedLines, 0u);
  EXPECT_GT(c.mappedVariables, 0u);
  EXPECT_GT(c.possibleMappings, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteTest,
    ::testing::Values("accuracy", "ace", "backprop", "bfs", "clenergy",
                      "hotspot", "lulesh", "nw", "xsbench"),
    [](const ::testing::TestParamInfo<std::string> &info) {
      return info.param;
    });

// --- Benchmark-specific shape assertions from the paper's §VI ---

TEST(SuiteShapeTest, KernelCountsMatchPaperTable4) {
  EXPECT_EQ(results().at("accuracy").kernels, 1u);
  EXPECT_EQ(results().at("ace").kernels, 6u);
  EXPECT_EQ(results().at("backprop").kernels, 2u);
  EXPECT_EQ(results().at("bfs").kernels, 2u);
  EXPECT_EQ(results().at("clenergy").kernels, 2u);
  EXPECT_EQ(results().at("hotspot").kernels, 1u);
  EXPECT_EQ(results().at("lulesh").kernels, 15u);
  EXPECT_EQ(results().at("nw").kernels, 2u);
  EXPECT_EQ(results().at("xsbench").kernels, 1u);
}

TEST(SuiteShapeTest, LuleshMappedVariablesMatchPaper) {
  EXPECT_EQ(results().at("lulesh").mappedVariables, 65u);
}

TEST(SuiteShapeTest, AceHasLargestTransferReduction) {
  // Paper: ace's 1010x is the largest reduction in the suite.
  const auto &map = results();
  const double aceReduction =
      map.at("ace").transferReduction(map.at("ace").ompdart);
  for (const auto &[name, cmp] : map) {
    if (name == "ace")
      continue;
    EXPECT_GE(aceReduction, cmp.transferReduction(cmp.ompdart))
        << name << " beats ace";
  }
  EXPECT_GT(aceReduction, 50.0);
}

TEST(SuiteShapeTest, FirstprivateBeatsExpertCalls) {
  // Paper Figure 4: OMPDart reduces memcpy calls below the expert level in
  // hotspot, nw and xsbench via firstprivate.
  for (const char *name : {"hotspot", "nw", "xsbench"}) {
    const BenchmarkComparison &c = results().at(name);
    EXPECT_LT(c.ompdart.totalCalls(), c.expert.totalCalls()) << name;
  }
}

TEST(SuiteShapeTest, ClenergyStructBeatsExpertCalls) {
  // Paper: the expert overlooked the lattice struct; OMPDart maps it and
  // cuts memcpy calls (66% in the paper).
  const BenchmarkComparison &c = results().at("clenergy");
  EXPECT_LT(c.ompdart.totalCalls(), c.expert.totalCalls());
}

TEST(SuiteShapeTest, LuleshBeatsExpert) {
  // Paper: 1.6x speedup over expert and large transfer reduction from
  // removing the redundant update directives.
  const BenchmarkComparison &c = results().at("lulesh");
  EXPECT_LT(c.ompdart.totalBytes(), c.expert.totalBytes());
  EXPECT_LT(c.ompdart.totalSeconds, c.expert.totalSeconds);
  const double vsExpert = c.expert.totalSeconds / c.ompdart.totalSeconds;
  EXPECT_GT(vsExpert, 1.1) << "expected a clear win over expert";
}

TEST(SuiteShapeTest, OmpDartAtLeastAsGoodAsExpertEverywhere) {
  // Paper: "for each application, the mappings were always at least as good
  // as the expert implementations" (runtime metric).
  for (const auto &[name, cmp] : results()) {
    EXPECT_LE(cmp.ompdart.totalSeconds, cmp.expert.totalSeconds * 1.02)
        << name;
  }
}

TEST(SuiteShapeTest, GeomeanSpeedupInPaperBallpark) {
  std::vector<double> speedups;
  for (const auto &[name, cmp] : results())
    speedups.push_back(cmp.speedup(cmp.ompdart));
  const double geomean = geometricMean(speedups);
  // Paper: 2.8x. Our simulator will differ, but the win must be material.
  EXPECT_GT(geomean, 1.3);
}

TEST(SuiteShapeTest, TableRenderersProduceRows) {
  std::vector<BenchmarkComparison> list;
  for (const auto &[name, cmp] : results())
    list.push_back(cmp);
  EXPECT_NE(renderTable3().find("accuracy"), std::string::npos);
  EXPECT_NE(renderTable4(list).find("lulesh"), std::string::npos);
  EXPECT_NE(renderTable5(list).find("average"), std::string::npos);
  EXPECT_NE(renderFigure3(list).find("reduction"), std::string::npos);
  EXPECT_NE(renderFigure4(list).find("memcpy"), std::string::npos);
  EXPECT_NE(renderFigure5(list).find("geomean"), std::string::npos);
  EXPECT_NE(renderFigure6(list).find("geomean"), std::string::npos);
}

} // namespace
} // namespace ompdart::exp
