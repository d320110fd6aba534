// Tests for the staged Session/PipelineConfig API: lazy stage computation,
// artifact caching (a second access does no re-analysis), --stop-after
// semantics and report construction.
#include "driver/pipeline.hpp"

#include <gtest/gtest.h>

namespace ompdart {
namespace {

/// The examples/quickstart.cpp input program.
const char *const kQuickstartSource =
    R"(void saxpy(double *x, double *y, int n) {
  double a = 2.0;
  for (int iter = 0; iter < 100; ++iter) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < n; ++i) {
      y[i] = a * x[i] + y[i];
    }
  }
}
)";

const char *const kBrokenSource = "void f( {";

TEST(SessionTest, StagesAreLazy) {
  Session session("lazy.c", kQuickstartSource);
  for (const Stage stage : allStages()) {
    EXPECT_EQ(session.stageRuns(stage), 0u) << stageName(stage);
    EXPECT_EQ(session.stageSeconds(stage), 0.0) << stageName(stage);
  }

  session.parse();
  EXPECT_EQ(session.stageRuns(Stage::Parse), 1u);
  EXPECT_EQ(session.stageRuns(Stage::Cfg), 0u);
  EXPECT_EQ(session.stageRuns(Stage::Plan), 0u);
  EXPECT_EQ(session.stageRuns(Stage::Rewrite), 0u);
}

TEST(SessionTest, PlanPullsItsDependenciesOnly) {
  Session session("deps.c", kQuickstartSource);
  session.ir();
  EXPECT_EQ(session.stageRuns(Stage::Parse), 1u);
  EXPECT_EQ(session.stageRuns(Stage::Cfg), 1u);
  EXPECT_EQ(session.stageRuns(Stage::Interproc), 1u);
  EXPECT_EQ(session.stageRuns(Stage::Plan), 1u);
  // Plan does not need the rewriter or the metrics pass.
  EXPECT_EQ(session.stageRuns(Stage::Rewrite), 0u);
  EXPECT_EQ(session.stageRuns(Stage::Metrics), 0u);
}

TEST(SessionTest, SecondPlanCallDoesNoReanalysis) {
  Session session("cache.c", kQuickstartSource);
  const ir::MappingIr &first = session.ir();
  const ir::MappingIr &second = session.ir();
  // Same cached artifact, not a recomputation.
  EXPECT_EQ(&first, &second);
  for (const Stage stage :
       {Stage::Parse, Stage::Cfg, Stage::Interproc, Stage::Plan})
    EXPECT_EQ(session.stageRuns(stage), 1u) << stageName(stage);

  // The full pipeline re-uses everything the plan access already built.
  session.run();
  for (const Stage stage :
       {Stage::Parse, Stage::Cfg, Stage::Interproc, Stage::Plan})
    EXPECT_EQ(session.stageRuns(stage), 1u) << stageName(stage);
  EXPECT_EQ(session.stageRuns(Stage::Rewrite), 1u);
  EXPECT_EQ(session.stageRuns(Stage::Metrics), 1u);
}

TEST(SessionTest, RepeatedArtifactAccessesStayCached) {
  Session session("cache2.c", kQuickstartSource);
  session.run();
  const std::string &rewrittenA = session.rewrite();
  const std::string &rewrittenB = session.rewrite();
  EXPECT_EQ(&rewrittenA, &rewrittenB);
  session.metrics();
  session.cfg();
  session.interproc();
  for (const Stage stage : allStages())
    EXPECT_EQ(session.stageRuns(stage), 1u) << stageName(stage);
}

TEST(SessionTest, StopAfterPlanSkipsRewriteAndMetrics) {
  PipelineConfig config;
  config.stopAfter = Stage::Plan;
  Session session("stop.c", kQuickstartSource, config);
  EXPECT_TRUE(session.run());

  EXPECT_EQ(session.stageRuns(Stage::Parse), 1u);
  EXPECT_EQ(session.stageRuns(Stage::Plan), 1u);
  EXPECT_EQ(session.stageRuns(Stage::Rewrite), 0u);
  EXPECT_EQ(session.stageRuns(Stage::Metrics), 0u);

  const Report &report = session.report();
  EXPECT_EQ(report.stoppedAfter, "plan");
  EXPECT_TRUE(report.output.empty());
  EXPECT_EQ(report.timings.size(), 4u);
  // The plan artifact is present in the report even without a rewrite.
  ASSERT_EQ(report.plan.regions.size(), 1u);
  EXPECT_EQ(report.plan.regions.front().function, "saxpy");
  // report() must not have triggered the skipped stages.
  EXPECT_EQ(session.stageRuns(Stage::Rewrite), 0u);
  EXPECT_EQ(session.stageRuns(Stage::Metrics), 0u);
}

TEST(SessionTest, StopAfterParseRunsFrontEndOnly) {
  PipelineConfig config;
  config.stopAfter = Stage::Parse;
  Session session("stop_parse.c", kQuickstartSource, config);
  EXPECT_TRUE(session.run());
  EXPECT_EQ(session.stageRuns(Stage::Parse), 1u);
  for (const Stage stage : {Stage::Cfg, Stage::Interproc, Stage::Plan,
                            Stage::Rewrite, Stage::Metrics})
    EXPECT_EQ(session.stageRuns(stage), 0u) << stageName(stage);
  EXPECT_EQ(session.report().stoppedAfter, "parse");
}

TEST(SessionTest, ExplicitAccessOverridesStopAfter) {
  // stopAfter bounds run()/report(), not explicit artifact requests: asking
  // for rewrite() is an explicit intent to compute it.
  PipelineConfig config;
  config.stopAfter = Stage::Plan;
  Session session("explicit.c", kQuickstartSource, config);
  session.run();
  EXPECT_EQ(session.stageRuns(Stage::Rewrite), 0u);
  const std::string &output = session.rewrite();
  EXPECT_NE(output.find("#pragma omp target data"), std::string::npos);
  EXPECT_EQ(session.stageRuns(Stage::Rewrite), 1u);
  // The report now reflects the extra stage.
  EXPECT_EQ(session.report().stoppedAfter, "rewrite");
}

TEST(SessionTest, FullRunProducesReportWithAllStages) {
  Session session("full.c", kQuickstartSource);
  EXPECT_TRUE(session.run());
  const Report &report = session.report();
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.fileName, "full.c");
  EXPECT_EQ(report.stoppedAfter, "metrics");
  EXPECT_EQ(report.timings.size(), kStageCount);
  for (const StageTiming &timing : report.timings) {
    EXPECT_EQ(timing.runs, 1u) << stageName(timing.stage);
    EXPECT_GE(timing.seconds, 0.0);
  }
  EXPECT_GT(report.totalSeconds, 0.0);
  EXPECT_EQ(report.metrics.kernels, 1u);
  EXPECT_FALSE(report.output.empty());
  ASSERT_EQ(report.plan.regions.size(), 1u);
  const ir::Region &region = report.plan.regions.front();
  EXPECT_EQ(region.maps.size(), 2u);
  EXPECT_EQ(region.firstprivates.size(), 2u);
}

TEST(SessionTest, ParseFailureStopsThePipeline) {
  Session session("broken.c", kBrokenSource);
  EXPECT_FALSE(session.run());
  EXPECT_FALSE(session.success());
  EXPECT_EQ(session.stageRuns(Stage::Parse), 1u);
  EXPECT_EQ(session.stageRuns(Stage::Cfg), 0u);
  EXPECT_EQ(session.stageRuns(Stage::Plan), 0u);
  EXPECT_TRUE(session.diagnostics().hasErrors());
  // rewrite() still answers (the §IV-F fallback: original text).
  EXPECT_EQ(session.rewrite(), kBrokenSource);
  const Report &report = session.report();
  EXPECT_FALSE(report.success);
  EXPECT_TRUE(report.hasErrors());
}

TEST(SessionTest, RejectsPreMappedInputByDefault) {
  const char *const preMapped = R"(int main() {
  int a[4] = {};
  #pragma omp target data map(tofrom: a)
  {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < 4; ++i) a[i] = i;
  }
  return 0;
}
)";
  Session rejecting("pre.c", preMapped);
  EXPECT_FALSE(rejecting.run());
  EXPECT_TRUE(rejecting.diagnostics().hasErrors());

  PipelineConfig config;
  config.rejectExistingDataDirectives = false;
  Session tolerant("pre.c", preMapped, config);
  EXPECT_TRUE(tolerant.parseSucceeded());
}

TEST(SessionTest, InterprocKnobDisablesFixedPoint) {
  const char *const source = R"(
void init(int *a, int n) {
  for (int i = 0; i < n; ++i) a[i] = i;
}
int main() {
  int a[16] = {};
  init(a, 16);
  #pragma omp target teams distribute parallel for
  for (int i = 0; i < 16; ++i) a[i] *= 2;
  return 0;
}
)";
  PipelineConfig single;
  single.planner.interprocedural = false;
  Session singlePass("ip.c", source, single);
  EXPECT_TRUE(singlePass.run());
  EXPECT_EQ(singlePass.interproc().passes, 1u);

  Session fixedPoint("ip.c", source);
  EXPECT_TRUE(fixedPoint.run());
  EXPECT_GE(fixedPoint.interproc().passes, 1u);
}

TEST(SessionTest, UnknownPointerExtentFailsClosed) {
  // `p` is indexed by a runtime `k` only, so no extent can be inferred:
  // planning must fail with one error instead of mapping `p[0:0]`.
  const std::string source = R"(
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
)";
  Session session("extent.c", source);
  EXPECT_FALSE(session.run());
  EXPECT_EQ(session.rewrite(), source);
  unsigned errors = 0;
  for (const Diagnostic &diag : session.diagnostics().diagnostics())
    if (diag.severity == Severity::Error &&
        diag.message.find("cannot determine extent of pointer 'p'") !=
            std::string::npos)
      ++errors;
  EXPECT_EQ(errors, 1u);
  EXPECT_EQ(session.ir().toJson().dump().find("p[0:0]"), std::string::npos);
}

} // namespace
} // namespace ompdart
