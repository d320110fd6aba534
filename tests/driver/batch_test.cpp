// BatchDriver tests: concurrent runs must produce exactly the output of
// sequential single-Session runs, in input order, with consistent
// aggregate statistics and deterministic diagnostics.
#include "driver/batch.hpp"
#include "suite/benchmarks.hpp"

#include <gtest/gtest.h>

namespace ompdart {
namespace {

std::vector<BatchJob> suiteJobs(std::size_t count) {
  std::vector<BatchJob> jobs;
  for (const auto &def : suite::allBenchmarks()) {
    if (jobs.size() >= count)
      break;
    jobs.push_back({def.name, def.name + ".c", def.unoptimized});
  }
  return jobs;
}

TEST(BatchDriverTest, ConcurrentMatchesSequentialOnEightSuitePrograms) {
  const std::vector<BatchJob> jobs = suiteJobs(8);
  ASSERT_EQ(jobs.size(), 8u);

  BatchDriver::Options sequentialOptions;
  sequentialOptions.threads = 1;
  const BatchResult sequential = BatchDriver(sequentialOptions).run(jobs);

  BatchDriver::Options concurrentOptions;
  concurrentOptions.threads = 4;
  const BatchResult concurrent = BatchDriver(concurrentOptions).run(jobs);

  ASSERT_EQ(sequential.items.size(), jobs.size());
  ASSERT_EQ(concurrent.items.size(), jobs.size());
  EXPECT_EQ(concurrent.stats.threads, 4u);
  EXPECT_EQ(sequential.stats.threads, 1u);

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Input order is preserved regardless of scheduling.
    EXPECT_EQ(concurrent.items[i].name, jobs[i].name);
    EXPECT_TRUE(concurrent.items[i].success) << jobs[i].name;
    // Concurrency must not change any artifact.
    EXPECT_EQ(concurrent.items[i].output, sequential.items[i].output)
        << jobs[i].name;
    EXPECT_EQ(concurrent.items[i].report.plan,
              sequential.items[i].report.plan)
        << jobs[i].name;
    EXPECT_EQ(concurrent.items[i].report.metrics,
              sequential.items[i].report.metrics)
        << jobs[i].name;
    EXPECT_EQ(concurrent.items[i].report.diagnostics,
              sequential.items[i].report.diagnostics)
        << jobs[i].name;
  }
}

TEST(BatchDriverTest, MatchesOneShotSessions) {
  const std::vector<BatchJob> jobs = suiteJobs(8);
  const BatchResult batch = BatchDriver().run(jobs);
  for (const BatchJob &job : jobs) {
    const BatchItem *item = batch.find(job.name);
    ASSERT_NE(item, nullptr) << job.name;
    Session session(job.fileName, job.source);
    const bool success = session.run();
    EXPECT_EQ(item->output, session.rewrite()) << job.name;
    EXPECT_EQ(item->success, success) << job.name;
  }
}

TEST(BatchDriverTest, AggregateStatsAreConsistent) {
  const std::vector<BatchJob> jobs = suiteJobs(8);
  const BatchResult result = BatchDriver().run(jobs);
  EXPECT_EQ(result.stats.jobs, 8u);
  EXPECT_EQ(result.stats.succeeded, 8u);
  EXPECT_EQ(result.stats.failed, 0u);
  EXPECT_GT(result.stats.wallSeconds, 0.0);
  EXPECT_GT(result.stats.cpuSeconds, 0.0);
  EXPECT_GT(result.stats.speedup(), 0.0);

  double stageSum = 0.0;
  for (const Stage stage : allStages())
    stageSum += result.stats.stageSeconds[static_cast<unsigned>(stage)];
  EXPECT_NEAR(stageSum, result.stats.cpuSeconds, 1e-9);

  const json::Value statsJson = result.stats.toJson();
  EXPECT_EQ(statsJson.uintOr("jobs"), 8u);
  EXPECT_TRUE(statsJson.find("stageSeconds") != nullptr);
}

TEST(BatchDriverTest, StopAfterAppliesToEverySession) {
  BatchDriver::Options options;
  options.threads = 2;
  options.config.stopAfter = Stage::Plan;
  const BatchResult result = BatchDriver(options).run(suiteJobs(4));
  for (const BatchItem &item : result.items) {
    EXPECT_TRUE(item.success) << item.name;
    EXPECT_TRUE(item.output.empty()) << item.name;
    EXPECT_EQ(item.report.stoppedAfter, "plan") << item.name;
    EXPECT_FALSE(item.report.plan.regions.empty()) << item.name;
  }
}

TEST(BatchDriverTest, FailuresAreIsolatedPerJob) {
  std::vector<BatchJob> jobs = suiteJobs(2);
  jobs.insert(jobs.begin() + 1, BatchJob{"broken", "broken.c", "void f( {"});
  const BatchResult result = BatchDriver().run(jobs);
  ASSERT_EQ(result.items.size(), 3u);
  EXPECT_TRUE(result.items[0].success);
  EXPECT_FALSE(result.items[1].success);
  EXPECT_TRUE(result.items[1].report.hasErrors());
  EXPECT_TRUE(result.items[2].success);
  EXPECT_EQ(result.stats.succeeded, 2u);
  EXPECT_EQ(result.stats.failed, 1u);
}

TEST(BatchDriverTest, EmptyBatchIsANoOp) {
  const BatchResult result = BatchDriver().run({});
  EXPECT_TRUE(result.items.empty());
  EXPECT_EQ(result.stats.jobs, 0u);
  EXPECT_EQ(result.stats.wallSeconds, 0.0);
}

} // namespace
} // namespace ompdart
