// BatchDriver::runFuzz: the fuzz batch mode must be deterministic (same
// options => same items, same verdicts), aggregate stats faithfully, share
// the driver's plan cache across oracle sessions, honor the time box, and
// shrink failures when asked.
#include "driver/batch.hpp"

#include "gen/generator.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <random>

namespace ompdart {
namespace {

namespace fs = std::filesystem;

fs::path freshDir(const char *tag) {
  std::random_device rd;
  fs::path dir = fs::temp_directory_path() /
                 (std::string("ompdart-fuzz-test-") + tag + "-" +
                  std::to_string(rd()));
  fs::remove_all(dir);
  return dir;
}

TEST(FuzzDriverTest, AllSeedsPassAndStatsAddUp) {
  BatchDriver driver;
  BatchDriver::FuzzOptions fuzz;
  fuzz.baseSeed = 50;
  fuzz.count = 25;
  const FuzzResult result = driver.runFuzz(fuzz);
  EXPECT_TRUE(result.allPassed());
  EXPECT_EQ(result.stats.programs, 25u);
  EXPECT_EQ(result.stats.ran, 25u);
  EXPECT_EQ(result.stats.passed, 25u);
  EXPECT_EQ(result.stats.failed, 0u);
  EXPECT_EQ(result.stats.skippedByTimeBox, 0u);
  ASSERT_EQ(result.items.size(), 25u);
  unsigned provable = 0;
  for (const FuzzItem &item : result.items) {
    EXPECT_TRUE(item.passed()) << item.name << ": "
                               << item.verdict.divergence();
    EXPECT_FALSE(item.verdict.irFingerprint.empty());
    if (item.provableTrips)
      ++provable;
  }
  EXPECT_EQ(result.stats.provable, provable);
  EXPECT_GT(result.stats.baselineBytes, result.stats.planBytes)
      << "plans must reduce traffic in aggregate";
}

TEST(FuzzDriverTest, DeterministicAcrossRuns) {
  BatchDriver::Options options;
  options.threads = 4; // scheduling must not leak into results
  BatchDriver driver(options);
  BatchDriver::FuzzOptions fuzz;
  fuzz.baseSeed = 200;
  fuzz.count = 16;
  const FuzzResult a = driver.runFuzz(fuzz);
  const FuzzResult b = driver.runFuzz(fuzz);
  ASSERT_EQ(a.items.size(), b.items.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].name, b.items[i].name);
    EXPECT_EQ(a.items[i].seed, b.items[i].seed);
    EXPECT_EQ(a.items[i].verdict.ok, b.items[i].verdict.ok);
    EXPECT_EQ(a.items[i].verdict.baselineBytes,
              b.items[i].verdict.baselineBytes);
    EXPECT_EQ(a.items[i].verdict.planBytes, b.items[i].verdict.planBytes);
    EXPECT_EQ(a.items[i].verdict.irFingerprint,
              b.items[i].verdict.irFingerprint);
  }
  EXPECT_EQ(a.stats.baselineBytes, b.stats.baselineBytes);
  EXPECT_EQ(a.stats.planBytes, b.stats.planBytes);
}

TEST(FuzzDriverTest, SharedPlanCacheGoesWarmOnSecondPass) {
  const fs::path cacheDir = freshDir("cache");
  BatchDriver::Options options;
  options.config.cacheDir = cacheDir.string();
  options.config.cacheMode = cache::CacheMode::ReadWrite;
  BatchDriver driver(options);
  BatchDriver::FuzzOptions fuzz;
  fuzz.baseSeed = 300;
  fuzz.count = 10;
  const FuzzResult cold = driver.runFuzz(fuzz);
  EXPECT_EQ(cold.stats.planCacheMisses, 10u);
  EXPECT_EQ(cold.stats.planCacheHits, 0u);
  const FuzzResult warm = driver.runFuzz(fuzz);
  EXPECT_EQ(warm.stats.planCacheHits, 10u);
  EXPECT_EQ(warm.stats.planCacheMisses, 0u);
  // Cache re-hydration must not change any verdict.
  for (std::size_t i = 0; i < cold.items.size(); ++i) {
    EXPECT_EQ(cold.items[i].verdict.planBytes,
              warm.items[i].verdict.planBytes);
    EXPECT_EQ(cold.items[i].verdict.irFingerprint,
              warm.items[i].verdict.irFingerprint);
  }
  std::error_code ec;
  fs::remove_all(cacheDir, ec);
}

TEST(FuzzDriverTest, TimeBoxSkipsRemainingPrograms) {
  BatchDriver::Options options;
  options.threads = 1;
  BatchDriver driver(options);
  BatchDriver::FuzzOptions fuzz;
  fuzz.baseSeed = 1;
  fuzz.count = 8;
  fuzz.timeBoxSeconds = 1e-9; // expires before the first item starts
  const FuzzResult result = driver.runFuzz(fuzz);
  EXPECT_EQ(result.stats.ran, 0u);
  EXPECT_EQ(result.stats.skippedByTimeBox, 8u);
  EXPECT_FALSE(result.allPassed()); // nothing ran: the gate must not pass
}

TEST(FuzzDriverTest, ShrinksInjectedOracleFailure) {
  // Force a failure through the oracle by starving the interpreter: an op
  // budget of one aborts every baseline run, which is reported as a
  // pipeline failure (not shrunken — shrinking needs a *runnable* failing
  // program, and the predicate rejects pipeline-dead candidates).
  BatchDriver driver;
  BatchDriver::FuzzOptions fuzz;
  fuzz.baseSeed = 1;
  fuzz.count = 2;
  fuzz.interp.maxOps = 1;
  fuzz.shrinkFailures = true;
  const FuzzResult result = driver.runFuzz(fuzz);
  EXPECT_EQ(result.stats.failed, 2u);
  ASSERT_EQ(result.failures.size(), 2u);
  for (const FuzzFailure &failure : result.failures) {
    EXPECT_FALSE(failure.source.empty());
    EXPECT_NE(failure.divergence.find("pipeline"), std::string::npos);
  }
}

} // namespace
} // namespace ompdart
