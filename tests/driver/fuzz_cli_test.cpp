// End-to-end CLI coverage for the fuzz flags: parsing/validation of
// --fuzz / --gen-seed / --shrink, deterministic same-seed => same-corpus
// output, manifest emission under -o, and the JSON report shape. Drives
// the real ompdart_cli binary (skipped when examples were not built).
#include "../common/cli_runner.hpp"
#include "support/json.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>

namespace ompdart {
namespace {

namespace fs = std::filesystem;
using test::cliPath;
using test::CliResult;
using test::runCli;

class FuzzCliTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!fs::exists(cliPath()))
      GTEST_SKIP() << "ompdart_cli not built at " << cliPath();
  }
};

TEST_F(FuzzCliTest, SameSeedSameCorpusOutputByteForByte) {
  const CliResult a = runCli("--fuzz=6 --gen-seed=11");
  const CliResult b = runCli("--fuzz=6 --gen-seed=11");
  EXPECT_EQ(a.exitCode, 0);
  EXPECT_EQ(a.output, b.output);
  EXPECT_NE(a.output.find("gen-000011"), std::string::npos);
  EXPECT_NE(a.output.find("6/6 passed"), std::string::npos);
  // A different seed produces different output.
  const CliResult c = runCli("--fuzz=6 --gen-seed=12");
  EXPECT_NE(a.output, c.output);
}

TEST_F(FuzzCliTest, RejectsBadFlagCombinations) {
  EXPECT_NE(runCli("--fuzz=0").exitCode, 0);
  EXPECT_NE(runCli("--fuzz=abc").exitCode, 0);
  EXPECT_NE(runCli("--fuzz=-3").exitCode, 0);
  EXPECT_NE(runCli("--gen-seed=5").exitCode, 0);   // needs --fuzz
  EXPECT_NE(runCli("--shrink").exitCode, 0);       // needs --fuzz
  EXPECT_NE(runCli("--fuzz=2 --emit=ir").exitCode, 0);
  EXPECT_NE(runCli("--fuzz=2 /tmp/nonexistent.c").exitCode, 0);
}

TEST_F(FuzzCliTest, ShrinkFlagAcceptedWithFuzz) {
  const CliResult result = runCli("--fuzz=2 --gen-seed=3 --shrink");
  EXPECT_EQ(result.exitCode, 0); // all pass: shrink has nothing to do
}

TEST_F(FuzzCliTest, JsonReportCarriesStatsItemsAndFailures) {
  const CliResult result = runCli("--fuzz=4 --gen-seed=21 --emit=json");
  ASSERT_EQ(result.exitCode, 0);
  std::string error;
  const auto parsed = json::Value::parse(result.output, &error);
  ASSERT_TRUE(parsed.has_value()) << error << "\n" << result.output;
  const json::Value *stats = parsed->find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->uintOr("programs"), 4u);
  EXPECT_EQ(stats->uintOr("passed"), 4u);
  const json::Value *items = parsed->find("items");
  ASSERT_NE(items, nullptr);
  EXPECT_EQ(items->items().size(), 4u);
  const json::Value *failures = parsed->find("failures");
  ASSERT_NE(failures, nullptr);
  EXPECT_TRUE(failures->items().empty());
}

TEST_F(FuzzCliTest, OutputDirectoryGetsCorpusAndManifest) {
  std::random_device rd;
  const fs::path dir = fs::temp_directory_path() /
                       ("ompdart-cli-fuzz-" + std::to_string(rd()));
  fs::remove_all(dir);
  const CliResult result =
      runCli("--fuzz=3 --gen-seed=5 -o " + dir.string());
  ASSERT_EQ(result.exitCode, 0);
  ASSERT_TRUE(fs::exists(dir / "manifest.json"));
  std::ifstream in(dir / "manifest.json");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  const auto manifest = json::Value::parse(buffer.str(), &error);
  ASSERT_TRUE(manifest.has_value()) << error;
  const json::Value *programs = manifest->find("programs");
  ASSERT_NE(programs, nullptr);
  ASSERT_EQ(programs->items().size(), 3u);
  for (const json::Value &entry : programs->items()) {
    const json::Value *files = entry.find("files");
    ASSERT_NE(files, nullptr);
    for (const json::Value &file : files->items())
      EXPECT_TRUE(fs::exists(dir / file.asString())) << file.asString();
    EXPECT_TRUE(entry.boolOr("ok"));
    EXPECT_EQ(entry.stringOr("irFingerprint").size(), 32u);
    EXPECT_EQ(entry.stringOr("sourceHash").size(), 32u);
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

} // namespace
} // namespace ompdart
