// Re-running the tool on its own output never silently changes it: every
// rewrite fed back in either comes back byte-identical or is rejected with
// the pre-mapped-input diagnostic (paper §IV-A), whose failed session
// leaves the text unchanged. Covers the generated corpus, the nine suite
// benchmarks and the golden rewrites.
#include "driver/pipeline.hpp"
#include "suite/benchmarks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#ifndef OMPDART_REPO_DIR
#define OMPDART_REPO_DIR "."
#endif

namespace ompdart {
namespace {

namespace fs = std::filesystem;

std::string readFile(const fs::path &path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Feeds `output` (a rewrite the tool produced) back in. Returns true when
/// the rerun was rejected as pre-mapped input, false when it succeeded;
/// either way the text must come back unchanged.
bool rerunIsFixedPointOrRejected(const std::string &name,
                                 const std::string &output) {
  Session rerun(name, output);
  const bool ok = rerun.run();
  EXPECT_EQ(rerun.rewrite(), output)
      << name << ": re-running the tool changed its own output";
  if (ok)
    return false;
  bool rejected = false;
  for (const Diagnostic &diag : rerun.diagnostics().diagnostics())
    rejected |= diag.message.find("OMPDart expects unmapped input") !=
                std::string::npos;
  EXPECT_TRUE(rejected) << name << ": " << rerun.diagnostics().summary();
  return rejected;
}

/// Plans `source`, then feeds its rewrite back in.
bool rewriteIsFixedPointOrRejected(const std::string &name,
                                   const std::string &source) {
  Session first(name, source);
  EXPECT_TRUE(first.run()) << name << ": " << first.diagnostics().summary();
  return rerunIsFixedPointOrRejected(name, first.rewrite());
}

std::vector<fs::path> sourcesIn(const fs::path &dir) {
  std::vector<fs::path> paths;
  for (const auto &entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".c")
      paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(IdempotenceTest, GeneratedCorpusRewritesAreFixedPointsOrRejected) {
  const auto paths =
      sourcesIn(fs::path(OMPDART_REPO_DIR) / "tests" / "gen" / "corpus");
  EXPECT_EQ(paths.size(), 45u);
  for (const fs::path &path : paths)
    rewriteIsFixedPointOrRejected(path.filename().string(), readFile(path));
}

TEST(IdempotenceTest, SuiteBenchmarkRewritesAreFixedPointsOrRejected) {
  for (const suite::BenchmarkDef &def : suite::allBenchmarks()) {
    const bool rejected =
        rewriteIsFixedPointOrRejected(def.name + ".c", def.unoptimized);
    // hotspot's region collapses onto its sole kernel, so its rewrite
    // carries a kernel map clause that a rerun must not duplicate.
    if (def.name == "hotspot") {
      EXPECT_TRUE(rejected);
    }
  }
}

TEST(IdempotenceTest, GoldenRewritesAreFixedPointsOrRejected) {
  const auto paths =
      sourcesIn(fs::path(OMPDART_REPO_DIR) / "tests" / "mapping" / "golden");
  EXPECT_EQ(paths.size(), 9u);
  for (const fs::path &path : paths)
    rerunIsFixedPointOrRejected(path.filename().string(), readFile(path));
}

} // namespace
} // namespace ompdart
