// Every divergence the differential oracle found during development lives
// as a minimized C program under tests/verify/regressions/ — with the fix
// in the owning layer (parser / planner / interp / rewriter). This harness
// re-runs the full oracle (all three invariants plus the rewritten-source
// leg) on each file, so any of those bugs coming back fails tier-1
// deterministically.
//
// File protocol: first line `// oracle-regression: provable=0|1` gates
// invariant (3) exactly like the generator's provable-trips flag.
#include "verify/oracle.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#ifndef OMPDART_REPO_DIR
#define OMPDART_REPO_DIR "."
#endif

namespace ompdart {
namespace {

namespace fs = std::filesystem;

struct RegressionCase {
  std::string name;
  std::string source;
  bool provable = false;
};

std::vector<RegressionCase> loadRegressions() {
  std::vector<RegressionCase> cases;
  const fs::path dir =
      fs::path(OMPDART_REPO_DIR) / "tests" / "verify" / "regressions";
  std::vector<fs::path> paths;
  for (const auto &entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ".c")
      paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  for (const fs::path &path : paths) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    RegressionCase regression;
    regression.name = path.filename().string();
    regression.source = buffer.str();
    regression.provable =
        regression.source.find("oracle-regression: provable=1") !=
        std::string::npos;
    cases.push_back(std::move(regression));
  }
  return cases;
}

class RegressionTest : public ::testing::TestWithParam<RegressionCase> {};

TEST_P(RegressionTest, OracleInvariantsHold) {
  const RegressionCase &regression = GetParam();
  verify::OracleOptions options;
  options.checkRewrite = true;
  const verify::OracleVerdict verdict = verify::runOracle(
      regression.name, regression.source, regression.provable, options);
  EXPECT_TRUE(verdict.ok) << verdict.divergence();
}

// Tests are named by their file (`Corpus/.../aliased_pointer_params.c` under
// ctest). Without this printer gtest would print the struct's raw bytes,
// pointers included, and the names would change from build to build.
void PrintTo(const RegressionCase &regression, std::ostream *os) {
  *os << regression.name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, RegressionTest,
                         ::testing::ValuesIn(loadRegressions()));

TEST(RegressionCorpusTest, CorpusIsNonEmpty) {
  // The directory must keep its cases: an empty corpus means the harness
  // silently tests nothing.
  EXPECT_GE(loadRegressions().size(), 8u);
}

} // namespace
} // namespace ompdart
