// Input boundaries of the real ompdart_cli binary fail closed: a
// diagnostic and a non-zero exit, never a crash or an emitted wrong plan
// (skipped when examples were not built).
#include "../common/cli_runner.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

namespace ompdart {
namespace {

namespace fs = std::filesystem;
using test::cliPath;
using test::CliResult;
using test::runCli;

class CliBoundaryTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!fs::exists(cliPath()))
      GTEST_SKIP() << "ompdart_cli not built at " << cliPath();
    dir_ = fs::temp_directory_path() /
           ("ompdart-cli-boundary-" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }

  /// Writes `source` to a file in the test's temporary directory; returns
  /// its path.
  std::string write(const std::string &name, const std::string &source) {
    const fs::path path = dir_ / name;
    std::ofstream(path) << source;
    return path.string();
  }

  fs::path dir_;
};

TEST_F(CliBoundaryTest, DeepNestingIsADiagnosticNotACrash) {
  constexpr std::size_t kDepth = 200000;
  const std::string source = "int f(void) { return " +
                             std::string(kDepth, '(') + "1" +
                             std::string(kDepth, ')') + "; }\n";
  const CliResult result = runCli(write("deep.c", source), true);
  EXPECT_EQ(result.exitCode, 1) << result.output.substr(0, 400);
  EXPECT_NE(result.output.find("nesting exceeds the maximum depth"),
            std::string::npos)
      << result.output.substr(0, 400);
}

TEST_F(CliBoundaryTest, UnknownPointerExtentExitsNonZeroEvenWithCheck) {
  const std::string path = write("extent.c", R"(
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
  for (const char *flags : {"", " --check", " --emit=ir", " --emit=json"}) {
    const CliResult result = runCli(path + flags, true);
    EXPECT_NE(result.exitCode, 0) << flags;
    EXPECT_NE(result.output.find("cannot determine extent of pointer 'p'"),
              std::string::npos)
        << flags;
    EXPECT_EQ(result.output.find("p[0:0]"), std::string::npos) << flags;
  }
}

} // namespace
} // namespace ompdart
