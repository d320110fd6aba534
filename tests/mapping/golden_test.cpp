// Shim-equivalence golden tests: the transformed source for every suite
// benchmark must stay byte-identical to the pre-refactor rewriter output
// (captured in tests/mapping/golden/*.c). This pins the planner and the
// IR-based rewrite backend to the original behavior exactly.
#include "driver/pipeline.hpp"
#include "suite/benchmarks.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#ifndef OMPDART_REPO_DIR
#define OMPDART_REPO_DIR "."
#endif

namespace ompdart {
namespace {

std::string readGolden(const std::string &name, bool &found) {
  const std::string path =
      std::string(OMPDART_REPO_DIR) + "/tests/mapping/golden/" + name + ".c";
  std::ifstream in(path);
  found = static_cast<bool>(in);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(GoldenOutputTest, SuiteBenchmarksAreByteIdenticalToPreRefactorOutput) {
  for (const suite::BenchmarkDef &def : suite::allBenchmarks()) {
    bool found = false;
    const std::string golden = readGolden(def.name, found);
    ASSERT_TRUE(found) << "missing golden file for " << def.name;
    Session session(def.name + ".c", def.unoptimized);
    ASSERT_TRUE(session.run()) << def.name;
    EXPECT_EQ(session.rewrite(), golden) << def.name;
  }
}

} // namespace
} // namespace ompdart
