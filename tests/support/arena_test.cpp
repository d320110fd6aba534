// Tests for the bump-pointer arena and the AST lifetime contract it backs:
// nodes live exactly as long as their ASTContext, so anything holding the
// Session's shared_ptr<ASTContext> may keep walking the tree after the
// Session itself is gone. The dangling-access cases are the ones ASan turns
// from "happens to work" into hard failures.
#include "driver/pipeline.hpp"
#include "support/arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ompdart {
namespace {

TEST(ArenaTest, AllocationsAreAlignedAndDistinct) {
  BumpArena arena;
  std::vector<void *> seen;
  for (int i = 0; i < 1000; ++i) {
    void *p8 = arena.allocate(1, 1);
    void *p64 = arena.allocate(24, 8);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p64) % 8, 0u);
    seen.push_back(p8);
    seen.push_back(p64);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
  EXPECT_GE(arena.bytesAllocated(), 1000u * 25u);
}

TEST(ArenaTest, LargeAllocationGetsItsOwnSlab) {
  BumpArena arena;
  // Larger than one 64 KiB slab: must still succeed, in a dedicated slab.
  char *big = static_cast<char *>(arena.allocate(256 * 1024, 16));
  big[0] = 1;
  big[256 * 1024 - 1] = 2; // ASan would flag an undersized slab here
  EXPECT_GE(arena.slabCount(), 1u);
}

TEST(ArenaTest, NonTrivialDestructorsRunOnReset) {
  struct Tracked {
    explicit Tracked(int *counter) : counter_(counter) { ++*counter_; }
    ~Tracked() { --*counter_; }
    int *counter_;
    std::string payload = "heap-owning member";
  };
  int alive = 0;
  {
    BumpArena arena;
    for (int i = 0; i < 100; ++i)
      arena.create<Tracked>(&alive);
    EXPECT_EQ(alive, 100);
    arena.reset();
    EXPECT_EQ(alive, 0);
    // The arena is reusable after reset.
    arena.create<Tracked>(&alive);
    EXPECT_EQ(alive, 1);
  }
  EXPECT_EQ(alive, 0); // destructor path on arena death too
}

TEST(ArenaTest, AstOutlivesSessionViaSharedContext) {
  // The Session's AST nodes are arena-allocated inside its ASTContext.
  // Holding shareAst() must keep every node reachable from the unit valid
  // after the Session is destroyed — under ASan a dangling node access here
  // fails loudly instead of silently reading freed slabs.
  const std::string source = R"(
    int data[64];
    void fill(int n) {
      for (int i = 0; i < n; ++i)
        data[i] = i;
    }
    int main(void) {
      fill(64);
      #pragma omp target teams distribute parallel for
      for (int i = 0; i < 64; ++i)
        data[i] = data[i] * 2;
      return 0;
    }
  )";
  std::shared_ptr<ASTContext> ast;
  {
    Session session("arena_lifetime.c", source, PipelineConfig{});
    ASSERT_TRUE(session.run());
    ast = session.shareAst();
  }
  // Session (and its SourceManager/DiagnosticEngine) are gone; the tree is
  // not.
  ASSERT_NE(ast, nullptr);
  const TranslationUnit &unit = ast->unit();
  ASSERT_EQ(unit.functions.size(), 2u);
  const FunctionDecl *mainFn = unit.findFunction("main");
  ASSERT_NE(mainFn, nullptr);
  EXPECT_EQ(mainFn->name(), "main");
  ASSERT_NE(mainFn->body(), nullptr);
  EXPECT_FALSE(mainFn->body()->body().empty());
  ASSERT_EQ(unit.globals.size(), 1u);
  EXPECT_EQ(unit.globals[0]->name(), "data");
}

} // namespace
} // namespace ompdart
