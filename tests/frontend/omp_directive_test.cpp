// Exhaustive coverage of Table I (AST nodes recognized as offload kernels)
// plus directive/clause parsing details the analyses rely on.
#include "../common/test_util.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>

namespace ompdart {
namespace {

using test::parse;

OmpDirectiveStmt *parseDirective(const std::string &pragmaLine,
                                 test::ParsedUnit &parsed) {
  const std::string source = "void f(int n, double *a, double *b) {\n" +
                             pragmaLine +
                             "\nfor (int i = 0; i < n; ++i) a[i] = b[i];\n}\n";
  parsed = parse(source);
  return test::findFirstDirective(parsed.function("f"));
}

struct DirectiveCase {
  const char *pragma;
  OmpDirectiveKind kind;
  bool isKernel;
};

// Prints the pragma in CamelCase ("target teams loop" -> TargetTeamsLoop),
// which names each case under ctest. Without it gtest would print the raw
// bytes of the struct, `pragma`'s address included, and the names would
// change from build to build.
void PrintTo(const DirectiveCase &testCase, std::ostream *os) {
  bool wordStart = true;
  for (const char *c = testCase.pragma; *c != '\0'; ++c) {
    if (*c == ' ') {
      wordStart = true;
      continue;
    }
    *os << (wordStart ? static_cast<char>(std::toupper(
                            static_cast<unsigned char>(*c)))
                      : *c);
    wordStart = false;
  }
}

class TableOneTest : public ::testing::TestWithParam<DirectiveCase> {};

TEST_P(TableOneTest, DirectiveKindAndKernelClassification) {
  const DirectiveCase &testCase = GetParam();
  test::ParsedUnit parsed;
  OmpDirectiveStmt *directive =
      parseDirective(std::string("#pragma omp ") + testCase.pragma, parsed);
  ASSERT_NE(directive, nullptr)
      << testCase.pragma << "\n"
      << parsed.diags->summary();
  EXPECT_EQ(directive->directive(), testCase.kind) << testCase.pragma;
  EXPECT_EQ(directive->isOffloadKernel(), testCase.isKernel)
      << testCase.pragma;
}

// Table I of the paper: every kernel-launching target directive.
INSTANTIATE_TEST_SUITE_P(
    PaperTableOne, TableOneTest,
    ::testing::Values(
        DirectiveCase{"target", OmpDirectiveKind::Target, true},
        DirectiveCase{"target parallel", OmpDirectiveKind::TargetParallel,
                      true},
        DirectiveCase{"target parallel for",
                      OmpDirectiveKind::TargetParallelFor, true},
        DirectiveCase{"target parallel for simd",
                      OmpDirectiveKind::TargetParallelForSimd, true},
        DirectiveCase{"target parallel loop",
                      OmpDirectiveKind::TargetParallelLoop, true},
        DirectiveCase{"target simd", OmpDirectiveKind::TargetSimd, true},
        DirectiveCase{"target teams", OmpDirectiveKind::TargetTeams, true},
        DirectiveCase{"target teams distribute",
                      OmpDirectiveKind::TargetTeamsDistribute, true},
        DirectiveCase{"target teams distribute parallel for",
                      OmpDirectiveKind::TargetTeamsDistributeParallelFor,
                      true},
        DirectiveCase{"target teams distribute parallel for simd",
                      OmpDirectiveKind::TargetTeamsDistributeParallelForSimd,
                      true},
        DirectiveCase{"target teams distribute simd",
                      OmpDirectiveKind::TargetTeamsDistributeSimd, true},
        DirectiveCase{"target teams loop", OmpDirectiveKind::TargetTeamsLoop,
                      true}));

TEST(OmpDirectiveTest, TargetDataIsNotAKernel) {
  test::ParsedUnit parsed;
  OmpDirectiveStmt *directive =
      parseDirective("#pragma omp target data map(a[0:n])", parsed);
  ASSERT_NE(directive, nullptr);
  EXPECT_EQ(directive->directive(), OmpDirectiveKind::TargetData);
  EXPECT_FALSE(directive->isOffloadKernel());
}

TEST(OmpDirectiveTest, TargetUpdateIsStandalone) {
  auto parsed = parse(R"(
void f(int n, double *a) {
  #pragma omp target update from(a[0:n])
  a[0] = 1.0;
}
)");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
  auto *directive = test::findFirstDirective(parsed.function("f"));
  ASSERT_NE(directive, nullptr);
  EXPECT_EQ(directive->directive(), OmpDirectiveKind::TargetUpdate);
  EXPECT_EQ(directive->associated(), nullptr);
  ASSERT_EQ(directive->clauses().size(), 1u);
  EXPECT_EQ(directive->clauses()[0].kind, OmpClauseKind::UpdateFrom);
}

TEST(OmpDirectiveTest, TargetEnterExitData) {
  auto parsed = parse(R"(
void f(int n, double *a) {
  #pragma omp target enter data map(to: a[0:n])
  #pragma omp target exit data map(from: a[0:n])
  a[0] = 1.0;
}
)");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
  auto *body = parsed.function("f")->body();
  auto *enter = dynamic_cast<OmpDirectiveStmt *>(body->body()[0]);
  auto *exit = dynamic_cast<OmpDirectiveStmt *>(body->body()[1]);
  ASSERT_NE(enter, nullptr);
  ASSERT_NE(exit, nullptr);
  EXPECT_EQ(enter->directive(), OmpDirectiveKind::TargetEnterData);
  EXPECT_EQ(exit->directive(), OmpDirectiveKind::TargetExitData);
}

TEST(OmpDirectiveTest, MapTypesParsed) {
  test::ParsedUnit parsed;
  OmpDirectiveStmt *directive = parseDirective(
      "#pragma omp target map(to: a[0:n]) map(from: b[0:n]) map(tofrom: n)",
      parsed);
  ASSERT_NE(directive, nullptr);
  ASSERT_EQ(directive->clauses().size(), 3u);
  EXPECT_EQ(directive->clauses()[0].mapType, OmpMapType::To);
  EXPECT_EQ(directive->clauses()[1].mapType, OmpMapType::From);
  EXPECT_EQ(directive->clauses()[2].mapType, OmpMapType::ToFrom);
}

TEST(OmpDirectiveTest, DefaultMapTypeIsToFrom) {
  test::ParsedUnit parsed;
  OmpDirectiveStmt *directive =
      parseDirective("#pragma omp target map(a)", parsed);
  ASSERT_NE(directive, nullptr);
  EXPECT_EQ(directive->clauses()[0].mapType, OmpMapType::ToFrom);
}

TEST(OmpDirectiveTest, AllocMapType) {
  test::ParsedUnit parsed;
  OmpDirectiveStmt *directive =
      parseDirective("#pragma omp target data map(alloc: a[0:n])", parsed);
  ASSERT_NE(directive, nullptr);
  EXPECT_EQ(directive->clauses()[0].mapType, OmpMapType::Alloc);
}

TEST(OmpDirectiveTest, ArraySectionBounds) {
  test::ParsedUnit parsed;
  OmpDirectiveStmt *directive =
      parseDirective("#pragma omp target map(to: a[2:n])", parsed);
  ASSERT_NE(directive, nullptr);
  const OmpObject &object = directive->clauses()[0].objects[0];
  ASSERT_EQ(object.sections.size(), 1u);
  EXPECT_NE(object.sections[0].lower, nullptr);
  EXPECT_NE(object.sections[0].length, nullptr);
  EXPECT_EQ(object.spelling, "a[2:n]");
  ASSERT_NE(object.var, nullptr);
  EXPECT_EQ(object.var->name(), "a");
}

TEST(OmpDirectiveTest, WholeDimensionSection) {
  test::ParsedUnit parsed;
  OmpDirectiveStmt *directive =
      parseDirective("#pragma omp target map(a[:])", parsed);
  ASSERT_NE(directive, nullptr);
  const OmpObject &object = directive->clauses()[0].objects[0];
  ASSERT_EQ(object.sections.size(), 1u);
  EXPECT_EQ(object.sections[0].lower, nullptr);
  EXPECT_EQ(object.sections[0].length, nullptr);
}

TEST(OmpDirectiveTest, FirstprivateClause) {
  test::ParsedUnit parsed;
  OmpDirectiveStmt *directive =
      parseDirective("#pragma omp target firstprivate(n)", parsed);
  ASSERT_NE(directive, nullptr);
  ASSERT_EQ(directive->clauses().size(), 1u);
  EXPECT_EQ(directive->clauses()[0].kind, OmpClauseKind::FirstPrivate);
  EXPECT_EQ(directive->clauses()[0].objects[0].var->name(), "n");
}

TEST(OmpDirectiveTest, ReductionClause) {
  test::ParsedUnit parsed;
  OmpDirectiveStmt *directive = parseDirective(
      "#pragma omp target teams distribute parallel for reduction(+: n)",
      parsed);
  ASSERT_NE(directive, nullptr);
  ASSERT_EQ(directive->clauses().size(), 1u);
  EXPECT_EQ(directive->clauses()[0].kind, OmpClauseKind::Reduction);
  EXPECT_EQ(directive->clauses()[0].reductionOp, "+");
}

TEST(OmpDirectiveTest, NumTeamsAndThreadLimit) {
  test::ParsedUnit parsed;
  OmpDirectiveStmt *directive = parseDirective(
      "#pragma omp target teams num_teams(8) thread_limit(256)", parsed);
  ASSERT_NE(directive, nullptr);
  ASSERT_EQ(directive->clauses().size(), 2u);
  EXPECT_EQ(directive->clauses()[0].kind, OmpClauseKind::NumTeams);
  EXPECT_NE(directive->clauses()[0].value, nullptr);
  EXPECT_EQ(directive->clauses()[1].kind, OmpClauseKind::ThreadLimit);
}

TEST(OmpDirectiveTest, MultipleObjectsPerClause) {
  test::ParsedUnit parsed;
  OmpDirectiveStmt *directive =
      parseDirective("#pragma omp target map(to: a[0:n], b[0:n]) "
                     "firstprivate(n)",
                     parsed);
  ASSERT_NE(directive, nullptr);
  EXPECT_EQ(directive->clauses()[0].objects.size(), 2u);
}

TEST(OmpDirectiveTest, PragmaRangeCoversDirectiveLine) {
  const std::string source =
      "void f(int n, double *a) {\n"
      "  #pragma omp target teams distribute parallel for map(tofrom: "
      "a[0:n])\n"
      "  for (int i = 0; i < n; ++i) a[i] = i;\n"
      "}\n";
  auto parsed = parse(source);
  auto *directive = test::findFirstDirective(parsed.function("f"));
  ASSERT_NE(directive, nullptr);
  const SourceRange range = directive->pragmaRange();
  const std::string text = source.substr(
      range.begin.offset, range.end.offset - range.begin.offset);
  EXPECT_EQ(text.substr(0, 11), "#pragma omp");
  EXPECT_NE(text.find("map(tofrom: a[0:n])"), std::string::npos);
  // The pragma range must not include the following for loop.
  EXPECT_EQ(text.find("for (int"), std::string::npos);
}

TEST(OmpDirectiveTest, AssociatedStatementAttached) {
  test::ParsedUnit parsed;
  OmpDirectiveStmt *directive =
      parseDirective("#pragma omp target teams distribute parallel for",
                     parsed);
  ASSERT_NE(directive, nullptr);
  ASSERT_NE(directive->associated(), nullptr);
  EXPECT_EQ(directive->associated()->kind(), StmtKind::For);
}

TEST(OmpDirectiveTest, HostParallelForIsNotOffload) {
  test::ParsedUnit parsed;
  OmpDirectiveStmt *directive =
      parseDirective("#pragma omp parallel for", parsed);
  ASSERT_NE(directive, nullptr);
  EXPECT_EQ(directive->directive(), OmpDirectiveKind::ParallelFor);
  EXPECT_FALSE(directive->isOffloadKernel());
}

TEST(OmpDirectiveTest, UnknownClauseWarnsButParses) {
  test::ParsedUnit parsed;
  OmpDirectiveStmt *directive = parseDirective(
      "#pragma omp target mystery_clause(a, b) map(to: a[0:n])", parsed);
  ASSERT_NE(directive, nullptr);
  ASSERT_EQ(directive->clauses().size(), 1u); // unknown clause dropped
  bool sawWarning = false;
  for (const auto &diag : parsed.diags->diagnostics())
    sawWarning |= diag.severity == Severity::Warning;
  EXPECT_TRUE(sawWarning);
}

TEST(OmpDirectiveTest, ScheduleClauseSkipped) {
  test::ParsedUnit parsed;
  OmpDirectiveStmt *directive = parseDirective(
      "#pragma omp target teams distribute parallel for schedule(static, 4)",
      parsed);
  ASSERT_NE(directive, nullptr);
  EXPECT_TRUE(parsed.ok) << parsed.diags->summary();
}

TEST(OmpDirectiveTest, CollapseClauseValue) {
  test::ParsedUnit parsed;
  OmpDirectiveStmt *directive = parseDirective(
      "#pragma omp target teams distribute parallel for collapse(2)", parsed);
  ASSERT_NE(directive, nullptr);
  ASSERT_EQ(directive->clauses().size(), 1u);
  EXPECT_EQ(directive->clauses()[0].kind, OmpClauseKind::Collapse);
}

TEST(OmpDirectiveTest, MultiLinePragmaViaContinuation) {
  auto parsed = parse(R"(
void f(int n, double *a) {
  #pragma omp target teams distribute \
      parallel for map(tofrom: a[0:n])
  for (int i = 0; i < n; ++i) a[i] = i;
}
)");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
  auto *directive = test::findFirstDirective(parsed.function("f"));
  ASSERT_NE(directive, nullptr);
  EXPECT_EQ(directive->directive(),
            OmpDirectiveKind::TargetTeamsDistributeParallelFor);
}

TEST(OmpDirectiveTest, DirectiveSpellingRoundTrip) {
  EXPECT_STREQ(directiveSpelling(OmpDirectiveKind::TargetTeamsDistribute),
               "target teams distribute");
  EXPECT_STREQ(directiveSpelling(OmpDirectiveKind::TargetUpdate),
               "target update");
  EXPECT_STREQ(mapTypeSpelling(OmpMapType::ToFrom), "tofrom");
  EXPECT_STREQ(mapTypeSpelling(OmpMapType::Alloc), "alloc");
}

} // namespace
} // namespace ompdart
