#include "../common/test_util.hpp"

#include "frontend/ast_printer.hpp"
#include "frontend/const_fold.hpp"

#include <gtest/gtest.h>

namespace ompdart {
namespace {

using test::parse;

/// `depth` nested parentheses around a literal, in a return statement.
std::string nestedParens(std::size_t depth) {
  return "int f(void) { return " + std::string(depth, '(') + "1" +
         std::string(depth, ')') + "; }";
}

/// A sum of `terms` operands: a left-deep tree `terms - 1` levels deep.
std::string longSum(std::size_t terms) {
  std::string sum = "a";
  for (std::size_t i = 1; i < terms; ++i)
    sum += " + a";
  return "int f(int a) { return " + sum + "; }";
}

/// An if/else-if chain of `arms` arms: each else branch nests one deeper.
std::string elseIfChain(std::size_t arms) {
  std::string chain;
  for (std::size_t i = 0; i < arms; ++i)
    chain += (i == 0 ? "if (a == " : " else if (a == ") + std::to_string(i) +
             ") return " + std::to_string(i) + ";";
  return "int f(int a) { " + chain + " return -1; }";
}

/// `depth` nested compound statements.
std::string nestedBlocks(std::size_t depth) {
  return "void g(void) { " + std::string(depth, '{') + "return; " +
         std::string(depth, '}') + " }";
}

TEST(ParserTest, NestingPastTheDepthLimitIsOneError) {
  // Legal C well past clang's default bracket depth of 256 still parses,
  // and statements count toward the same budget as expressions.
  for (const std::string &source :
       {nestedParens(256), nestedParens(500), longSum(1000), elseIfChain(300),
        elseIfChain(500), nestedBlocks(256)}) {
    auto parsed = parse(source);
    EXPECT_TRUE(parsed.ok) << parsed.diags->summary().substr(0, 400);
  }

  for (const std::string &source :
       {nestedParens(600), nestedParens(200000), longSum(1100),
        longSum(200000), elseIfChain(600), nestedBlocks(600)}) {
    auto parsed = parse(source);
    EXPECT_FALSE(parsed.ok);
    ASSERT_EQ(parsed.diags->diagnostics().size(), 1u)
        << parsed.diags->summary().substr(0, 400);
    EXPECT_NE(parsed.diags->diagnostics()[0].message.find(
                  "nesting exceeds the maximum depth of 1024"),
              std::string::npos);
  }
}

TEST(ParserTest, GlobalVariable) {
  auto parsed = parse("int counter = 3;");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
  ASSERT_EQ(parsed.unit().globals.size(), 1u);
  const VarDecl *var = parsed.unit().globals[0];
  EXPECT_EQ(var->name(), "counter");
  EXPECT_TRUE(var->isGlobal());
  ASSERT_NE(var->init(), nullptr);
  EXPECT_EQ(foldIntegerConstant(var->init()).value_or(-1), 3);
}

TEST(ParserTest, GlobalArrayWithMacroExtent) {
  auto parsed = parse("#define N 64\ndouble data[N];");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
  const auto *array =
      dynamic_cast<const ArrayType *>(parsed.unit().globals[0]->type());
  ASSERT_NE(array, nullptr);
  EXPECT_EQ(array->extent().value_or(0), 64u);
}

TEST(ParserTest, ExternGlobalUnifiesOntoOneDecl) {
  // Concatenated multi-TU programs redeclare globals: an extern
  // redeclaration after the definition (and vice versa) must bind to one
  // object, and the definition's type wins (it may carry the extent).
  auto parsed = parse(R"(
extern double grid[];
double grid[64];
extern double grid[64];
double reader() { return grid[1]; }
)");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
  ASSERT_EQ(parsed.unit().globals.size(), 1u);
  const VarDecl *grid = parsed.unit().globals[0];
  EXPECT_FALSE(grid->isExtern());
  const auto *array = dynamic_cast<const ArrayType *>(grid->type());
  ASSERT_NE(array, nullptr);
  EXPECT_EQ(array->extent().value_or(0), 64u);
}

TEST(ParserTest, LaterExternDeclarationCompletesArrayType) {
  // A richer redeclaration must not lose its extent to declaration order.
  auto parsed = parse(R"(
extern double a[];
extern double a[64];
)");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
  ASSERT_EQ(parsed.unit().globals.size(), 1u);
  const auto *array =
      dynamic_cast<const ArrayType *>(parsed.unit().globals[0]->type());
  ASSERT_NE(array, nullptr);
  EXPECT_EQ(array->extent().value_or(0), 64u);
}

TEST(ParserTest, StaticGlobalsDoNotUnify) {
  // Internal linkage: same-named statics are distinct objects.
  auto parsed = parse(R"(
static double tmp[8];
static double tmp[16];
)");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
  ASSERT_EQ(parsed.unit().globals.size(), 2u);
}

TEST(ParserTest, MultiDimensionalArray) {
  auto parsed = parse("double grid[4][8];");
  ASSERT_TRUE(parsed.ok);
  const auto *outer =
      dynamic_cast<const ArrayType *>(parsed.unit().globals[0]->type());
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->extent().value_or(0), 4u);
  const auto *inner = dynamic_cast<const ArrayType *>(outer->element());
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->extent().value_or(0), 8u);
  EXPECT_TRUE(inner->element()->isFloatingPoint());
}

TEST(ParserTest, FunctionDefinitionAndParams) {
  auto parsed = parse("int add(int a, int b) { return a + b; }");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
  FunctionDecl *fn = parsed.function("add");
  ASSERT_NE(fn, nullptr);
  EXPECT_TRUE(fn->isDefined());
  ASSERT_EQ(fn->params().size(), 2u);
  EXPECT_EQ(fn->params()[0]->name(), "a");
  EXPECT_TRUE(fn->params()[0]->isParam());
}

TEST(ParserTest, PrototypeThenDefinitionShareDecl) {
  auto parsed = parse("void f(int x);\nvoid f(int x) { x = x + 1; }");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
  ASSERT_EQ(parsed.unit().functions.size(), 1u);
  EXPECT_TRUE(parsed.unit().functions[0]->isDefined());
}

TEST(ParserTest, ArrayParamDecaysToPointer) {
  auto parsed = parse("void f(double a[], int n) { a[0] = n; }");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
  const VarDecl *param = parsed.function("f")->params()[0];
  EXPECT_TRUE(param->type()->isPointer());
}

TEST(ParserTest, ConstPointerParamRecorded) {
  auto parsed = parse("void f(const double *a) { double x = a[0]; (void)x; }");
  // Note: (void)x cast-expr of variable; just check parse outcome of param.
  const VarDecl *param = parsed.function("f")->params()[0];
  const auto *pointer = dynamic_cast<const PointerType *>(param->type());
  ASSERT_NE(pointer, nullptr);
  EXPECT_TRUE(pointer->isPointeeConst());
}

TEST(ParserTest, OperatorPrecedence) {
  auto parsed = parse("int v = 2 + 3 * 4;");
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(foldIntegerConstant(parsed.unit().globals[0]->init()).value_or(0),
            14);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  auto parsed = parse("int v = (2 + 3) * 4;");
  EXPECT_EQ(foldIntegerConstant(parsed.unit().globals[0]->init()).value_or(0),
            20);
}

TEST(ParserTest, RightAssociativeAssignment) {
  auto parsed = parse("void f() { int a; int b; a = b = 3; }");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
}

TEST(ParserTest, ConditionalExpression) {
  auto parsed = parse("int v = 1 < 2 ? 10 : 20;");
  EXPECT_EQ(foldIntegerConstant(parsed.unit().globals[0]->init()).value_or(0),
            10);
}

TEST(ParserTest, SizeofType) {
  auto parsed = parse("unsigned long v = sizeof(double);");
  EXPECT_EQ(foldIntegerConstant(parsed.unit().globals[0]->init()).value_or(0),
            8);
}

TEST(ParserTest, CastOfMalloc) {
  auto parsed =
      parse("void f(int n) { double *p = (double *)malloc(n * "
            "sizeof(double)); free(p); }");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
  auto *declStmt = test::firstStmtAs<DeclStmt>(parsed.function("f"));
  ASSERT_NE(declStmt, nullptr);
  const VarDecl *var = declStmt->decls()[0];
  EXPECT_TRUE(var->type()->isPointer());
  const Expr *init = ignoreParensAndCasts(var->init());
  ASSERT_EQ(init->kind(), ExprKind::Call);
  EXPECT_EQ(static_cast<const CallExpr *>(init)->calleeName(), "malloc");
}

TEST(ParserTest, StructDefinitionAndMemberAccess) {
  auto parsed = parse(R"(
struct point { double x; double y; };
double norm2(struct point p) { return p.x * p.x + p.y * p.y; }
)");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
  ASSERT_EQ(parsed.unit().records.size(), 1u);
  EXPECT_EQ(parsed.unit().records[0]->fields().size(), 2u);
  EXPECT_EQ(parsed.unit().records[0]->sizeInBytes(), 16u);
}

TEST(ParserTest, ArrowMemberAccess) {
  auto parsed = parse(R"(
struct node { int value; };
int get(struct node *n) { return n->value; }
)");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
}

TEST(ParserTest, TypedefStruct) {
  auto parsed = parse(R"(
typedef struct vec3 { float x; float y; float z; } vec3_t;
float getx(vec3_t v) { return v.x; }
)");
  EXPECT_TRUE(parsed.ok) << parsed.diags->summary();
}

TEST(ParserTest, ForLoopWithDeclInit) {
  auto parsed = parse("void f(int n, int *a) { for (int i = 0; i < n; ++i) "
                      "a[i] = i; }");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
  auto *forStmt = test::firstStmtAs<ForStmt>(parsed.function("f"));
  ASSERT_NE(forStmt, nullptr);
  EXPECT_NE(forStmt->init(), nullptr);
  EXPECT_NE(forStmt->cond(), nullptr);
  EXPECT_NE(forStmt->inc(), nullptr);
}

TEST(ParserTest, WhileAndDoLoops) {
  auto parsed = parse(R"(
void f(int n) {
  int i = 0;
  while (i < n) { i++; }
  do { i--; } while (i > 0);
}
)");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
}

TEST(ParserTest, SwitchCaseDefault) {
  auto parsed = parse(R"(
int pick(int k) {
  switch (k) {
  case 0: return 1;
  case 1: return 2;
  default: break;
  }
  return 0;
}
)");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
}

TEST(ParserTest, ShadowingResolvesToInnermost) {
  auto parsed = parse(R"(
int x = 1;
int f() {
  int x = 2;
  { int x = 3; return x; }
}
)");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
  // Find the return statement's variable; it must not be the global.
  FunctionDecl *fn = parsed.function("f");
  auto *block = dynamic_cast<CompoundStmt *>(fn->body()->body()[1]);
  ASSERT_NE(block, nullptr);
  auto *returnStmt = dynamic_cast<ReturnStmt *>(block->body()[1]);
  ASSERT_NE(returnStmt, nullptr);
  VarDecl *returned = referencedVar(returnStmt->value());
  ASSERT_NE(returned, nullptr);
  EXPECT_FALSE(returned->isGlobal());
  EXPECT_NE(returned, parsed.unit().globals[0]);
}

TEST(ParserTest, UndeclaredIdentifierIsError) {
  auto parsed = parse("void f() { y = 3; }");
  EXPECT_FALSE(parsed.ok);
  EXPECT_TRUE(parsed.diags->hasErrors());
}

TEST(ParserTest, InitializerList) {
  auto parsed = parse("int a[4] = {1, 2, 3, 4};");
  ASSERT_TRUE(parsed.ok);
  ASSERT_NE(parsed.unit().globals[0]->init(), nullptr);
  EXPECT_EQ(parsed.unit().globals[0]->init()->kind(), ExprKind::InitList);
}

TEST(ParserTest, EmptyInitializerList) {
  auto parsed = parse("int a[4] = {};");
  ASSERT_TRUE(parsed.ok);
  const auto *init =
      static_cast<const InitListExpr *>(parsed.unit().globals[0]->init());
  EXPECT_TRUE(init->inits().empty());
}

TEST(ParserTest, CommaExpression) {
  auto parsed = parse("void f() { int a; int b; for (a = 0, b = 9; a < b; "
                      "++a, --b) { } }");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
}

TEST(ParserTest, StatementRangesCoverSource) {
  const std::string source = "void f() { int x = 1; x = 2; }";
  auto parsed = parse(source);
  FunctionDecl *fn = parsed.function("f");
  const auto &body = fn->body()->body();
  ASSERT_EQ(body.size(), 2u);
  const SourceRange declRange = body[0]->range();
  EXPECT_EQ(source.substr(declRange.begin.offset,
                          declRange.end.offset - declRange.begin.offset),
            "int x = 1;");
  const SourceRange exprRange = body[1]->range();
  EXPECT_EQ(source.substr(exprRange.begin.offset,
                          exprRange.end.offset - exprRange.begin.offset),
            "x = 2;");
}

TEST(ParserTest, GlobalsAndFunctionsMixed) {
  auto parsed = parse(R"(
#define SIZE 16
double weights[SIZE];
static int hidden;
void init(void);
void init(void) {
  for (int i = 0; i < SIZE; ++i) weights[i] = 0.0;
  hidden = SIZE;
}
int main() { init(); return hidden; }
)");
  ASSERT_TRUE(parsed.ok) << parsed.diags->summary();
  EXPECT_EQ(parsed.unit().globals.size(), 2u);
  EXPECT_EQ(parsed.unit().functions.size(), 2u);
  EXPECT_TRUE(parsed.unit().globals[1]->isStatic());
}

TEST(ParserTest, AstDumpMentionsNodes) {
  auto parsed = parse("void f(int n, int *a) { for (int i = 0; i < n; ++i) "
                      "a[i] = i; }");
  const std::string dump = dumpFunction(parsed.function("f"));
  EXPECT_NE(dump.find("ForStmt"), std::string::npos);
  EXPECT_NE(dump.find("ArraySubscriptExpr"), std::string::npos);
  EXPECT_NE(dump.find("BinaryOperator"), std::string::npos);
}

TEST(ParserTest, ExprToSourceRoundTrip) {
  auto parsed = parse("int v = (1 + 2) * 3;");
  EXPECT_EQ(exprToSource(parsed.unit().globals[0]->init()), "(1 + 2) * 3");
}

TEST(ParserTest, NegativeArrayBoundRejectedGracefully) {
  auto parsed = parse("int a[-4];");
  // Extent is not representable; parser keeps a dynamic array type.
  const auto *array =
      dynamic_cast<const ArrayType *>(parsed.unit().globals[0]->type());
  ASSERT_NE(array, nullptr);
  EXPECT_FALSE(array->extent().has_value());
}

TEST(ParserTest, RecoveryAfterBadStatement) {
  auto parsed = parse("void f() { @; int ok = 1; }");
  EXPECT_FALSE(parsed.ok);
  // Parser must survive and still see the function.
  EXPECT_NE(parsed.function("f"), nullptr);
}

} // namespace
} // namespace ompdart
