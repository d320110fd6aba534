// Recursive-descent parser for the C subset with OpenMP offload pragmas.
// Produces a typed AST with resolved variable references and exact source
// ranges (the rewriter depends on pragma/statement extents being accurate).
//
// Supported surface: global/local variable declarations (builtins, pointers,
// multi-dimensional arrays, structs, const/static/extern), function
// prototypes and definitions, the full C expression grammar (assignment,
// conditional, logical/bitwise/relational/shift/additive/multiplicative,
// unary, postfix call/subscript/member/inc-dec, casts, sizeof), all
// structured statements (if/for/while/do/switch/break/continue/return), and
// `#pragma omp` directives covering Table I of the paper plus target data /
// target update / target enter+exit data.
#pragma once

#include "frontend/ast.hpp"
#include "frontend/lexer.hpp"
#include "support/diagnostics.hpp"
#include "support/source_manager.hpp"

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace ompdart {

class Parser {
public:
  Parser(const SourceManager &sourceManager, ASTContext &context,
         DiagnosticEngine &diags);

  /// Parses the whole buffer into `context.unit()`. Returns false when any
  /// error diagnostic was emitted.
  bool parseTranslationUnit();

private:
  // --- token helpers ---
  const Token &current() const { return tokens_[pos_]; }
  const Token &peekAhead(std::size_t n = 1) const;
  Token consume();
  bool check(TokenKind kind) const { return current().kind == kind; }
  bool accept(TokenKind kind);
  bool expect(TokenKind kind, const char *context);
  void error(const std::string &message);
  void skipToRecovery();

  // --- nesting depth ---
  /// Nesting budget of one parse, in levels. Each operator of a chain
  /// (binary, comma, assignment, conditional, postfix) wraps the tree built
  /// so far and costs one level. A statement, or a bracketed or unary
  /// operand, costs kNestedLevels: the parser and the AST walks recurse
  /// through more frames for it. So about 500 nested brackets fit (clang's
  /// default -fbracket-depth is 256), as do a 1,000-term sum and a 500-arm
  /// else-if chain. Measured with the CI sanitizer flags (ASan+UBSan,
  /// RelWithDebInfo) on an 8 MiB stack, the first stage to overflow
  /// (parser, AST walks or interpreter) needs at least 1.9 times this
  /// budget for every kind of nesting; release builds have far more room.
  static constexpr unsigned kMaxNestingDepth = 1024;
  static constexpr unsigned kNestedLevels = 2;
  /// Nesting levels held while a nested construct is parsed.
  class NestingScope;
  /// Reports the depth error once and skips to the end of the input, so no
  /// recursion goes deeper and no cascading diagnostics follow.
  void abandonTooDeep();

  // --- scopes ---
  void pushScope();
  void popScope();
  VarDecl *lookup(const std::string &name) const;
  void declare(VarDecl *var);

  // --- types & declarations ---
  struct DeclSpec {
    const Type *type = nullptr;
    bool isConst = false;
    bool isStatic = false;
    bool isExtern = false;
    bool isTypedef = false;
  };
  bool atTypeSpecifier() const;
  std::optional<DeclSpec> parseDeclSpec();
  const Type *parseDeclaratorPointers(const Type *base, bool pointeeConst);
  void parseTopLevel();
  void parseStructDefinition();
  void parseFunctionOrGlobal(const DeclSpec &spec);
  FunctionDecl *parseFunctionRest(const DeclSpec &spec, const std::string &name,
                                  const Type *declType,
                                  std::size_t beginOffset);
  Stmt *parseDeclStmt();
  VarDecl *parseInitDeclarator(const DeclSpec &spec, bool isGlobal);
  const Type *parseArrayDimensions(const Type *base);

  // --- statements ---
  Stmt *parseStmt();
  Stmt *parseCompound();
  Stmt *parseIf();
  Stmt *parseFor();
  Stmt *parseWhile();
  Stmt *parseDo();
  Stmt *parseSwitch();
  Stmt *parseReturn();
  Stmt *parseOmpDirective();

  // --- OpenMP ---
  std::optional<OmpDirectiveKind> parseOmpDirectiveName();
  bool parseOmpClauses(std::vector<OmpClause> &clauses,
                       OmpDirectiveKind directive);
  bool parseOmpObjectList(std::vector<OmpObject> &objects);
  std::optional<OmpObject> parseOmpObject();
  void skipBalancedParens();

  // --- expressions ---
  Expr *parseExpr();           // includes comma operator
  Expr *parseAssignment();
  Expr *parseConditional();
  Expr *parseBinary(int minPrecedence);
  Expr *parseUnary();
  Expr *parsePostfix(Expr *base);
  Expr *parsePrimary();
  Expr *parseCastOrParen();

  // --- typing helpers ---
  const Type *arithmeticResultType(const Type *lhs, const Type *rhs) const;
  const Type *decayedType(const Type *type);
  const Type *builtinCallResultType(const std::string &name,
                                    const std::vector<Expr *> &args) const;
  std::optional<std::uint64_t> foldArrayExtent(Expr *expr,
                                               std::string &spelling);

  SourceLocation locAt(std::size_t tokenIndex) const;
  SourceRange rangeFrom(std::size_t beginTokenIndex) const;
  std::string textBetween(std::size_t beginOffset,
                          std::size_t endOffset) const;

  const SourceManager &sourceManager_;
  ASTContext &context_;
  DiagnosticEngine &diags_;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  unsigned depth_ = 0;
  bool tooDeep_ = false;
  std::vector<std::unordered_map<std::string, VarDecl *>> scopes_;
  std::unordered_map<std::string, RecordDecl *> recordsByName_;
  std::unordered_map<std::string, const Type *> typedefs_;
  FunctionDecl *currentFunction_ = nullptr;
};

/// Convenience wrapper: lex + parse `source`; returns false on error.
bool parseSource(const SourceManager &sourceManager, ASTContext &context,
                 DiagnosticEngine &diags);

} // namespace ompdart
