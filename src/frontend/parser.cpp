#include "frontend/parser.hpp"

#include "frontend/const_fold.hpp"

#include <cassert>
#include <cstdlib>

namespace ompdart {

namespace {

/// C binary operator precedence (higher binds tighter). Assignment and the
/// conditional operator are handled separately (right associative).
int binaryPrecedence(TokenKind kind) {
  switch (kind) {
  case TokenKind::Star:
  case TokenKind::Slash:
  case TokenKind::Percent:
    return 10;
  case TokenKind::Plus:
  case TokenKind::Minus:
    return 9;
  case TokenKind::LessLess:
  case TokenKind::GreaterGreater:
    return 8;
  case TokenKind::Less:
  case TokenKind::Greater:
  case TokenKind::LessEqual:
  case TokenKind::GreaterEqual:
    return 7;
  case TokenKind::EqualEqual:
  case TokenKind::ExclaimEqual:
    return 6;
  case TokenKind::Amp:
    return 5;
  case TokenKind::Caret:
    return 4;
  case TokenKind::Pipe:
    return 3;
  case TokenKind::AmpAmp:
    return 2;
  case TokenKind::PipePipe:
    return 1;
  default:
    return -1;
  }
}

BinaryOp binaryOpFor(TokenKind kind) {
  switch (kind) {
  case TokenKind::Star:
    return BinaryOp::Mul;
  case TokenKind::Slash:
    return BinaryOp::Div;
  case TokenKind::Percent:
    return BinaryOp::Rem;
  case TokenKind::Plus:
    return BinaryOp::Add;
  case TokenKind::Minus:
    return BinaryOp::Sub;
  case TokenKind::LessLess:
    return BinaryOp::Shl;
  case TokenKind::GreaterGreater:
    return BinaryOp::Shr;
  case TokenKind::Less:
    return BinaryOp::LT;
  case TokenKind::Greater:
    return BinaryOp::GT;
  case TokenKind::LessEqual:
    return BinaryOp::LE;
  case TokenKind::GreaterEqual:
    return BinaryOp::GE;
  case TokenKind::EqualEqual:
    return BinaryOp::EQ;
  case TokenKind::ExclaimEqual:
    return BinaryOp::NE;
  case TokenKind::Amp:
    return BinaryOp::BitAnd;
  case TokenKind::Caret:
    return BinaryOp::BitXor;
  case TokenKind::Pipe:
    return BinaryOp::BitOr;
  case TokenKind::AmpAmp:
    return BinaryOp::LAnd;
  case TokenKind::PipePipe:
    return BinaryOp::LOr;
  default:
    return BinaryOp::Add;
  }
}

std::optional<BinaryOp> assignmentOpFor(TokenKind kind) {
  switch (kind) {
  case TokenKind::Equal:
    return BinaryOp::Assign;
  case TokenKind::StarEqual:
    return BinaryOp::MulAssign;
  case TokenKind::SlashEqual:
    return BinaryOp::DivAssign;
  case TokenKind::PercentEqual:
    return BinaryOp::RemAssign;
  case TokenKind::PlusEqual:
    return BinaryOp::AddAssign;
  case TokenKind::MinusEqual:
    return BinaryOp::SubAssign;
  case TokenKind::LessLessEqual:
    return BinaryOp::ShlAssign;
  case TokenKind::GreaterGreaterEqual:
    return BinaryOp::ShrAssign;
  case TokenKind::AmpEqual:
    return BinaryOp::AndAssign;
  case TokenKind::PipeEqual:
    return BinaryOp::OrAssign;
  case TokenKind::CaretEqual:
    return BinaryOp::XorAssign;
  default:
    return std::nullopt;
  }
}

} // namespace

class Parser::NestingScope {
public:
  explicit NestingScope(Parser &parser, unsigned levels = 1)
      : parser_(parser) {
    enter(levels);
  }
  ~NestingScope() { parser_.depth_ -= levels_; }
  NestingScope(const NestingScope &) = delete;
  NestingScope &operator=(const NestingScope &) = delete;

  /// One more level: an operator chain wraps the tree built so far.
  void deepen() { enter(1); }

private:
  void enter(unsigned levels) {
    levels_ += levels;
    parser_.depth_ += levels;
    if (parser_.depth_ > kMaxNestingDepth)
      parser_.abandonTooDeep();
  }

  Parser &parser_;
  unsigned levels_ = 0;
};

Parser::Parser(const SourceManager &sourceManager, ASTContext &context,
               DiagnosticEngine &diags)
    : sourceManager_(sourceManager), context_(context), diags_(diags) {
  Lexer lexer(sourceManager, diags);
  tokens_ = lexer.lexAll();
  scopes_.emplace_back(); // global scope
}

const Token &Parser::peekAhead(std::size_t n) const {
  const std::size_t index = pos_ + n;
  return index < tokens_.size() ? tokens_[index] : tokens_.back();
}

Token Parser::consume() {
  Token token = tokens_[pos_];
  if (pos_ + 1 < tokens_.size())
    ++pos_;
  return token;
}

bool Parser::accept(TokenKind kind) {
  if (check(kind)) {
    consume();
    return true;
  }
  return false;
}

bool Parser::expect(TokenKind kind, const char *context) {
  if (accept(kind))
    return true;
  error(std::string("expected ") + tokenKindName(kind) + " " + context +
        ", found '" + current().text + "'");
  return false;
}

void Parser::error(const std::string &message) {
  if (!tooDeep_)
    diags_.error(current().location, message);
}

void Parser::abandonTooDeep() {
  error("nesting exceeds the maximum depth of " +
        std::to_string(kMaxNestingDepth));
  tooDeep_ = true;
  pos_ = tokens_.size() - 1; // the Eof token: every enclosing parse unwinds
}

void Parser::skipToRecovery() {
  unsigned depth = 0;
  while (!check(TokenKind::Eof)) {
    const TokenKind kind = current().kind;
    if (depth == 0 && (kind == TokenKind::Semi || kind == TokenKind::RBrace)) {
      consume();
      return;
    }
    if (kind == TokenKind::LBrace)
      ++depth;
    else if (kind == TokenKind::RBrace && depth > 0)
      --depth;
    consume();
  }
}

void Parser::pushScope() { scopes_.emplace_back(); }

void Parser::popScope() {
  assert(scopes_.size() > 1);
  scopes_.pop_back();
}

VarDecl *Parser::lookup(const std::string &name) const {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    auto found = it->find(name);
    if (found != it->end())
      return found->second;
  }
  return nullptr;
}

void Parser::declare(VarDecl *var) { scopes_.back()[var->name()] = var; }

SourceLocation Parser::locAt(std::size_t tokenIndex) const {
  return tokens_[tokenIndex].location;
}

SourceRange Parser::rangeFrom(std::size_t beginTokenIndex) const {
  SourceLocation begin = tokens_[beginTokenIndex].location;
  // End is the end offset of the previously consumed token.
  const std::size_t lastIndex = pos_ == 0 ? 0 : pos_ - 1;
  SourceLocation end = tokens_[lastIndex].location;
  end.offset = tokens_[lastIndex].endOffset;
  return SourceRange(begin, end);
}

std::string Parser::textBetween(std::size_t beginOffset,
                                std::size_t endOffset) const {
  const std::string &text = sourceManager_.text();
  if (beginOffset >= text.size() || endOffset > text.size() ||
      beginOffset >= endOffset)
    return {};
  return text.substr(beginOffset, endOffset - beginOffset);
}

// ---------------------------------------------------------------------------
// Types & declarations
// ---------------------------------------------------------------------------

bool Parser::atTypeSpecifier() const {
  switch (current().kind) {
  case TokenKind::KwVoid:
  case TokenKind::KwBool:
  case TokenKind::KwChar:
  case TokenKind::KwShort:
  case TokenKind::KwInt:
  case TokenKind::KwLong:
  case TokenKind::KwFloat:
  case TokenKind::KwDouble:
  case TokenKind::KwUnsigned:
  case TokenKind::KwSigned:
  case TokenKind::KwConst:
  case TokenKind::KwStatic:
  case TokenKind::KwExtern:
  case TokenKind::KwStruct:
  case TokenKind::KwTypedef:
    return true;
  case TokenKind::Identifier:
    return typedefs_.count(current().text) > 0;
  default:
    return false;
  }
}

std::optional<Parser::DeclSpec> Parser::parseDeclSpec() {
  DeclSpec spec;
  bool sawUnsigned = false;
  bool sawSigned = false;
  int longCount = 0;
  std::optional<BuiltinKind> builtin;
  const Type *named = nullptr;

  while (true) {
    switch (current().kind) {
    case TokenKind::KwConst:
      spec.isConst = true;
      consume();
      continue;
    case TokenKind::KwStatic:
      spec.isStatic = true;
      consume();
      continue;
    case TokenKind::KwExtern:
      spec.isExtern = true;
      consume();
      continue;
    case TokenKind::KwTypedef:
      spec.isTypedef = true;
      consume();
      continue;
    case TokenKind::KwUnsigned:
      sawUnsigned = true;
      consume();
      continue;
    case TokenKind::KwSigned:
      sawSigned = true;
      consume();
      continue;
    case TokenKind::KwVoid:
      builtin = BuiltinKind::Void;
      consume();
      continue;
    case TokenKind::KwBool:
      builtin = BuiltinKind::Bool;
      consume();
      continue;
    case TokenKind::KwChar:
      builtin = BuiltinKind::Char;
      consume();
      continue;
    case TokenKind::KwShort:
      builtin = BuiltinKind::Short;
      consume();
      continue;
    case TokenKind::KwInt:
      if (!builtin)
        builtin = BuiltinKind::Int;
      consume();
      continue;
    case TokenKind::KwLong:
      ++longCount;
      consume();
      continue;
    case TokenKind::KwFloat:
      builtin = BuiltinKind::Float;
      consume();
      continue;
    case TokenKind::KwDouble:
      builtin = BuiltinKind::Double;
      consume();
      continue;
    case TokenKind::KwStruct: {
      consume();
      if (!check(TokenKind::Identifier)) {
        error("expected struct name");
        return std::nullopt;
      }
      const std::string name = consume().text;
      auto it = recordsByName_.find(name);
      RecordDecl *record = nullptr;
      if (it != recordsByName_.end()) {
        record = it->second;
      } else {
        record = context_.createRecord(name);
        recordsByName_[name] = record;
        context_.unit().records.push_back(record);
      }
      // Inline definition `struct X { ... }`.
      if (check(TokenKind::LBrace)) {
        consume();
        const NestingScope nesting(*this, kNestedLevels);
        while (!check(TokenKind::RBrace) && !check(TokenKind::Eof)) {
          auto fieldSpec = parseDeclSpec();
          if (!fieldSpec || fieldSpec->type == nullptr) {
            error("expected field type in struct definition");
            skipToRecovery();
            break;
          }
          do {
            bool pointeeConst = fieldSpec->isConst;
            const Type *fieldType =
                parseDeclaratorPointers(fieldSpec->type, pointeeConst);
            if (!check(TokenKind::Identifier)) {
              error("expected field name");
              break;
            }
            const std::string fieldName = consume().text;
            fieldType = parseArrayDimensions(fieldType);
            record->addField(fieldName, fieldType);
          } while (accept(TokenKind::Comma));
          expect(TokenKind::Semi, "after struct field");
        }
        expect(TokenKind::RBrace, "to close struct definition");
      }
      named = context_.types().recordOf(record);
      continue;
    }
    case TokenKind::Identifier: {
      if (!builtin && named == nullptr && longCount == 0 && !sawUnsigned &&
          !sawSigned) {
        auto it = typedefs_.find(current().text);
        if (it != typedefs_.end()) {
          named = it->second;
          consume();
          continue;
        }
      }
      break;
    }
    default:
      break;
    }
    break;
  }

  if (named != nullptr) {
    spec.type = named;
    return spec;
  }
  if (longCount > 0) {
    spec.type =
        context_.types().builtin(sawUnsigned ? BuiltinKind::ULong
                                             : BuiltinKind::Long);
    return spec;
  }
  if (sawUnsigned) {
    spec.type = context_.types().builtin(
        builtin.value_or(BuiltinKind::Int) == BuiltinKind::Char
            ? BuiltinKind::Char
            : BuiltinKind::UInt);
    return spec;
  }
  if (builtin) {
    spec.type = context_.types().builtin(*builtin);
    return spec;
  }
  if (sawSigned) {
    spec.type = context_.types().intType();
    return spec;
  }
  return std::nullopt;
}

const Type *Parser::parseDeclaratorPointers(const Type *base,
                                            bool pointeeConst) {
  const Type *type = base;
  while (accept(TokenKind::Star)) {
    type = context_.types().pointerTo(type, pointeeConst);
    pointeeConst = false;
    // `T * const p` — const applying to the pointer itself; note and skip.
    accept(TokenKind::KwConst);
  }
  return type;
}

const Type *Parser::parseArrayDimensions(const Type *base) {
  // Collect dimensions first so multi-dimensional arrays nest correctly
  // (int a[2][3] is array-2 of array-3 of int).
  std::vector<std::pair<std::optional<std::uint64_t>, std::string>> dims;
  while (check(TokenKind::LBracket)) {
    consume();
    if (accept(TokenKind::RBracket)) {
      dims.emplace_back(std::nullopt, "");
      continue;
    }
    const std::size_t beginOffset = current().location.offset;
    Expr *extentExpr = parseConditional();
    const std::size_t endOffset =
        pos_ > 0 ? tokens_[pos_ - 1].endOffset : beginOffset;
    std::string spelling = textBetween(beginOffset, endOffset);
    expect(TokenKind::RBracket, "to close array dimension");
    std::optional<std::uint64_t> extent;
    if (auto value = foldIntegerConstant(extentExpr); value && *value >= 0)
      extent = static_cast<std::uint64_t>(*value);
    dims.emplace_back(extent, std::move(spelling));
  }
  const Type *type = base;
  for (auto it = dims.rbegin(); it != dims.rend(); ++it)
    type = context_.types().arrayOf(type, it->first, it->second);
  return type;
}

bool Parser::parseTranslationUnit() {
  while (!check(TokenKind::Eof)) {
    parseTopLevel();
  }
  return !diags_.hasErrors();
}

void Parser::parseTopLevel() {
  if (check(TokenKind::PragmaOmp)) {
    // Top-level pragmas (e.g. declare target) are out of subset; skip line.
    while (!check(TokenKind::PragmaEnd) && !check(TokenKind::Eof))
      consume();
    accept(TokenKind::PragmaEnd);
    return;
  }
  if (check(TokenKind::Semi)) {
    consume();
    return;
  }
  auto spec = parseDeclSpec();
  if (!spec || spec->type == nullptr) {
    error("expected declaration at top level, found '" + current().text + "'");
    skipToRecovery();
    return;
  }
  if (spec->isTypedef) {
    // `typedef <type> Name;`
    bool pointeeConst = spec->isConst;
    const Type *type = parseDeclaratorPointers(spec->type, pointeeConst);
    if (!check(TokenKind::Identifier)) {
      error("expected typedef name");
      skipToRecovery();
      return;
    }
    const std::string name = consume().text;
    const Type *full = parseArrayDimensions(type);
    typedefs_[name] = full;
    expect(TokenKind::Semi, "after typedef");
    return;
  }
  if (check(TokenKind::Semi)) {
    // A bare `struct X {...};` definition.
    consume();
    return;
  }
  parseFunctionOrGlobal(*spec);
}

void Parser::parseFunctionOrGlobal(const DeclSpec &spec) {
  const std::size_t beginToken = pos_ == 0 ? 0 : pos_ - 1;
  (void)beginToken;
  while (true) {
    const std::size_t declBeginToken = pos_;
    bool pointeeConst = spec.isConst;
    const Type *declType = parseDeclaratorPointers(spec.type, pointeeConst);
    if (!check(TokenKind::Identifier)) {
      error("expected declarator name");
      skipToRecovery();
      return;
    }
    const std::string name = consume().text;

    if (check(TokenKind::LParen)) {
      FunctionDecl *fn = parseFunctionRest(spec, name, declType,
                                           locAt(declBeginToken).offset);
      (void)fn;
      return;
    }

    // Global variable. Redeclarations of one name unify onto a single
    // VarDecl (C linkage): an `extern` redeclaration after the definition
    // — or a definition after an `extern` declaration, as concatenated
    // multi-TU programs produce — must bind every reference to the same
    // object, not shadow it.
    const Type *varType = parseArrayDimensions(declType);
    VarDecl *existing = nullptr;
    for (VarDecl *global : context_.unit().globals) {
      if (global->name() == name) {
        existing = global;
        break;
      }
    }
    // `static` globals have internal linkage: in a concatenated multi-TU
    // program two same-named statics are distinct objects, so they never
    // unify (the later declaration shadows, as before).
    if (existing != nullptr && (existing->isStatic() || spec.isStatic))
      existing = nullptr;
    VarDecl *var = existing;
    if (var == nullptr) {
      var = context_.createVar(name, varType);
      var->setGlobal(true);
      var->setConst(spec.isConst && !varType->isPointer());
      var->setStatic(spec.isStatic);
      var->setExtern(spec.isExtern);
      var->setRange(rangeFrom(declBeginToken));
    } else {
      if (existing->isExtern() && !spec.isExtern) {
        // Definition after an extern declaration: the object gains
        // storage and the definition's type wins — unless adopting it
        // would lose an extent the declaration carried (`extern double
        // a[64];` then tentative `double a[];`).
        existing->setExtern(false);
        const auto *oldArray =
            dynamic_cast<const ArrayType *>(existing->type());
        const auto *newArray = dynamic_cast<const ArrayType *>(varType);
        const bool losesExtent = oldArray != nullptr &&
                                 newArray != nullptr &&
                                 oldArray->extent() && !newArray->extent();
        if (!losesExtent)
          existing->setType(varType);
      } else {
        // Any redeclaration may complete an array type (`extern double
        // a[];` then `extern double a[64];`): adopt the sized form so the
        // extent is never lost to declaration order.
        const auto *oldArray =
            dynamic_cast<const ArrayType *>(existing->type());
        const auto *newArray = dynamic_cast<const ArrayType *>(varType);
        if (oldArray != nullptr && newArray != nullptr &&
            !oldArray->extent() && newArray->extent())
          existing->setType(varType);
      }
    }
    if (accept(TokenKind::Equal)) {
      Expr *init = nullptr;
      if (check(TokenKind::LBrace)) {
        std::vector<Expr *> inits;
        consume();
        if (!check(TokenKind::RBrace)) {
          do {
            inits.push_back(parseAssignment());
          } while (accept(TokenKind::Comma));
        }
        expect(TokenKind::RBrace, "to close initializer list");
        init = context_.createExpr<InitListExpr>(std::move(inits), varType);
      } else {
        init = parseAssignment();
      }
      if (existing != nullptr && existing->init() != nullptr)
        diags_.warning(locAt(declBeginToken),
                       "redefinition of global '" + name + "'");
      else
        var->setInit(init);
    }
    declare(var);
    if (existing == nullptr) {
      context_.unit().globals.push_back(var);
      var->setDeclStmtRange(rangeFrom(declBeginToken));
    }
    if (accept(TokenKind::Comma))
      continue;
    expect(TokenKind::Semi, "after global variable declaration");
    return;
  }
}

FunctionDecl *Parser::parseFunctionRest(const DeclSpec &spec,
                                        const std::string &name,
                                        const Type *declType,
                                        std::size_t beginOffset) {
  expect(TokenKind::LParen, "after function name");
  pushScope();
  std::vector<VarDecl *> params;
  if (!check(TokenKind::RParen)) {
    if (check(TokenKind::KwVoid) && peekAhead().kind == TokenKind::RParen) {
      consume();
    } else {
      do {
        auto paramSpec = parseDeclSpec();
        if (!paramSpec || paramSpec->type == nullptr) {
          error("expected parameter type");
          break;
        }
        bool pointeeConst = paramSpec->isConst;
        const Type *paramType =
            parseDeclaratorPointers(paramSpec->type, pointeeConst);
        std::string paramName;
        if (check(TokenKind::Identifier))
          paramName = consume().text;
        // Array parameters decay to pointers: `int a[]` or `int a[N]`.
        if (check(TokenKind::LBracket)) {
          const Type *withDims = parseArrayDimensions(paramType);
          if (const auto *array = dynamic_cast<const ArrayType *>(withDims))
            paramType =
                context_.types().pointerTo(array->element(), paramSpec->isConst);
        }
        VarDecl *param = context_.createVar(paramName, paramType);
        param->setParam(true);
        param->setConst(paramSpec->isConst && !paramType->isPointer());
        declare(param);
        params.push_back(param);
      } while (accept(TokenKind::Comma));
    }
  }
  expect(TokenKind::RParen, "to close parameter list");

  FunctionDecl *fn = nullptr;
  if (FunctionDecl *existing = context_.unit().findFunction(name)) {
    fn = existing; // definition after prototype
  } else {
    fn = context_.createFunction(name, declType, params);
    context_.unit().functions.push_back(fn);
  }
  if (spec.isStatic)
    fn->setStatic(true);

  if (check(TokenKind::LBrace)) {
    if (fn->body() != nullptr)
      diags_.warning(current().location,
                     "redefinition of function '" + name + "'");
    FunctionDecl *previous = currentFunction_;
    currentFunction_ = fn;
    // The definition's parameter VarDecls are the ones the body references;
    // they replace any prototype parameters.
    fn->setParams(params);
    Stmt *body = parseCompound();
    fn->setBody(static_cast<CompoundStmt *>(body));
    currentFunction_ = previous;
  } else {
    expect(TokenKind::Semi, "after function prototype");
  }
  popScope();
  SourceLocation begin = sourceManager_.locationFor(beginOffset);
  SourceLocation end = tokens_[pos_ == 0 ? 0 : pos_ - 1].location;
  end.offset = tokens_[pos_ == 0 ? 0 : pos_ - 1].endOffset;
  fn->setRange(SourceRange(begin, end));
  return fn;
}

Stmt *Parser::parseDeclStmt() {
  const std::size_t beginToken = pos_;
  auto spec = parseDeclSpec();
  if (!spec || spec->type == nullptr) {
    error("expected declaration");
    skipToRecovery();
    return context_.createStmt<NullStmt>();
  }
  std::vector<VarDecl *> decls;
  do {
    VarDecl *var = parseInitDeclarator(*spec, /*isGlobal=*/false);
    if (var != nullptr)
      decls.push_back(var);
  } while (accept(TokenKind::Comma));
  expect(TokenKind::Semi, "after declaration");
  Stmt *stmt = context_.createStmt<DeclStmt>(std::move(decls));
  stmt->setRange(rangeFrom(beginToken));
  for (VarDecl *var :
       static_cast<DeclStmt *>(stmt)->decls())
    var->setDeclStmtRange(stmt->range());
  return stmt;
}

VarDecl *Parser::parseInitDeclarator(const DeclSpec &spec, bool isGlobal) {
  const std::size_t beginToken = pos_;
  bool pointeeConst = spec.isConst;
  const Type *type = parseDeclaratorPointers(spec.type, pointeeConst);
  if (!check(TokenKind::Identifier)) {
    error("expected variable name");
    return nullptr;
  }
  const std::string name = consume().text;
  type = parseArrayDimensions(type);
  VarDecl *var = context_.createVar(name, type);
  var->setGlobal(isGlobal);
  var->setConst(spec.isConst && !type->isPointer());
  var->setStatic(spec.isStatic);
  if (accept(TokenKind::Equal)) {
    if (check(TokenKind::LBrace)) {
      std::vector<Expr *> inits;
      consume();
      if (!check(TokenKind::RBrace)) {
        do {
          inits.push_back(parseAssignment());
        } while (accept(TokenKind::Comma));
      }
      expect(TokenKind::RBrace, "to close initializer list");
      var->setInit(context_.createExpr<InitListExpr>(std::move(inits), type));
    } else {
      var->setInit(parseAssignment());
    }
  }
  var->setRange(rangeFrom(beginToken));
  declare(var);
  return var;
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

Stmt *Parser::parseStmt() {
  const std::size_t beginToken = pos_;
  const NestingScope nesting(*this, kNestedLevels);
  switch (current().kind) {
  case TokenKind::LBrace:
    return parseCompound();
  case TokenKind::Semi: {
    consume();
    Stmt *stmt = context_.createStmt<NullStmt>();
    stmt->setRange(rangeFrom(beginToken));
    return stmt;
  }
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwFor:
    return parseFor();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwDo:
    return parseDo();
  case TokenKind::KwSwitch:
    return parseSwitch();
  case TokenKind::KwBreak: {
    consume();
    expect(TokenKind::Semi, "after break");
    Stmt *stmt = context_.createStmt<BreakStmt>();
    stmt->setRange(rangeFrom(beginToken));
    return stmt;
  }
  case TokenKind::KwContinue: {
    consume();
    expect(TokenKind::Semi, "after continue");
    Stmt *stmt = context_.createStmt<ContinueStmt>();
    stmt->setRange(rangeFrom(beginToken));
    return stmt;
  }
  case TokenKind::KwReturn:
    return parseReturn();
  case TokenKind::KwCase: {
    consume();
    Expr *value = parseConditional();
    expect(TokenKind::Colon, "after case value");
    Stmt *sub = parseStmt();
    Stmt *stmt = context_.createStmt<CaseStmt>(value, sub);
    stmt->setRange(rangeFrom(beginToken));
    return stmt;
  }
  case TokenKind::KwDefault: {
    consume();
    expect(TokenKind::Colon, "after default");
    Stmt *sub = parseStmt();
    Stmt *stmt = context_.createStmt<DefaultStmt>(sub);
    stmt->setRange(rangeFrom(beginToken));
    return stmt;
  }
  case TokenKind::PragmaOmp:
    return parseOmpDirective();
  default:
    break;
  }
  if (atTypeSpecifier())
    return parseDeclStmt();

  Expr *expr = parseExpr();
  expect(TokenKind::Semi, "after expression statement");
  Stmt *stmt = context_.createStmt<ExprStmt>(expr);
  stmt->setRange(rangeFrom(beginToken));
  return stmt;
}

Stmt *Parser::parseCompound() {
  const std::size_t beginToken = pos_;
  expect(TokenKind::LBrace, "to open block");
  pushScope();
  std::vector<Stmt *> body;
  while (!check(TokenKind::RBrace) && !check(TokenKind::Eof))
    body.push_back(parseStmt());
  expect(TokenKind::RBrace, "to close block");
  popScope();
  Stmt *stmt = context_.createStmt<CompoundStmt>(std::move(body));
  stmt->setRange(rangeFrom(beginToken));
  return stmt;
}

Stmt *Parser::parseIf() {
  const std::size_t beginToken = pos_;
  consume(); // if
  expect(TokenKind::LParen, "after 'if'");
  Expr *cond = parseExpr();
  expect(TokenKind::RParen, "to close if condition");
  Stmt *thenStmt = parseStmt();
  Stmt *elseStmt = nullptr;
  if (accept(TokenKind::KwElse))
    elseStmt = parseStmt();
  Stmt *stmt = context_.createStmt<IfStmt>(cond, thenStmt, elseStmt);
  stmt->setRange(rangeFrom(beginToken));
  return stmt;
}

Stmt *Parser::parseFor() {
  const std::size_t beginToken = pos_;
  consume(); // for
  expect(TokenKind::LParen, "after 'for'");
  pushScope();
  Stmt *init = nullptr;
  if (check(TokenKind::Semi)) {
    consume();
  } else if (atTypeSpecifier()) {
    init = parseDeclStmt();
  } else {
    Expr *initExpr = parseExpr();
    expect(TokenKind::Semi, "after for-init");
    init = context_.createStmt<ExprStmt>(initExpr);
  }
  Expr *cond = nullptr;
  if (!check(TokenKind::Semi))
    cond = parseExpr();
  expect(TokenKind::Semi, "after for-condition");
  Expr *inc = nullptr;
  if (!check(TokenKind::RParen))
    inc = parseExpr();
  expect(TokenKind::RParen, "to close for header");
  Stmt *body = parseStmt();
  popScope();
  Stmt *stmt = context_.createStmt<ForStmt>(init, cond, inc, body);
  stmt->setRange(rangeFrom(beginToken));
  return stmt;
}

Stmt *Parser::parseWhile() {
  const std::size_t beginToken = pos_;
  consume(); // while
  expect(TokenKind::LParen, "after 'while'");
  Expr *cond = parseExpr();
  expect(TokenKind::RParen, "to close while condition");
  Stmt *body = parseStmt();
  Stmt *stmt = context_.createStmt<WhileStmt>(cond, body);
  stmt->setRange(rangeFrom(beginToken));
  return stmt;
}

Stmt *Parser::parseDo() {
  const std::size_t beginToken = pos_;
  consume(); // do
  Stmt *body = parseStmt();
  expect(TokenKind::KwWhile, "after do body");
  expect(TokenKind::LParen, "after 'while'");
  Expr *cond = parseExpr();
  expect(TokenKind::RParen, "to close do-while condition");
  expect(TokenKind::Semi, "after do-while");
  Stmt *stmt = context_.createStmt<DoStmt>(body, cond);
  stmt->setRange(rangeFrom(beginToken));
  return stmt;
}

Stmt *Parser::parseSwitch() {
  const std::size_t beginToken = pos_;
  consume(); // switch
  expect(TokenKind::LParen, "after 'switch'");
  Expr *cond = parseExpr();
  expect(TokenKind::RParen, "to close switch condition");
  Stmt *body = parseStmt();
  Stmt *stmt = context_.createStmt<SwitchStmt>(cond, body);
  stmt->setRange(rangeFrom(beginToken));
  return stmt;
}

Stmt *Parser::parseReturn() {
  const std::size_t beginToken = pos_;
  consume(); // return
  Expr *value = nullptr;
  if (!check(TokenKind::Semi))
    value = parseExpr();
  expect(TokenKind::Semi, "after return");
  Stmt *stmt = context_.createStmt<ReturnStmt>(value);
  stmt->setRange(rangeFrom(beginToken));
  return stmt;
}

// ---------------------------------------------------------------------------
// OpenMP directives
// ---------------------------------------------------------------------------

std::optional<OmpDirectiveKind> Parser::parseOmpDirectiveName() {
  // Directive names are sequences of identifier-ish words; `for` arrives as
  // the KwFor keyword.
  auto word = [&]() -> std::string {
    if (check(TokenKind::KwFor)) {
      consume();
      return "for";
    }
    if (check(TokenKind::KwIf)) {
      // `if` can only be a clause here, never part of the name.
      return "";
    }
    if (check(TokenKind::Identifier)) {
      // Clause names stop the directive-name scan; handled by caller peek.
      return consume().text;
    }
    return "";
  };

  if (!check(TokenKind::Identifier))
    return std::nullopt;
  std::string first = consume().text;

  if (first == "parallel") {
    // host `parallel for`
    if (check(TokenKind::KwFor)) {
      consume();
      return OmpDirectiveKind::ParallelFor;
    }
    return std::nullopt;
  }
  if (first != "target")
    return std::nullopt;

  // Peek the next word without consuming clause names.
  auto peekWordIs = [&](const char *name) {
    return current().isIdentifier(name) ||
           (std::string(name) == "for" && check(TokenKind::KwFor));
  };

  if (peekWordIs("data")) {
    consume();
    return OmpDirectiveKind::TargetData;
  }
  if (peekWordIs("enter")) {
    consume();
    if (peekWordIs("data"))
      consume();
    return OmpDirectiveKind::TargetEnterData;
  }
  if (peekWordIs("exit")) {
    consume();
    if (peekWordIs("data"))
      consume();
    return OmpDirectiveKind::TargetExitData;
  }
  if (peekWordIs("update")) {
    consume();
    return OmpDirectiveKind::TargetUpdate;
  }
  if (peekWordIs("simd")) {
    consume();
    return OmpDirectiveKind::TargetSimd;
  }
  if (peekWordIs("parallel")) {
    consume();
    if (peekWordIs("for")) {
      consume();
      if (peekWordIs("simd")) {
        consume();
        return OmpDirectiveKind::TargetParallelForSimd;
      }
      return OmpDirectiveKind::TargetParallelFor;
    }
    if (peekWordIs("loop")) {
      consume();
      return OmpDirectiveKind::TargetParallelLoop;
    }
    return OmpDirectiveKind::TargetParallel;
  }
  if (peekWordIs("teams")) {
    consume();
    if (peekWordIs("distribute")) {
      consume();
      if (peekWordIs("parallel")) {
        consume();
        if (peekWordIs("for")) {
          consume();
          if (peekWordIs("simd")) {
            consume();
            return OmpDirectiveKind::TargetTeamsDistributeParallelForSimd;
          }
          return OmpDirectiveKind::TargetTeamsDistributeParallelFor;
        }
        return OmpDirectiveKind::TargetTeamsDistribute;
      }
      if (peekWordIs("simd")) {
        consume();
        return OmpDirectiveKind::TargetTeamsDistributeSimd;
      }
      return OmpDirectiveKind::TargetTeamsDistribute;
    }
    if (peekWordIs("loop")) {
      consume();
      return OmpDirectiveKind::TargetTeamsLoop;
    }
    return OmpDirectiveKind::TargetTeams;
  }
  (void)word;
  return OmpDirectiveKind::Target;
}

Stmt *Parser::parseOmpDirective() {
  const std::size_t pragmaToken = pos_;
  consume(); // PragmaOmp

  auto kind = parseOmpDirectiveName();
  if (!kind) {
    diags_.warning(tokens_[pragmaToken].location,
                   "ignoring unsupported OpenMP directive");
    while (!check(TokenKind::PragmaEnd) && !check(TokenKind::Eof))
      consume();
    accept(TokenKind::PragmaEnd);
    return parseStmt();
  }

  std::vector<OmpClause> clauses;
  parseOmpClauses(clauses, *kind);

  // Pragma range spans '#' through the last clause token (before PragmaEnd).
  SourceLocation pragmaBegin = tokens_[pragmaToken].location;
  const std::size_t lastTokenIndex = pos_ == 0 ? 0 : pos_ - 1;
  SourceLocation pragmaEnd = tokens_[lastTokenIndex].location;
  pragmaEnd.offset = tokens_[lastTokenIndex].endOffset;
  expect(TokenKind::PragmaEnd, "at end of OpenMP directive");

  Stmt *associated = nullptr;
  const bool standalone = *kind == OmpDirectiveKind::TargetUpdate ||
                          *kind == OmpDirectiveKind::TargetEnterData ||
                          *kind == OmpDirectiveKind::TargetExitData;
  if (!standalone)
    associated = parseStmt();

  auto *stmt = context_.createStmt<OmpDirectiveStmt>(
      *kind, std::move(clauses), associated,
      SourceRange(pragmaBegin, pragmaEnd));
  SourceLocation end =
      associated != nullptr ? associated->range().end : pragmaEnd;
  stmt->setRange(SourceRange(pragmaBegin, end));
  return stmt;
}

bool Parser::parseOmpClauses(std::vector<OmpClause> &clauses,
                             OmpDirectiveKind directive) {
  while (!check(TokenKind::PragmaEnd) && !check(TokenKind::Eof)) {
    // Clause name (identifier or keyword-like `if`).
    std::string name;
    if (check(TokenKind::Identifier))
      name = consume().text;
    else if (check(TokenKind::KwIf)) {
      consume();
      name = "if";
    } else {
      error("expected OpenMP clause name, found '" + current().text + "'");
      while (!check(TokenKind::PragmaEnd) && !check(TokenKind::Eof))
        consume();
      return false;
    }

    OmpClause clause;
    if (name == "map") {
      clause.kind = OmpClauseKind::Map;
      expect(TokenKind::LParen, "after map");
      clause.mapType = OmpMapType::ToFrom;
      // Optional map-type modifiers: `always`, `present`, `close`, each
      // followed by a comma, preceding the map type (OpenMP 5.2
      // map([map-type-modifier[,]]... map-type: list); the planner's
      // warm-callee pass emits `present`).
      while (check(TokenKind::Identifier) &&
             peekAhead().kind == TokenKind::Comma &&
             (current().text == "always" || current().text == "present" ||
              current().text == "close")) {
        const std::string modifier = consume().text;
        consume(); // ','
        if (modifier == "always")
          clause.modifiers.always = true;
        else if (modifier == "present")
          clause.modifiers.present = true;
        else
          clause.modifiers.close = true;
      }
      // Optional map-type prefix `to:`, `from:`, `tofrom:`, `alloc:`...
      if (check(TokenKind::Identifier) &&
          peekAhead().kind == TokenKind::Colon) {
        const std::string mapType = consume().text;
        consume(); // ':'
        if (mapType == "to")
          clause.mapType = OmpMapType::To;
        else if (mapType == "from")
          clause.mapType = OmpMapType::From;
        else if (mapType == "tofrom")
          clause.mapType = OmpMapType::ToFrom;
        else if (mapType == "alloc")
          clause.mapType = OmpMapType::Alloc;
        else if (mapType == "release")
          clause.mapType = OmpMapType::Release;
        else if (mapType == "delete")
          clause.mapType = OmpMapType::Delete;
        else
          error("unknown map type '" + mapType + "'");
      }
      parseOmpObjectList(clause.objects);
      expect(TokenKind::RParen, "to close map clause");
    } else if (name == "firstprivate" || name == "private" ||
               name == "shared") {
      clause.kind = name == "firstprivate" ? OmpClauseKind::FirstPrivate
                    : name == "private"    ? OmpClauseKind::Private
                                           : OmpClauseKind::Shared;
      expect(TokenKind::LParen, "after clause name");
      parseOmpObjectList(clause.objects);
      expect(TokenKind::RParen, "to close clause");
    } else if (name == "to" || name == "from") {
      // Motion clauses on `target update`.
      clause.kind =
          name == "to" ? OmpClauseKind::UpdateTo : OmpClauseKind::UpdateFrom;
      if (directive != OmpDirectiveKind::TargetUpdate)
        diags_.warning(current().location,
                       "'" + name + "' clause outside target update");
      expect(TokenKind::LParen, "after update direction");
      parseOmpObjectList(clause.objects);
      expect(TokenKind::RParen, "to close update clause");
    } else if (name == "reduction") {
      clause.kind = OmpClauseKind::Reduction;
      expect(TokenKind::LParen, "after reduction");
      // Operator token(s) up to ':'.
      std::string op;
      while (!check(TokenKind::Colon) && !check(TokenKind::PragmaEnd) &&
             !check(TokenKind::Eof))
        op += consume().text;
      clause.reductionOp = op;
      expect(TokenKind::Colon, "after reduction operator");
      parseOmpObjectList(clause.objects);
      expect(TokenKind::RParen, "to close reduction clause");
    } else if (name == "num_teams" || name == "thread_limit" ||
               name == "num_threads" || name == "collapse" ||
               name == "device" || name == "simdlen" || name == "if") {
      clause.kind = name == "num_teams"      ? OmpClauseKind::NumTeams
                    : name == "thread_limit" ? OmpClauseKind::ThreadLimit
                    : name == "num_threads"  ? OmpClauseKind::NumThreads
                    : name == "collapse"     ? OmpClauseKind::Collapse
                    : name == "device"       ? OmpClauseKind::Device
                    : name == "simdlen"      ? OmpClauseKind::Simdlen
                                             : OmpClauseKind::If;
      expect(TokenKind::LParen, "after clause name");
      clause.value = parseConditional();
      expect(TokenKind::RParen, "to close clause");
    } else if (name == "nowait") {
      clause.kind = OmpClauseKind::Nowait;
    } else if (name == "schedule" || name == "dist_schedule" ||
               name == "defaultmap" || name == "proc_bind" ||
               name == "order") {
      clause.kind =
          name == "defaultmap" ? OmpClauseKind::DefaultMap : OmpClauseKind::Schedule;
      if (check(TokenKind::LParen))
        skipBalancedParens();
    } else {
      diags_.warning(current().location,
                     "ignoring unknown OpenMP clause '" + name + "'");
      if (check(TokenKind::LParen))
        skipBalancedParens();
      continue;
    }
    clauses.push_back(std::move(clause));
  }
  return true;
}

void Parser::skipBalancedParens() {
  if (!accept(TokenKind::LParen))
    return;
  unsigned depth = 1;
  while (depth > 0 && !check(TokenKind::PragmaEnd) && !check(TokenKind::Eof)) {
    if (check(TokenKind::LParen))
      ++depth;
    else if (check(TokenKind::RParen))
      --depth;
    consume();
  }
}

bool Parser::parseOmpObjectList(std::vector<OmpObject> &objects) {
  do {
    auto object = parseOmpObject();
    if (!object)
      return false;
    objects.push_back(std::move(*object));
  } while (accept(TokenKind::Comma));
  return true;
}

std::optional<OmpObject> Parser::parseOmpObject() {
  if (!check(TokenKind::Identifier)) {
    error("expected variable in OpenMP clause");
    return std::nullopt;
  }
  const std::size_t beginToken = pos_;
  const Token nameToken = consume();
  OmpObject object;
  object.var = lookup(nameToken.text);
  if (object.var == nullptr)
    error("unknown variable '" + nameToken.text + "' in OpenMP clause");

  while (check(TokenKind::LBracket)) {
    consume();
    OmpArraySectionDim dim;
    if (!check(TokenKind::Colon))
      dim.lower = parseConditional();
    if (accept(TokenKind::Colon)) {
      if (!check(TokenKind::RBracket))
        dim.length = parseConditional();
      else if (dim.lower == nullptr) {
        // `[:]` — whole dimension; leave both null.
      }
    }
    expect(TokenKind::RBracket, "to close array section");
    object.sections.push_back(dim);
  }
  object.range = rangeFrom(beginToken);
  object.spelling =
      textBetween(object.range.begin.offset, object.range.end.offset);
  return object;
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

Expr *Parser::parseExpr() {
  Expr *expr = parseAssignment();
  NestingScope chain(*this, 0);
  while (check(TokenKind::Comma)) {
    chain.deepen();
    // Don't consume commas that belong to enclosing argument lists; the
    // grammar only reaches here inside parens/for-headers, where comma is
    // the sequencing operator.
    consume();
    Expr *rhs = parseAssignment();
    auto *combined = context_.createExpr<BinaryExpr>(BinaryOp::Comma, expr,
                                                     rhs, rhs->type());
    combined->setRange(SourceRange(expr->range().begin, rhs->range().end));
    expr = combined;
  }
  return expr;
}

Expr *Parser::parseAssignment() {
  Expr *lhs = parseConditional();
  const auto op = assignmentOpFor(current().kind);
  if (!op)
    return lhs;
  consume();
  const NestingScope nesting(*this);
  Expr *rhs = parseAssignment(); // right associative
  auto *expr = context_.createExpr<BinaryExpr>(*op, lhs, rhs, lhs->type());
  expr->setRange(SourceRange(lhs->range().begin, rhs->range().end));
  return expr;
}

Expr *Parser::parseConditional() {
  Expr *cond = parseBinary(1);
  if (!accept(TokenKind::Question))
    return cond;
  const NestingScope nesting(*this);
  Expr *trueExpr = parseAssignment();
  expect(TokenKind::Colon, "in conditional expression");
  Expr *falseExpr = parseConditional();
  auto *expr = context_.createExpr<ConditionalExpr>(
      cond, trueExpr, falseExpr,
      arithmeticResultType(trueExpr->type(), falseExpr->type()));
  expr->setRange(SourceRange(cond->range().begin, falseExpr->range().end));
  return expr;
}

Expr *Parser::parseBinary(int minPrecedence) {
  Expr *lhs = parseUnary();
  NestingScope chain(*this, 0);
  while (true) {
    const int precedence = binaryPrecedence(current().kind);
    if (precedence < minPrecedence)
      return lhs;
    const TokenKind opToken = current().kind;
    consume();
    chain.deepen();
    Expr *rhs = parseBinary(precedence + 1);
    const BinaryOp op = binaryOpFor(opToken);
    const Type *type = nullptr;
    switch (op) {
    case BinaryOp::LT:
    case BinaryOp::GT:
    case BinaryOp::LE:
    case BinaryOp::GE:
    case BinaryOp::EQ:
    case BinaryOp::NE:
    case BinaryOp::LAnd:
    case BinaryOp::LOr:
      type = context_.types().intType();
      break;
    default:
      type = arithmeticResultType(lhs->type(), rhs->type());
      break;
    }
    auto *expr = context_.createExpr<BinaryExpr>(op, lhs, rhs, type);
    expr->setRange(SourceRange(lhs->range().begin, rhs->range().end));
    lhs = expr;
  }
}

Expr *Parser::parseUnary() {
  const std::size_t beginToken = pos_;
  const NestingScope nesting(*this, kNestedLevels);
  switch (current().kind) {
  case TokenKind::Plus:
  case TokenKind::Minus:
  case TokenKind::Tilde:
  case TokenKind::Exclaim:
  case TokenKind::Star:
  case TokenKind::Amp:
  case TokenKind::PlusPlus:
  case TokenKind::MinusMinus: {
    const TokenKind opToken = consume().kind;
    Expr *operand = parseUnary();
    UnaryOp op = UnaryOp::Plus;
    const Type *type = operand->type();
    switch (opToken) {
    case TokenKind::Plus:
      op = UnaryOp::Plus;
      break;
    case TokenKind::Minus:
      op = UnaryOp::Minus;
      break;
    case TokenKind::Tilde:
      op = UnaryOp::Not;
      break;
    case TokenKind::Exclaim:
      op = UnaryOp::LNot;
      type = context_.types().intType();
      break;
    case TokenKind::Star: {
      op = UnaryOp::Deref;
      type = decayedType(operand->type());
      if (const auto *pointer = dynamic_cast<const PointerType *>(type))
        type = pointer->pointee();
      break;
    }
    case TokenKind::Amp:
      op = UnaryOp::AddrOf;
      type = context_.types().pointerTo(operand->type());
      break;
    case TokenKind::PlusPlus:
      op = UnaryOp::PreInc;
      break;
    case TokenKind::MinusMinus:
      op = UnaryOp::PreDec;
      break;
    default:
      break;
    }
    auto *expr = context_.createExpr<UnaryExpr>(op, operand, type);
    expr->setRange(rangeFrom(beginToken));
    return expr;
  }
  case TokenKind::KwSizeof: {
    consume();
    const Type *argument = nullptr;
    if (check(TokenKind::LParen) &&
        (peekAhead().kind == TokenKind::KwVoid ||
         peekAhead().kind == TokenKind::KwBool ||
         peekAhead().kind == TokenKind::KwChar ||
         peekAhead().kind == TokenKind::KwShort ||
         peekAhead().kind == TokenKind::KwInt ||
         peekAhead().kind == TokenKind::KwLong ||
         peekAhead().kind == TokenKind::KwFloat ||
         peekAhead().kind == TokenKind::KwDouble ||
         peekAhead().kind == TokenKind::KwUnsigned ||
         peekAhead().kind == TokenKind::KwSigned ||
         peekAhead().kind == TokenKind::KwStruct ||
         peekAhead().kind == TokenKind::KwConst ||
         (peekAhead().kind == TokenKind::Identifier &&
          typedefs_.count(peekAhead().text)))) {
      consume(); // '('
      auto spec = parseDeclSpec();
      const Type *type =
          spec && spec->type ? spec->type : context_.types().intType();
      bool pointeeConst = spec ? spec->isConst : false;
      type = parseDeclaratorPointers(type, pointeeConst);
      expect(TokenKind::RParen, "to close sizeof");
      argument = type;
    } else {
      Expr *operand = parseUnary();
      argument = operand->type();
    }
    auto *expr = context_.createExpr<SizeofExpr>(
        argument, context_.types().builtin(BuiltinKind::ULong));
    expr->setRange(rangeFrom(beginToken));
    return expr;
  }
  case TokenKind::LParen:
    return parsePostfix(parseCastOrParen());
  default:
    return parsePostfix(parsePrimary());
  }
}

Expr *Parser::parseCastOrParen() {
  const std::size_t beginToken = pos_;
  assert(check(TokenKind::LParen));
  // Lookahead: `(` type-specifier ... `)` is a cast.
  const Token &next = peekAhead();
  const bool looksLikeType =
      next.kind == TokenKind::KwVoid || next.kind == TokenKind::KwBool ||
      next.kind == TokenKind::KwChar || next.kind == TokenKind::KwShort ||
      next.kind == TokenKind::KwInt || next.kind == TokenKind::KwLong ||
      next.kind == TokenKind::KwFloat || next.kind == TokenKind::KwDouble ||
      next.kind == TokenKind::KwUnsigned || next.kind == TokenKind::KwSigned ||
      next.kind == TokenKind::KwStruct || next.kind == TokenKind::KwConst ||
      (next.kind == TokenKind::Identifier && typedefs_.count(next.text));
  if (looksLikeType) {
    consume(); // '('
    auto spec = parseDeclSpec();
    const Type *type =
        spec && spec->type ? spec->type : context_.types().intType();
    bool pointeeConst = spec ? spec->isConst : false;
    type = parseDeclaratorPointers(type, pointeeConst);
    expect(TokenKind::RParen, "to close cast");
    Expr *operand = parseUnary();
    auto *expr = context_.createExpr<CastExpr>(type, operand);
    expr->setRange(rangeFrom(beginToken));
    return expr;
  }
  consume(); // '('
  Expr *inner = parseExpr();
  expect(TokenKind::RParen, "to close parenthesized expression");
  auto *expr = context_.createExpr<ParenExpr>(inner);
  expr->setRange(rangeFrom(beginToken));
  return expr;
}

Expr *Parser::parsePostfix(Expr *base) {
  NestingScope chain(*this, 0);
  while (true) {
    const std::size_t beginOffset = base->range().begin.offset;
    switch (current().kind) {
    case TokenKind::LBracket: {
      consume();
      Expr *index = parseExpr();
      expect(TokenKind::RBracket, "to close subscript");
      const Type *elementType = context_.types().intType();
      const Type *baseType = base->type();
      if (const auto *array = dynamic_cast<const ArrayType *>(baseType))
        elementType = array->element();
      else if (const auto *pointer =
                   dynamic_cast<const PointerType *>(baseType))
        elementType = pointer->pointee();
      auto *expr =
          context_.createExpr<ArraySubscriptExpr>(base, index, elementType);
      (void)beginOffset;
      expr->setRange(
          SourceRange(base->range().begin,
                      tokens_[pos_ == 0 ? 0 : pos_ - 1].range().end));
      base = expr;
      chain.deepen();
      continue;
    }
    case TokenKind::LParen: {
      // Call: base must be a simple name.
      std::string calleeName;
      if (const auto *ref =
              dynamic_cast<const DeclRefExpr *>(ignoreParensAndCasts(base))) {
        calleeName = ref->decl() != nullptr ? ref->decl()->name() : "";
      }
      consume();
      std::vector<Expr *> args;
      if (!check(TokenKind::RParen)) {
        do {
          args.push_back(parseAssignment());
        } while (accept(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "to close call");
      FunctionDecl *callee = nullptr;
      const Type *resultType = nullptr;
      if (!calleeName.empty()) {
        callee = context_.unit().findFunction(calleeName);
        if (callee != nullptr)
          resultType = callee->returnType();
        else
          resultType = builtinCallResultType(calleeName, args);
      }
      if (resultType == nullptr)
        resultType = context_.types().intType();
      auto *expr = context_.createExpr<CallExpr>(calleeName, callee,
                                                 std::move(args), resultType);
      expr->setRange(
          SourceRange(base->range().begin,
                      tokens_[pos_ == 0 ? 0 : pos_ - 1].range().end));
      base = expr;
      chain.deepen();
      continue;
    }
    case TokenKind::Dot:
    case TokenKind::Arrow: {
      const bool isArrow = current().kind == TokenKind::Arrow;
      consume();
      if (!check(TokenKind::Identifier)) {
        error("expected member name");
        return base;
      }
      const std::string member = consume().text;
      const Type *memberType = context_.types().intType();
      const Type *recordType = base->type();
      if (isArrow) {
        if (const auto *pointer =
                dynamic_cast<const PointerType *>(recordType))
          recordType = pointer->pointee();
      }
      if (const auto *record =
              dynamic_cast<const RecordType *>(recordType)) {
        if (const FieldDecl *field = record->decl()->findField(member))
          memberType = field->type;
        else
          error("no field '" + member + "' in " + record->spelling());
      }
      auto *expr =
          context_.createExpr<MemberExpr>(base, member, isArrow, memberType);
      expr->setRange(
          SourceRange(base->range().begin,
                      tokens_[pos_ == 0 ? 0 : pos_ - 1].range().end));
      base = expr;
      chain.deepen();
      continue;
    }
    case TokenKind::PlusPlus:
    case TokenKind::MinusMinus: {
      const UnaryOp op = current().kind == TokenKind::PlusPlus
                             ? UnaryOp::PostInc
                             : UnaryOp::PostDec;
      consume();
      auto *expr = context_.createExpr<UnaryExpr>(op, base, base->type());
      expr->setRange(
          SourceRange(base->range().begin,
                      tokens_[pos_ == 0 ? 0 : pos_ - 1].range().end));
      base = expr;
      chain.deepen();
      continue;
    }
    default:
      return base;
    }
  }
}

Expr *Parser::parsePrimary() {
  const std::size_t beginToken = pos_;
  switch (current().kind) {
  case TokenKind::IntLiteral: {
    const Token token = consume();
    const std::int64_t value = std::strtoll(token.text.c_str(), nullptr, 0);
    auto *expr = context_.createExpr<IntLiteralExpr>(
        value, context_.types().intType());
    expr->setRange(rangeFrom(beginToken));
    return expr;
  }
  case TokenKind::FloatLiteral: {
    const Token token = consume();
    const double value = std::strtod(token.text.c_str(), nullptr);
    const bool isFloat = token.text.find('f') != std::string::npos ||
                         token.text.find('F') != std::string::npos;
    auto *expr = context_.createExpr<FloatLiteralExpr>(
        value, context_.types().builtin(isFloat ? BuiltinKind::Float
                                                : BuiltinKind::Double));
    expr->setRange(rangeFrom(beginToken));
    return expr;
  }
  case TokenKind::CharLiteral: {
    const Token token = consume();
    auto *expr = context_.createExpr<CharLiteralExpr>(
        token.text.empty() ? '\0' : token.text[0],
        context_.types().builtin(BuiltinKind::Char));
    expr->setRange(rangeFrom(beginToken));
    return expr;
  }
  case TokenKind::StringLiteral: {
    const Token token = consume();
    auto *expr = context_.createExpr<StringLiteralExpr>(
        token.text, context_.types().pointerTo(
                        context_.types().builtin(BuiltinKind::Char), true));
    expr->setRange(rangeFrom(beginToken));
    return expr;
  }
  case TokenKind::Identifier: {
    const Token token = consume();
    VarDecl *decl = lookup(token.text);
    const Type *type = nullptr;
    if (decl != nullptr) {
      type = decl->type();
    } else if (context_.unit().findFunction(token.text) != nullptr ||
               builtinCallResultType(token.text, {}) != nullptr ||
               check(TokenKind::LParen)) {
      // Function name in call position: modeled as an untyped DeclRef with a
      // synthetic VarDecl so parsePostfix can recover the name.
      type = context_.types().intType();
      decl = context_.createVar(token.text, type);
    } else {
      error("use of undeclared identifier '" + token.text + "'");
      type = context_.types().intType();
      decl = context_.createVar(token.text, type);
      declare(decl); // avoid cascading errors
    }
    auto *expr = context_.createExpr<DeclRefExpr>(decl, type);
    expr->setRange(rangeFrom(beginToken));
    return expr;
  }
  default:
    error("expected expression, found '" + current().text + "'");
    consume();
    auto *expr = context_.createExpr<IntLiteralExpr>(
        0, context_.types().intType());
    expr->setRange(rangeFrom(beginToken));
    return expr;
  }
}

// ---------------------------------------------------------------------------
// Typing helpers
// ---------------------------------------------------------------------------

const Type *Parser::arithmeticResultType(const Type *lhs,
                                         const Type *rhs) const {
  if (lhs == nullptr)
    return rhs;
  if (rhs == nullptr)
    return lhs;
  // Pointer arithmetic keeps the pointer type.
  if (lhs->isPointer() || lhs->isArray())
    return lhs;
  if (rhs->isPointer() || rhs->isArray())
    return rhs;
  auto rank = [](const Type *type) {
    const auto *builtin = dynamic_cast<const BuiltinType *>(type);
    if (builtin == nullptr)
      return 0;
    switch (builtin->builtinKind()) {
    case BuiltinKind::Double:
      return 7;
    case BuiltinKind::Float:
      return 6;
    case BuiltinKind::ULong:
      return 5;
    case BuiltinKind::Long:
      return 4;
    case BuiltinKind::UInt:
      return 3;
    case BuiltinKind::Int:
      return 2;
    default:
      return 1;
    }
  };
  return rank(lhs) >= rank(rhs) ? lhs : rhs;
}

const Type *Parser::decayedType(const Type *type) {
  if (const auto *array = dynamic_cast<const ArrayType *>(type))
    return context_.types().pointerTo(array->element());
  return type;
}

const Type *Parser::builtinCallResultType(
    const std::string &name, const std::vector<Expr *> &args) const {
  (void)args;
  auto &types = const_cast<TypeContext &>(context_.types());
  if (name == "exp" || name == "sqrt" || name == "fabs" || name == "pow" ||
      name == "log" || name == "sin" || name == "cos" || name == "tan" ||
      name == "floor" || name == "ceil" || name == "fmin" || name == "fmax" ||
      name == "atan" || name == "log2" || name == "cbrt")
    return types.doubleType();
  if (name == "expf" || name == "sqrtf" || name == "fabsf" || name == "powf" ||
      name == "logf" || name == "sinf" || name == "cosf" || name == "fminf" ||
      name == "fmaxf")
    return types.builtin(BuiltinKind::Float);
  if (name == "malloc" || name == "calloc")
    return types.pointerTo(types.voidType());
  if (name == "free" || name == "srand" || name == "memset" ||
      name == "memcpy" || name == "exit")
    return types.voidType();
  if (name == "printf" || name == "rand" || name == "abs" || name == "atoi")
    return types.intType();
  return nullptr;
}

std::optional<std::uint64_t> Parser::foldArrayExtent(Expr *expr,
                                                     std::string &spelling) {
  spelling.clear();
  if (auto value = foldIntegerConstant(expr); value && *value >= 0)
    return static_cast<std::uint64_t>(*value);
  return std::nullopt;
}

bool parseSource(const SourceManager &sourceManager, ASTContext &context,
                 DiagnosticEngine &diags) {
  Parser parser(sourceManager, context, diags);
  return parser.parseTranslationUnit();
}

} // namespace ompdart
