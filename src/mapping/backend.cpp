#include "mapping/backend.hpp"

#include "rewrite/rewriter.hpp"

#include <cctype>
#include <map>
#include <set>

namespace ompdart {

// ---------------------------------------------------------------------------
// SourceRewriteBackend / JsonBackend
// ---------------------------------------------------------------------------

bool SourceRewriteBackend::consume(const PlanConsumerInput &input) {
  if (input.ir == nullptr)
    return fail("source-rewrite backend needs a Mapping IR");
  if (input.source == nullptr)
    return fail("source-rewrite backend needs the original source buffer");
  transformed_ = applyMappingIr(*input.source, *input.ir);
  return true;
}

bool JsonBackend::consume(const PlanConsumerInput &input) {
  if (input.ir == nullptr)
    return fail("json backend needs a Mapping IR");
  value_ = input.ir->toJson();
  return true;
}

// ---------------------------------------------------------------------------
// ApplyToInterpBackend: IR -> AST resolution
// ---------------------------------------------------------------------------

namespace {

/// Index of the parsed unit keyed by the stable identities the IR records:
/// statement source ranges, kernel pragma-end offsets, and variable
/// declaration offsets. Also collects per-function name scopes for extent
/// expression resolution.
class AstIndex {
public:
  explicit AstIndex(const TranslationUnit &unit) {
    for (VarDecl *var : unit.globals) {
      registerVar(var);
      globalScope_[var->name()] = var;
    }
    for (const FunctionDecl *fn : unit.functions) {
      auto &scope = scopes_[fn->name()];
      scope = globalScope_;
      for (VarDecl *param : fn->params()) {
        registerVar(param);
        scope[param->name()] = param;
      }
      currentScope_ = &scope;
      visit(fn->body());
      currentScope_ = nullptr;
    }
  }

  [[nodiscard]] const Stmt *stmtAt(std::size_t beginOffset,
                                   std::size_t endOffset) const {
    auto it = stmtsByRange_.find({beginOffset, endOffset});
    return it != stmtsByRange_.end() ? it->second : nullptr;
  }

  [[nodiscard]] const OmpDirectiveStmt *
  kernelByPragmaEnd(std::size_t offset) const {
    auto it = kernelsByPragmaEnd_.find(offset);
    return it != kernelsByPragmaEnd_.end() ? it->second : nullptr;
  }

  [[nodiscard]] VarDecl *resolve(const ir::Symbol &symbol) const {
    auto it = varsByNameAndOffset_.find({symbol.name, symbol.declOffset});
    return it != varsByNameAndOffset_.end() ? it->second : nullptr;
  }

  /// Name scope of one function (globals + params + locals), for resolving
  /// symbolic extent spellings like "n" or "nb * hid".
  [[nodiscard]] const std::map<std::string, VarDecl *> *
  scopeOf(const std::string &function) const {
    auto it = scopes_.find(function);
    return it != scopes_.end() ? &it->second : nullptr;
  }

private:
  void registerVar(VarDecl *var) {
    // Mirror of the planner's symbol identity: declaration-statement offset
    // when known, the variable's own range otherwise.
    const SourceRange range =
        var->declStmtRange().isValid() ? var->declStmtRange() : var->range();
    varsByNameAndOffset_.emplace(
        std::make_pair(var->name(), range.begin.offset), var);
  }

  void visit(const Stmt *stmt) {
    if (stmt == nullptr)
      return;
    // Parents registered before children: on range collisions the outermost
    // statement wins, which is what region/update anchors reference.
    stmtsByRange_.emplace(
        std::make_pair(stmt->range().begin.offset, stmt->range().end.offset),
        stmt);
    switch (stmt->kind()) {
    case StmtKind::Compound:
      for (const Stmt *sub : static_cast<const CompoundStmt *>(stmt)->body())
        visit(sub);
      return;
    case StmtKind::Decl:
      if (currentScope_ != nullptr) {
        for (VarDecl *var :
             static_cast<const DeclStmt *>(stmt)->decls()) {
          registerVar(var);
          (*currentScope_)[var->name()] = var;
        }
      }
      return;
    case StmtKind::If: {
      const auto *ifStmt = static_cast<const IfStmt *>(stmt);
      visit(ifStmt->thenStmt());
      visit(ifStmt->elseStmt());
      return;
    }
    case StmtKind::For: {
      const auto *forStmt = static_cast<const ForStmt *>(stmt);
      visit(forStmt->init());
      visit(forStmt->body());
      return;
    }
    case StmtKind::While:
      visit(static_cast<const WhileStmt *>(stmt)->body());
      return;
    case StmtKind::Do:
      visit(static_cast<const DoStmt *>(stmt)->body());
      return;
    case StmtKind::Switch:
      visit(static_cast<const SwitchStmt *>(stmt)->body());
      return;
    case StmtKind::Case:
      visit(static_cast<const CaseStmt *>(stmt)->sub());
      return;
    case StmtKind::Default:
      visit(static_cast<const DefaultStmt *>(stmt)->sub());
      return;
    case StmtKind::OmpDirective: {
      const auto *directive = static_cast<const OmpDirectiveStmt *>(stmt);
      kernelsByPragmaEnd_.emplace(directive->pragmaRange().end.offset,
                                  directive);
      visit(directive->associated());
      return;
    }
    default:
      return;
    }
  }

  std::map<std::pair<std::size_t, std::size_t>, const Stmt *> stmtsByRange_;
  std::map<std::size_t, const OmpDirectiveStmt *> kernelsByPragmaEnd_;
  std::map<std::pair<std::string, std::size_t>, VarDecl *>
      varsByNameAndOffset_;
  std::map<std::string, VarDecl *> globalScope_;
  std::map<std::string, std::map<std::string, VarDecl *>> scopes_;
  std::map<std::string, VarDecl *> *currentScope_ = nullptr;
};

/// Recursive-descent parser for IR extent spellings: integer literals,
/// identifiers resolved in the region function's scope, + - * / % and
/// parentheses — the shapes `exprToSource` produces for loop bounds and
/// malloc extents. Nodes are created in the backend's scratch arena.
class ExtentExprParser {
public:
  ExtentExprParser(const std::string &text,
                   const std::map<std::string, VarDecl *> &scope,
                   ASTContext &scratch)
      : text_(text), scope_(scope), scratch_(scratch) {}

  /// Null on any token/semantic failure (caller falls back to whole-object).
  [[nodiscard]] Expr *parse() {
    Expr *expr = parseAdditive();
    skipSpace();
    return pos_ == text_.size() ? expr : nullptr;
  }

private:
  void skipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  [[nodiscard]] bool eat(char c) {
    skipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Expr *parseAdditive() {
    Expr *lhs = parseMultiplicative();
    while (lhs != nullptr) {
      if (eat('+'))
        lhs = combine(BinaryOp::Add, lhs, parseMultiplicative());
      else if (eat('-'))
        lhs = combine(BinaryOp::Sub, lhs, parseMultiplicative());
      else
        break;
    }
    return lhs;
  }

  Expr *parseMultiplicative() {
    Expr *lhs = parseFactor();
    while (lhs != nullptr) {
      if (eat('*'))
        lhs = combine(BinaryOp::Mul, lhs, parseFactor());
      else if (eat('/'))
        lhs = combine(BinaryOp::Div, lhs, parseFactor());
      else if (eat('%'))
        lhs = combine(BinaryOp::Rem, lhs, parseFactor());
      else
        break;
    }
    return lhs;
  }

  Expr *combine(BinaryOp op, Expr *lhs, Expr *rhs) {
    if (lhs == nullptr || rhs == nullptr)
      return nullptr;
    return scratch_.createExpr<BinaryExpr>(op, lhs, rhs,
                                           scratch_.types().intType());
  }

  Expr *parseFactor() {
    skipSpace();
    if (eat('(')) {
      Expr *inner = parseAdditive();
      if (inner == nullptr || !eat(')'))
        return nullptr;
      return inner;
    }
    if (pos_ < text_.size() &&
        std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      std::int64_t value = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        value = value * 10 + (text_[pos_++] - '0');
      return scratch_.createExpr<IntLiteralExpr>(value,
                                                 scratch_.types().intType());
    }
    if (pos_ < text_.size() &&
        (std::isalpha(static_cast<unsigned char>(text_[pos_])) ||
         text_[pos_] == '_')) {
      std::string name;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_'))
        name.push_back(text_[pos_++]);
      auto it = scope_.find(name);
      if (it == scope_.end())
        return nullptr;
      return scratch_.createExpr<DeclRefExpr>(it->second,
                                              it->second->type());
    }
    return nullptr;
  }

  const std::string &text_;
  const std::map<std::string, VarDecl *> &scope_;
  ASTContext &scratch_;
  std::size_t pos_ = 0;
};

} // namespace

bool ApplyToInterpBackend::consume(const PlanConsumerInput &input) {
  if (input.ir == nullptr)
    return fail("apply-to-interp backend needs a Mapping IR");
  if (input.unit == nullptr)
    return fail("apply-to-interp backend needs the parsed unit");
  const ir::MappingIr &ir = *input.ir;
  const TranslationUnit &unit = *input.unit;
  AstIndex index(unit);

  overlay_ = interp::PlanOverlay{};

  auto resolveVar = [&](ir::SymbolId id, const char *what) -> VarDecl * {
    const ir::Symbol *symbol = ir.symbol(id);
    if (symbol == nullptr) {
      fail(std::string("IR references an unknown symbol in ") + what);
      return nullptr;
    }
    VarDecl *var = index.resolve(*symbol);
    if (var == nullptr)
      fail("cannot resolve symbol '" + symbol->name +
           "' against the parsed unit");
    return var;
  };

  auto makeObject = [&](VarDecl *var, const std::string &item,
                        const ir::Extent &extent,
                        const std::map<std::string, VarDecl *> *scope)
      -> OmpObject {
    OmpObject object;
    object.var = var;
    object.spelling = item;
    Expr *length = nullptr;
    switch (extent.kind) {
    case ir::Extent::Kind::Whole:
      break; // no section: map the whole object
    case ir::Extent::Kind::Const:
      length = scratch_.createExpr<IntLiteralExpr>(
          static_cast<std::int64_t>(extent.constElems),
          scratch_.types().intType());
      break;
    case ir::Extent::Kind::Expr:
      if (scope != nullptr) {
        ExtentExprParser parser(extent.expr, *scope, scratch_);
        length = parser.parse();
      }
      break; // unresolvable spellings fall back to whole-object
    }
    if (length != nullptr) {
      OmpArraySectionDim dim;
      dim.lower = scratch_.createExpr<IntLiteralExpr>(
          0, scratch_.types().intType());
      dim.length = length;
      object.sections.push_back(dim);
    }
    return object;
  };

  for (const ir::Region &region : ir.regions) {
    const auto *scope = index.scopeOf(region.function);
    interp::PlanOverlay::Region out;
    if (region.appendsToKernel) {
      out.soleKernel =
          index.kernelByPragmaEnd(region.soleKernelPragmaEndOffset);
      if (out.soleKernel == nullptr)
        return fail("cannot resolve the sole kernel of region '" +
                    region.function + "'");
    } else {
      out.startStmt =
          index.stmtAt(region.start.beginOffset, region.start.endOffset);
      out.endStmt =
          index.stmtAt(region.end.beginOffset, region.end.endOffset);
      if (out.startStmt == nullptr || out.endStmt == nullptr)
        return fail("cannot resolve the extent of region '" +
                    region.function + "'");
    }
    for (const ir::MapItem &map : region.maps) {
      VarDecl *var = resolveVar(map.symbol, "a map clause");
      if (var == nullptr)
        return false;
      interp::PlanOverlay::MapEntry entry;
      entry.object = makeObject(var, map.item, map.extent, scope);
      switch (map.type) {
      case ir::MapType::Alloc:
        entry.mapType = OmpMapType::Alloc;
        break;
      case ir::MapType::To:
        entry.mapType = OmpMapType::To;
        break;
      case ir::MapType::From:
        entry.mapType = OmpMapType::From;
        break;
      case ir::MapType::ToFrom:
        entry.mapType = OmpMapType::ToFrom;
        break;
      case ir::MapType::Release:
        entry.mapType = OmpMapType::Release;
        break;
      case ir::MapType::Delete:
        entry.mapType = OmpMapType::Delete;
        break;
      }
      out.maps.push_back(std::move(entry));
    }

    // Updates consolidate per insertion point in rewritten source (one
    // directive, deduped items); mirror that dedupe so the overlay issues
    // the same number of copies. The insertion offset is computable only
    // with the source buffer; fall back to the anchor itself without one.
    std::set<std::tuple<std::size_t, int, std::string>> seenPoints;
    for (const ir::UpdateItem &update : region.updates) {
      const std::size_t point =
          input.source != nullptr
              ? updateInsertionOffset(*input.source, update)
              : update.anchor.beginOffset;
      if (!seenPoints
               .insert({point, static_cast<int>(update.direction),
                        update.item})
               .second)
        continue;
      VarDecl *var = resolveVar(update.symbol, "an update directive");
      if (var == nullptr)
        return false;
      interp::PlanOverlay::Update out_update;
      out_update.anchor =
          index.stmtAt(update.anchor.beginOffset, update.anchor.endOffset);
      if (out_update.anchor == nullptr)
        return fail("cannot resolve the anchor of an update on '" +
                    var->name() + "'");
      out_update.toDevice = update.direction == ir::UpdateDirection::To;
      out_update.placement = update.placement;
      out_update.object = makeObject(var, update.item, update.extent, scope);
      overlay_.updates.push_back(std::move(out_update));
    }

    for (const ir::FirstprivateItem &fp : region.firstprivates) {
      VarDecl *var = resolveVar(fp.symbol, "a firstprivate clause");
      if (var == nullptr)
        return false;
      interp::PlanOverlay::Firstprivate out_fp;
      out_fp.kernel = index.kernelByPragmaEnd(fp.kernelPragmaEndOffset);
      if (out_fp.kernel == nullptr)
        return fail("cannot resolve the kernel of firstprivate '" +
                    var->name() + "'");
      out_fp.var = var;
      overlay_.firstprivates.push_back(out_fp);
    }

    overlay_.regions.push_back(std::move(out));
  }

  interp::Interpreter interpreter(unit, options_, &overlay_);
  result_ = interpreter.run();
  return true;
}

} // namespace ompdart
