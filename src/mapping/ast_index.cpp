#include "mapping/ast_index.hpp"

#include <algorithm>

namespace ompdart {

namespace {

/// Sorts by key, keeping registration order among equal keys.
template <typename Entries> void sortByKey(Entries &entries) {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto &a, const auto &b) { return a.key < b.key; });
}

/// The first entry registered under `key`, or end.
template <typename Entries, typename Key>
auto firstWithKey(const Entries &entries, const Key &key) {
  auto it = std::lower_bound(
      entries.begin(), entries.end(), key,
      [](const auto &entry, const Key &k) { return entry.key < k; });
  return it != entries.end() && it->key == key ? it : entries.end();
}

} // namespace

AstIndex::AstIndex(const TranslationUnit &unit) : globals_(unit.globals) {
  for (VarDecl *var : unit.globals)
    registerVar(var);
  for (const FunctionDecl *fn : unit.functions) {
    currentFunction_ = fn;
    currentVars_ = &functionVars_[fn->name()];
    currentVars_->clear();
    for (VarDecl *param : fn->params())
      registerVar(param);
    visit(fn->body());
  }
  currentFunction_ = nullptr;
  currentVars_ = nullptr;
  sortByKey(stmts_);
  sortByKey(kernels_);
  sortByKey(vars_);
}

const Stmt *AstIndex::stmtAt(const ir::StmtAnchor &anchor,
                             const FunctionDecl *within) const {
  const auto it = firstWithKey(
      stmts_, std::make_pair(anchor.beginOffset, anchor.endOffset));
  if (it == stmts_.end())
    return nullptr;
  return within == nullptr || it->owner == within ? it->entity : nullptr;
}

const OmpDirectiveStmt *AstIndex::kernelByPragmaEnd(std::size_t offset) const {
  const auto it = firstWithKey(kernels_, offset);
  return it != kernels_.end() ? it->entity : nullptr;
}

VarDecl *AstIndex::resolve(const ir::Symbol &symbol,
                           const FunctionDecl *within) const {
  for (auto it = firstWithKey(vars_, symbol.declOffset);
       it != vars_.end() && it->key == symbol.declOffset; ++it) {
    if (it->entity->name() != symbol.name)
      continue;
    return within == nullptr || it->owner == nullptr || it->owner == within
               ? it->entity
               : nullptr;
  }
  return nullptr;
}

std::optional<std::map<std::string, VarDecl *>>
AstIndex::scopeOf(const std::string &function) const {
  auto it = functionVars_.find(function);
  if (it == functionVars_.end())
    return std::nullopt;
  std::map<std::string, VarDecl *> scope;
  for (VarDecl *var : globals_)
    scope[var->name()] = var;
  for (VarDecl *var : it->second)
    scope[var->name()] = var;
  return scope;
}

void AstIndex::registerVar(VarDecl *var) {
  // The planner's symbol identity: declaration-statement offset when known,
  // the variable's own range otherwise.
  const SourceRange range =
      var->declStmtRange().isValid() ? var->declStmtRange() : var->range();
  vars_.push_back({range.begin.offset, var, currentFunction_});
  if (currentVars_ != nullptr)
    currentVars_->push_back(var);
}

void AstIndex::visit(const Stmt *stmt) {
  if (stmt == nullptr)
    return;
  // Parents registered before children: on range collisions the outermost
  // statement wins. A statement without a valid range has no identity.
  if (stmt->range().isValid())
    stmts_.push_back(
        {{stmt->range().begin.offset, stmt->range().end.offset}, stmt,
         currentFunction_});
  switch (stmt->kind()) {
  case StmtKind::Compound:
    for (const Stmt *sub : static_cast<const CompoundStmt *>(stmt)->body())
      visit(sub);
    return;
  case StmtKind::Decl:
    for (VarDecl *var : static_cast<const DeclStmt *>(stmt)->decls())
      registerVar(var);
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
    kernels_.push_back(
        {directive->pragmaRange().end.offset, directive, currentFunction_});
    visit(directive->associated());
    return;
  }
  default:
    return;
  }
}

} // namespace ompdart
