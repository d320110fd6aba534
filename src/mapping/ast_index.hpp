// IR -> AST resolution: an index of a parsed unit keyed by the stable
// identities the Mapping IR records (statement source ranges, kernel
// pragma-end offsets, variable declaration offsets). The interpreter
// backend and the plan-safety checker both resolve IR against the unit
// through it; build it once per unit.
#pragma once

#include "frontend/ast.hpp"
#include "mapping/ir.hpp"

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ompdart {

class AstIndex {
public:
  explicit AstIndex(const TranslationUnit &unit);

  /// The statement spanning exactly the anchor's range; the outermost one
  /// on range collisions, which is what region and update anchors
  /// reference. With `within`, only a statement of that function's body.
  [[nodiscard]] const Stmt *stmtAt(const ir::StmtAnchor &anchor,
                                   const FunctionDecl *within = nullptr) const;

  [[nodiscard]] const OmpDirectiveStmt *
  kernelByPragmaEnd(std::size_t offset) const;

  /// The variable a symbol names. With `within`, only a global or a
  /// parameter or local of that function.
  [[nodiscard]] VarDecl *resolve(const ir::Symbol &symbol,
                                 const FunctionDecl *within = nullptr) const;

  /// Name scope of one function (globals, then params and locals in
  /// declaration order, a later name shadowing an earlier one), for
  /// resolving symbolic extent spellings like "n" or "nb * hid". Nullopt
  /// for an unknown function.
  [[nodiscard]] std::optional<std::map<std::string, VarDecl *>>
  scopeOf(const std::string &function) const;

private:
  /// An indexed entity with the function that owns it (null for globals).
  template <typename Key, typename Entity> struct Entry {
    Key key;
    Entity *entity;
    const FunctionDecl *owner;
  };

  void registerVar(VarDecl *var);
  void visit(const Stmt *stmt);

  // Sorted by key once built; entries with equal keys keep registration
  // order, so a lookup finds the first one registered.
  std::vector<Entry<std::pair<std::size_t, std::size_t>, const Stmt>> stmts_;
  std::vector<Entry<std::size_t, const OmpDirectiveStmt>> kernels_;
  /// Keyed by declaration offset; the name is compared on lookup.
  std::vector<Entry<std::size_t, VarDecl>> vars_;
  std::vector<VarDecl *> globals_;
  /// Params then locals per function name (of the last function so named).
  std::map<std::string, std::vector<VarDecl *>> functionVars_;
  const FunctionDecl *currentFunction_ = nullptr;
  std::vector<VarDecl *> *currentVars_ = nullptr;
};

} // namespace ompdart
