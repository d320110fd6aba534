#include "gen/shrink.hpp"

#include "frontend/ast.hpp"
#include "frontend/parser.hpp"
#include "support/diagnostics.hpp"
#include "support/source_manager.hpp"

#include <algorithm>
#include <memory>
#include <vector>

namespace ompdart::gen {

namespace {

/// Collects deletable source ranges: every statement reachable from a
/// compound body plus whole non-main function definitions. Ranges come
/// back largest-first so the greedy pass tries the biggest cut available.
class DeletableRangeCollector {
public:
  void function(const FunctionDecl *fn) {
    if (fn->body() == nullptr)
      return;
    if (fn->name() != "main" && fn->range().isValid())
      add(fn->range());
    stmt(fn->body());
  }

  [[nodiscard]] std::vector<SourceRange> take() {
    std::sort(ranges_.begin(), ranges_.end(),
              [](const SourceRange &a, const SourceRange &b) {
                const std::size_t lenA = a.end.offset - a.begin.offset;
                const std::size_t lenB = b.end.offset - b.begin.offset;
                if (lenA != lenB)
                  return lenA > lenB;
                return a.begin.offset < b.begin.offset;
              });
    return std::move(ranges_);
  }

private:
  void add(SourceRange range) {
    if (range.isValid() && range.end.offset > range.begin.offset)
      ranges_.push_back(range);
  }

  void stmt(const Stmt *s) {
    if (s == nullptr)
      return;
    switch (s->kind()) {
    case StmtKind::Compound:
      for (const Stmt *child : static_cast<const CompoundStmt *>(s)->body()) {
        if (child->kind() != StmtKind::Null) // holes left by prior cuts
          add(child->range());
        stmt(child);
      }
      break;
    case StmtKind::If: {
      const auto *ifStmt = static_cast<const IfStmt *>(s);
      stmt(ifStmt->thenStmt());
      stmt(ifStmt->elseStmt());
      break;
    }
    case StmtKind::For:
      stmt(static_cast<const ForStmt *>(s)->body());
      break;
    case StmtKind::While:
      stmt(static_cast<const WhileStmt *>(s)->body());
      break;
    case StmtKind::Do:
      stmt(static_cast<const DoStmt *>(s)->body());
      break;
    case StmtKind::OmpDirective:
      stmt(static_cast<const OmpDirectiveStmt *>(s)->associated());
      break;
    default:
      break;
    }
  }

  std::vector<SourceRange> ranges_;
};

unsigned countStmts(const Stmt *s) {
  if (s == nullptr)
    return 0;
  switch (s->kind()) {
  case StmtKind::Compound: {
    unsigned count = 0;
    for (const Stmt *child : static_cast<const CompoundStmt *>(s)->body())
      count += countStmts(child);
    return count;
  }
  case StmtKind::If: {
    const auto *ifStmt = static_cast<const IfStmt *>(s);
    return 1 + countStmts(ifStmt->thenStmt()) + countStmts(ifStmt->elseStmt());
  }
  case StmtKind::For:
    return 1 + countStmts(static_cast<const ForStmt *>(s)->body());
  case StmtKind::While:
    return 1 + countStmts(static_cast<const WhileStmt *>(s)->body());
  case StmtKind::Do:
    return 1 + countStmts(static_cast<const DoStmt *>(s)->body());
  case StmtKind::OmpDirective:
    return 1 +
           countStmts(static_cast<const OmpDirectiveStmt *>(s)->associated());
  case StmtKind::Null:
    return 0; // deletion holes are not program statements
  default:
    return 1;
  }
}

/// Parses the manager's buffer into a fresh context; null on failure.
std::unique_ptr<ASTContext> parseInto(SourceManager &sm) {
  auto context = std::make_unique<ASTContext>();
  DiagnosticEngine diags;
  if (!parseSource(sm, *context, diags) || diags.hasErrors())
    return nullptr;
  return context;
}

/// Blanks `[begin, end)` with spaces (newlines kept so downstream line
/// numbers stay stable) and leaves one `;` so the hole still reads as a
/// statement wherever one was required.
std::string blankRange(const std::string &source, std::size_t begin,
                       std::size_t end) {
  std::string out = source;
  for (std::size_t i = begin; i < end && i < out.size(); ++i)
    if (out[i] != '\n')
      out[i] = ' ';
  if (begin < out.size())
    out[begin] = ';';
  return out;
}

} // namespace

unsigned countStatements(const std::string &source) {
  SourceManager sm("count.c", source);
  const auto context = parseInto(sm);
  if (context == nullptr)
    return 0;
  unsigned count = 0;
  for (const FunctionDecl *fn : context->unit().functions)
    if (fn->body() != nullptr)
      count += countStmts(fn->body());
  return count;
}

ShrinkResult shrinkProgram(const std::string &source,
                           const ShrinkPredicate &stillFails,
                           const ShrinkOptions &options) {
  ShrinkResult result;
  result.source = source;
  result.originalStatements = countStatements(source);
  result.finalStatements = result.originalStatements;
  if (result.originalStatements == 0 || !stillFails(source))
    return result; // not parseable / not failing: nothing to minimize

  bool progressed = true;
  while (progressed && result.deletions < options.maxDeletions &&
         result.attempts < options.maxAttempts) {
    progressed = false;
    SourceManager sm("shrink.c", result.source);
    const auto context = parseInto(sm);
    if (context == nullptr)
      break; // should not happen: the kept source always parses
    DeletableRangeCollector collector;
    for (const FunctionDecl *fn : context->unit().functions)
      collector.function(fn);
    for (const SourceRange &range : collector.take()) {
      if (result.attempts >= options.maxAttempts)
        break;
      const std::string candidate =
          blankRange(result.source, range.begin.offset, range.end.offset);
      if (candidate == result.source)
        continue;
      ++result.attempts;
      if (stillFails(candidate)) {
        result.source = candidate;
        ++result.deletions;
        progressed = true;
        // Ranges refer to the pre-deletion text; re-parse before the next
        // cut.
        break;
      }
    }
  }
  // Cosmetic cleanup, still predicate-guarded: drop whole lines that are
  // only blanks/semicolons (the holes the cuts left). A hole that is
  // load-bearing syntax (a null loop body) fails the predicate and stays.
  bool cleaned = true;
  while (cleaned && result.attempts < options.maxAttempts) {
    cleaned = false;
    std::size_t lineBegin = 0;
    while (lineBegin < result.source.size()) {
      std::size_t lineEnd = result.source.find('\n', lineBegin);
      if (lineEnd == std::string::npos)
        lineEnd = result.source.size();
      else
        ++lineEnd; // include the newline
      const std::string line =
          result.source.substr(lineBegin, lineEnd - lineBegin);
      const bool removable =
          !line.empty() &&
          line.find_first_not_of(" ;\t\n") == std::string::npos &&
          line.find(';') != std::string::npos;
      if (removable) {
        std::string candidate = result.source;
        candidate.erase(lineBegin, lineEnd - lineBegin);
        ++result.attempts;
        if (countStatements(candidate) > 0 && stillFails(candidate)) {
          result.source = std::move(candidate);
          cleaned = true;
          continue; // same offset: the next line slid up
        }
      }
      lineBegin = lineEnd;
    }
  }
  result.finalStatements = countStatements(result.source);
  return result;
}

} // namespace ompdart::gen
