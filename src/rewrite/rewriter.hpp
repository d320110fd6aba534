// Source rewriter (paper §IV-F).
//
// Materializes a mapping plan as text edits on the original buffer:
//  - a new `#pragma omp target data map(...)` directive + braces around the
//    region, or clause appends onto a sole kernel's pragma,
//  - consolidated `#pragma omp target update to/from(...)` directives at
//    each insertion point (one directive per point, multiple list items),
//  - `firstprivate(...)` clauses appended to kernel pragmas.
//
// The rewriter consumes the self-contained Mapping IR: every insertion
// point is a byte offset recorded in the IR, so a serialized plan can be
// re-applied to the original text without the AST (the IR + the buffer are
// sufficient).
#pragma once

#include "mapping/ir.hpp"
#include "support/source_manager.hpp"

#include <cstddef>
#include <string>
#include <vector>

namespace ompdart {

/// Offset-keyed insert-only text editor. Edits at the same offset apply in
/// priority order (then insertion order): structural nesting at one line —
/// region open, body-wrapping brace open, directives, body-wrapping brace
/// close, region close — must hold regardless of which emission phase ran
/// first.
class SourceRewriter {
public:
  /// Same-offset ordering classes, outermost-open first.
  enum class Priority {
    RegionOpen = 0, ///< `#pragma omp target data ... {`
    BodyOpen = 1,   ///< brace wrapping a braceless loop body
    Directive = 2,  ///< updates, clause appends (the default)
    BodyClose = 3,
    RegionClose = 4,
  };

  explicit SourceRewriter(const SourceManager &sourceManager)
      : sourceManager_(sourceManager) {}

  void insert(std::size_t offset, std::string text,
              Priority priority = Priority::Directive);

  /// Applies all edits and returns the rewritten buffer.
  [[nodiscard]] std::string apply() const;

  [[nodiscard]] const SourceManager &sourceManager() const {
    return sourceManager_;
  }

private:
  struct Edit {
    std::size_t offset;
    int priority;
    unsigned sequence;
    std::string text;
  };
  const SourceManager &sourceManager_;
  std::vector<Edit> edits_;
};

/// Renders a Mapping IR into the transformed source text.
class PlanRewriter {
public:
  PlanRewriter(const SourceManager &sourceManager, const ir::MappingIr &ir)
      : sourceManager_(sourceManager), ir_(ir) {}

  [[nodiscard]] std::string rewrite();

private:
  void rewriteRegion(const ir::Region &region, SourceRewriter &rewriter);
  void emitUpdates(const ir::Region &region, SourceRewriter &rewriter);
  void emitFirstprivates(const ir::Region &region, SourceRewriter &rewriter);

  /// Builds the map clause list text for a region, grouped by map type (and
  /// modifier set) in a stable to/from/tofrom/alloc order.
  [[nodiscard]] static std::string mapClausesText(const ir::Region &region);

  /// Offset of the first character of the line containing `offset`.
  [[nodiscard]] std::size_t lineStartFor(std::size_t offset) const;
  /// Offset just past the line containing `offset` (after its newline).
  [[nodiscard]] std::size_t lineEndFor(std::size_t offset) const;

  const SourceManager &sourceManager_;
  const ir::MappingIr &ir_;
};

/// The byte offset where the rewriter inserts one update directive. Also
/// serves as the consolidation key: updates sharing (offset, direction)
/// merge into a single directive, which backends mirror when they apply a
/// plan without rewriting.
[[nodiscard]] std::size_t
updateInsertionOffset(const SourceManager &sourceManager,
                      const ir::UpdateItem &update);

/// Convenience: render `ir` against the original buffer.
[[nodiscard]] std::string applyMappingIr(const SourceManager &sourceManager,
                                         const ir::MappingIr &ir);

} // namespace ompdart
