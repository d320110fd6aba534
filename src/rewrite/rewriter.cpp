#include "rewrite/rewriter.hpp"

#include <algorithm>
#include <map>

namespace ompdart {

void SourceRewriter::insert(std::size_t offset, std::string text,
                            Priority priority) {
  edits_.push_back(Edit{offset, static_cast<int>(priority),
                        static_cast<unsigned>(edits_.size()),
                        std::move(text)});
}

std::string SourceRewriter::apply() const {
  std::vector<Edit> sorted = edits_;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Edit &a, const Edit &b) {
                     if (a.offset != b.offset)
                       return a.offset < b.offset;
                     if (a.priority != b.priority)
                       return a.priority < b.priority;
                     return a.sequence < b.sequence;
                   });
  const std::string &original = sourceManager_.text();
  std::string out;
  out.reserve(original.size() + 256);
  std::size_t cursor = 0;
  for (const Edit &edit : sorted) {
    const std::size_t offset = std::min(edit.offset, original.size());
    out.append(original, cursor, offset - cursor);
    out.append(edit.text);
    cursor = offset;
  }
  out.append(original, cursor, original.size() - cursor);
  return out;
}

namespace {

std::size_t lineStartOf(const SourceManager &sourceManager,
                        std::size_t offset) {
  return sourceManager.lineStartOffset(sourceManager.lineNumber(offset));
}

std::size_t lineEndOf(const SourceManager &sourceManager,
                      std::size_t offset) {
  const unsigned line = sourceManager.lineNumber(offset);
  std::size_t end = sourceManager.lineEndOffset(line);
  if (end < sourceManager.size())
    ++end; // past the newline
  return end;
}

} // namespace

std::size_t PlanRewriter::lineStartFor(std::size_t offset) const {
  return lineStartOf(sourceManager_, offset);
}

std::size_t PlanRewriter::lineEndFor(std::size_t offset) const {
  return lineEndOf(sourceManager_, offset);
}

std::string PlanRewriter::mapClausesText(const ir::Region &region) {
  // Group map items by map type in a stable to/from/tofrom/alloc order
  // (unmapping types last); within one type, modifier-free items come
  // first, then one clause per distinct modifier set in first-seen order.
  const ir::MapType order[] = {ir::MapType::To,     ir::MapType::From,
                               ir::MapType::ToFrom, ir::MapType::Alloc,
                               ir::MapType::Release, ir::MapType::Delete};
  std::string out;
  for (const ir::MapType type : order) {
    std::vector<std::pair<std::string, std::string>> groups; // spelling, items
    for (const ir::MapItem &map : region.maps) {
      if (map.type != type)
        continue;
      const std::string spelling =
          ir::mapTypeSpellingWithModifiers(type, map.modifiers);
      auto it = std::find_if(groups.begin(), groups.end(),
                             [&](const auto &group) {
                               return group.first == spelling;
                             });
      if (it == groups.end()) {
        // Modifier-free group leads so unmodified output keeps the classic
        // "map(to: ...)" shape in front.
        if (!map.modifiers.any())
          it = groups.insert(groups.begin(), {spelling, std::string()});
        else
          it = groups.insert(groups.end(), {spelling, std::string()});
      }
      if (!it->second.empty())
        it->second += ", ";
      it->second += map.item;
    }
    for (const auto &[spelling, items] : groups) {
      out += " map(";
      out += spelling;
      out += ": ";
      out += items;
      out += ")";
    }
  }
  return out;
}

void PlanRewriter::rewriteRegion(const ir::Region &region,
                                 SourceRewriter &rewriter) {
  const std::string clauses = mapClausesText(region);
  if (clauses.empty())
    return;
  if (region.appendsToKernel) {
    // Single kernel: append clauses to its pragma line.
    rewriter.insert(region.soleKernelPragmaEndOffset, clauses);
    return;
  }
  const std::size_t startLine = lineStartFor(region.start.beginOffset);
  const std::string indent =
      sourceManager_.indentationAt(region.start.beginOffset);
  rewriter.insert(startLine,
                  indent + "#pragma omp target data" + clauses + "\n" +
                      indent + "{\n",
                  SourceRewriter::Priority::RegionOpen);
  const std::size_t endLine = lineEndFor(
      region.end.endOffset > 0 ? region.end.endOffset - 1 : 0);
  rewriter.insert(endLine, indent + "}\n",
                  SourceRewriter::Priority::RegionClose);
}

std::size_t updateInsertionOffset(const SourceManager &sourceManager,
                                  const ir::UpdateItem &update) {
  const auto lineStartFor = [&](std::size_t offset) {
    return lineStartOf(sourceManager, offset);
  };
  const auto lineEndFor = [&](std::size_t offset) {
    return lineEndOf(sourceManager, offset);
  };
  const ir::StmtAnchor &anchor = update.anchor;
  switch (update.placement) {
  case ir::UpdatePlacement::Before:
    return lineStartFor(anchor.beginOffset);
  case ir::UpdatePlacement::After:
    return lineEndFor(anchor.endOffset > 0 ? anchor.endOffset - 1 : 0);
  case ir::UpdatePlacement::BodyBegin:
  case ir::UpdatePlacement::BodyEnd: {
    const std::size_t bodyBegin =
        anchor.hasBody ? anchor.bodyBeginOffset : anchor.beginOffset;
    const std::size_t bodyEnd =
        anchor.hasBody ? anchor.bodyEndOffset : anchor.endOffset;
    const bool bodyIsCompound = anchor.hasBody && anchor.bodyIsCompound;
    if (update.placement == ir::UpdatePlacement::BodyBegin) {
      // Just after the opening brace, or — for a braceless body, which
      // gains a brace pair at these exact offsets — right at the body's
      // first byte, regardless of whether it shares the loop header's
      // line.
      return bodyIsCompound ? lineEndFor(bodyBegin) : bodyBegin;
    }
    // Just before the closing brace (or after a braceless body).
    return bodyIsCompound ? lineStartFor(bodyEnd > 0 ? bodyEnd - 1 : 0)
                          : bodyEnd;
  }
  }
  return lineStartFor(anchor.beginOffset);
}

void PlanRewriter::emitUpdates(const ir::Region &region,
                               SourceRewriter &rewriter) {
  // Consolidate: one directive per (insertion offset, direction), listing
  // every variable that updates there (paper §IV-F last paragraph).
  struct Point {
    std::size_t offset;
    ir::UpdateDirection direction;
    std::string indent;
    /// Braceless-body insertion: the offset is mid-line (the body's exact
    /// begin/end byte), so the directive line needs a leading newline
    /// (BodyEnd) or follows the freshly inserted `{\n` (BodyBegin).
    bool inlineBegin = false;
    bool inlineEnd = false;
    std::vector<std::string> items;
  };
  std::map<std::pair<std::size_t, int>, Point> points;
  // Braceless loop bodies hosting a BodyBegin/BodyEnd directive must gain
  // braces, or the inserted pragma line either becomes the body itself
  // (BodyBegin, pushing the real body out of the loop) or lands after the
  // loop entirely (BodyEnd). Braces land at the body's exact byte range —
  // a body sharing the loop header's line must not wrap the whole loop.
  // One brace pair per anchor, shared by all its updates.
  std::map<std::pair<std::size_t, std::size_t>, std::string> braceWraps;

  for (const ir::UpdateItem &update : region.updates) {
    const ir::StmtAnchor &anchor = update.anchor;
    const std::size_t offset = updateInsertionOffset(sourceManager_, update);
    std::string indent = sourceManager_.indentationAt(anchor.beginOffset);
    const bool bodyPlacement =
        update.placement == ir::UpdatePlacement::BodyBegin ||
        update.placement == ir::UpdatePlacement::BodyEnd;
    const bool braceless =
        bodyPlacement && anchor.hasBody && !anchor.bodyIsCompound;
    if (bodyPlacement) {
      if (braceless)
        braceWraps[{anchor.bodyBeginOffset, anchor.bodyEndOffset}] = indent;
      indent += "  ";
    }
    auto &point = points[{offset, static_cast<int>(update.direction)}];
    point.offset = offset;
    point.direction = update.direction;
    point.indent = indent;
    point.inlineBegin =
        point.inlineBegin ||
        (braceless && update.placement == ir::UpdatePlacement::BodyBegin);
    point.inlineEnd =
        point.inlineEnd ||
        (braceless && update.placement == ir::UpdatePlacement::BodyEnd);
    if (std::find(point.items.begin(), point.items.end(), update.item) ==
        point.items.end())
      point.items.push_back(update.item);
  }

  for (const auto &[body, indent] : braceWraps) {
    rewriter.insert(body.first, "{\n", SourceRewriter::Priority::BodyOpen);
    rewriter.insert(body.second, "\n" + indent + "}",
                    SourceRewriter::Priority::BodyClose);
  }

  for (const auto &[key, point] : points) {
    std::string items;
    for (const std::string &item : point.items) {
      if (!items.empty())
        items += ", ";
      items += item;
    }
    const std::string directive =
        "#pragma omp target update " +
        std::string(point.direction == ir::UpdateDirection::To ? "to("
                                                               : "from(") +
        items + ")";
    std::string text;
    if (point.inlineEnd) {
      // After the body's last byte, before the inserted `\n<indent>}`.
      text = "\n" + point.indent + directive;
    } else if (point.inlineBegin) {
      // After the inserted `{\n`, before the body's first byte.
      text = point.indent + directive + "\n" + point.indent;
    } else {
      text = point.indent + directive + "\n";
    }
    rewriter.insert(point.offset, std::move(text));
  }
}

void PlanRewriter::emitFirstprivates(const ir::Region &region,
                                     SourceRewriter &rewriter) {
  // Consolidate per kernel (identified by its pragma-end offset).
  std::map<std::size_t, std::vector<std::string>> byKernel;
  for (const ir::FirstprivateItem &fp : region.firstprivates) {
    auto &names = byKernel[fp.kernelPragmaEndOffset];
    if (std::find(names.begin(), names.end(), fp.var) == names.end())
      names.push_back(fp.var);
  }
  for (const auto &[offset, names] : byKernel) {
    std::string items;
    for (const std::string &name : names) {
      if (!items.empty())
        items += ", ";
      items += name;
    }
    rewriter.insert(offset, " firstprivate(" + items + ")");
  }
}

std::string PlanRewriter::rewrite() {
  SourceRewriter rewriter(sourceManager_);
  for (const ir::Region &region : ir_.regions) {
    rewriteRegion(region, rewriter);
    emitUpdates(region, rewriter);
    emitFirstprivates(region, rewriter);
  }
  return rewriter.apply();
}

std::string applyMappingIr(const SourceManager &sourceManager,
                           const ir::MappingIr &ir) {
  PlanRewriter rewriter(sourceManager, ir);
  return rewriter.rewrite();
}

} // namespace ompdart
