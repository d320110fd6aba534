// Self-contained Mapping IR: the planner's output and the one plan
// representation every later stage consumes. It is value-semantic and
// JSON-round-trippable: program entities are referenced by stable symbol
// ids plus source ranges, never AST pointers, so plans outlive the
// frontend: they serialize, diff, cache across sessions, and re-apply to
// the original text (or to a live interpreter) without reparsing.
//
// The map-type enum is widened into a lattice modeled on libomptarget's
// `tgt_map_type` flag word: the base direction (alloc ⊑ to, from ⊑ tofrom)
// joins monotonically, and the `always` / `present` / `close` modifiers are
// orthogonal flag bits (`delete` is a base type that forces unmapping, as
// in the runtime). `tgtMapTypeFlags` produces the exact bit encoding the
// runtime would see, which is what the README's modifier table documents.
#pragma once

#include "support/json.hpp"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ompdart::ir {

// ---------------------------------------------------------------------------
// Map-type lattice
// ---------------------------------------------------------------------------

/// Base map types, ordered as a lattice on data movement:
/// Alloc ⊑ To ⊑ ToFrom and Alloc ⊑ From ⊑ ToFrom, with join(To, From) =
/// ToFrom. Release and Delete are unmapping types outside the movement
/// order.
enum class MapType { Alloc, To, From, ToFrom, Release, Delete };

/// Orthogonal modifiers (OpenMP 5.2 map-type modifiers; each corresponds to
/// one libomptarget `tgt_map_type` flag bit).
struct MapModifiers {
  bool always = false;  ///< copy regardless of the reference count
  bool present = false; ///< runtime error if not already mapped
  bool close = false;   ///< allocate close to the device

  [[nodiscard]] bool any() const { return always || present || close; }
  [[nodiscard]] bool operator==(const MapModifiers &other) const {
    return always == other.always && present == other.present &&
           close == other.close;
  }
};

/// Least upper bound on the movement lattice. Joining with Release/Delete
/// yields the non-unmapping operand (unmapping never strengthens movement).
[[nodiscard]] MapType joinMapType(MapType a, MapType b);

/// Partial order of the movement lattice (a ⊑ b: b moves at least as much
/// data as a). Release/Delete are only comparable to themselves.
[[nodiscard]] bool mapTypeLE(MapType a, MapType b);

/// libomptarget `tgt_map_type` flag word for a type + modifiers
/// (OMP_TGT_MAPTYPE_TO|FROM|ALWAYS|DELETE|CLOSE|PRESENT bits).
[[nodiscard]] std::uint64_t tgtMapTypeFlags(MapType type,
                                            MapModifiers modifiers = {});

[[nodiscard]] const char *mapTypeName(MapType type);
[[nodiscard]] std::optional<MapType> mapTypeFromName(const std::string &name);

/// Clause spelling including modifiers, e.g. "always, present, to".
[[nodiscard]] std::string mapTypeSpellingWithModifiers(MapType type,
                                                       MapModifiers modifiers);

enum class UpdateDirection { To, From };
[[nodiscard]] const char *updateDirectionName(UpdateDirection direction);
[[nodiscard]] std::optional<UpdateDirection>
updateDirectionFromName(const std::string &name);

/// Where an update directive lands relative to its anchor statement
/// (paper §IV-F: loop-conditional accesses need body-begin/body-end forms).
enum class UpdatePlacement { Before, After, BodyBegin, BodyEnd };
[[nodiscard]] const char *updatePlacementName(UpdatePlacement placement);
[[nodiscard]] std::optional<UpdatePlacement>
updatePlacementFromName(const std::string &name);

// ---------------------------------------------------------------------------
// Symbols & anchors
// ---------------------------------------------------------------------------

using SymbolId = std::uint32_t;
inline constexpr SymbolId kInvalidSymbol = static_cast<SymbolId>(-1);

/// One program variable the plan references. `declOffset` is the byte
/// offset of its declaration in the original buffer — the stable identity
/// backends use to re-resolve the symbol against a fresh parse.
struct Symbol {
  SymbolId id = kInvalidSymbol;
  std::string name;
  std::size_t declOffset = 0;
  unsigned declLine = 0;
  bool isGlobal = false;
  bool isParam = false;
  std::uint64_t elemBytes = 0; ///< scalar element size of the mapped data

  [[nodiscard]] bool operator==(const Symbol &other) const {
    return id == other.id && name == other.name &&
           declOffset == other.declOffset && declLine == other.declLine &&
           isGlobal == other.isGlobal && isParam == other.isParam &&
           elemBytes == other.elemBytes;
  }
};

/// Mapped section length. `Whole` maps the entire object; `Const` a fixed
/// element count; `Expr` a source-spelled length (e.g. "n" or "nb * hid")
/// evaluated by the consumer in the program's scope.
struct Extent {
  enum class Kind { Whole, Const, Expr };
  Kind kind = Kind::Whole;
  std::uint64_t constElems = 0;
  std::string expr;

  [[nodiscard]] static Extent whole() { return Extent{}; }
  [[nodiscard]] static Extent constant(std::uint64_t elems) {
    Extent extent;
    extent.kind = Kind::Const;
    extent.constElems = elems;
    return extent;
  }
  [[nodiscard]] static Extent symbolic(std::string spelling) {
    Extent extent;
    extent.kind = Kind::Expr;
    extent.expr = std::move(spelling);
    return extent;
  }

  [[nodiscard]] bool operator==(const Extent &other) const {
    return kind == other.kind && constElems == other.constElems &&
           expr == other.expr;
  }
};

/// A statement referenced by source range instead of AST pointer. For loop
/// anchors the body sub-range is recorded too, so BodyBegin/BodyEnd
/// placements can be materialized without the AST.
struct StmtAnchor {
  std::size_t beginOffset = 0;
  std::size_t endOffset = 0;
  unsigned line = 0;    ///< 1-based line of beginOffset
  unsigned endLine = 0; ///< 1-based line of endOffset
  bool hasBody = false;
  bool bodyIsCompound = false;
  std::size_t bodyBeginOffset = 0;
  std::size_t bodyEndOffset = 0;

  [[nodiscard]] bool operator==(const StmtAnchor &other) const {
    return beginOffset == other.beginOffset &&
           endOffset == other.endOffset && line == other.line &&
           endLine == other.endLine && hasBody == other.hasBody &&
           bodyIsCompound == other.bodyIsCompound &&
           bodyBeginOffset == other.bodyBeginOffset &&
           bodyEndOffset == other.bodyEndOffset;
  }
};

// ---------------------------------------------------------------------------
// Plan items
// ---------------------------------------------------------------------------

/// One list item of a region's map clause set.
struct MapItem {
  SymbolId symbol = kInvalidSymbol;
  MapType type = MapType::ToFrom;
  MapModifiers modifiers;
  /// Full item spelling, e.g. "a[0:n]"; the plain variable name otherwise.
  std::string item;
  Extent extent;
  /// Estimated bytes this mapping moves one way (reports / transfer
  /// prediction).
  std::uint64_t approxBytes = 0;
  /// Of the region's provable entries, how many pay this item's
  /// present-table 0->1/1->0 transition copies. Defaults to the region's
  /// entryCount; the planner's warm-callee accounting lowers it for
  /// entries that provably execute inside an enclosing caller region that
  /// already maps the object (refcount 1->2 transitions move nothing).
  /// 0 means every entry is warm — such items also carry the `present`
  /// modifier.
  std::uint64_t coldEntries = 1;

  [[nodiscard]] bool operator==(const MapItem &other) const {
    return symbol == other.symbol && type == other.type &&
           modifiers == other.modifiers && item == other.item &&
           extent == other.extent && approxBytes == other.approxBytes &&
           coldEntries == other.coldEntries;
  }
};

/// One `target update` directive to insert.
struct UpdateItem {
  SymbolId symbol = kInvalidSymbol;
  UpdateDirection direction = UpdateDirection::From;
  UpdatePlacement placement = UpdatePlacement::Before;
  bool hoisted = false; ///< anchor is a loop, not the access statement
  std::string item;
  Extent extent;
  /// Estimated bytes one execution of this update moves.
  std::uint64_t approxBytes = 0;
  /// Statically provable executions per program run (region entries times
  /// the constant trip counts of region loops enclosing the insertion
  /// point; unknown-bound loops count once).
  std::uint64_t executions = 1;
  StmtAnchor anchor;

  [[nodiscard]] bool operator==(const UpdateItem &other) const {
    return symbol == other.symbol && direction == other.direction &&
           placement == other.placement && hoisted == other.hoisted &&
           item == other.item && extent == other.extent &&
           approxBytes == other.approxBytes &&
           executions == other.executions && anchor == other.anchor;
  }
};

/// firstprivate(var) appended to one kernel directive.
struct FirstprivateItem {
  SymbolId symbol = kInvalidSymbol;
  std::string var;
  unsigned kernelLine = 0;
  std::size_t kernelPragmaEndOffset = 0;

  [[nodiscard]] bool operator==(const FirstprivateItem &other) const {
    return symbol == other.symbol && var == other.var &&
           kernelLine == other.kernelLine &&
           kernelPragmaEndOffset == other.kernelPragmaEndOffset;
  }
};

/// The single target-data region planned for one function.
struct Region {
  std::string function;
  StmtAnchor start;
  StmtAnchor end;
  /// When the region is exactly one kernel, clauses are appended to its
  /// pragma (at this offset) instead of creating a new data directive.
  bool appendsToKernel = false;
  std::size_t soleKernelPragmaEndOffset = 0;
  /// Statically provable region entries per program run (function call
  /// count times constant trips of loops enclosing the region start). Each
  /// entry/exit pays the present-table 0->1/1->0 transition copies.
  std::uint64_t entryCount = 1;
  std::vector<MapItem> maps;
  std::vector<UpdateItem> updates;
  std::vector<FirstprivateItem> firstprivates;

  [[nodiscard]] unsigned beginLine() const { return start.line; }
  [[nodiscard]] unsigned endLine() const { return end.endLine; }

  [[nodiscard]] bool operator==(const Region &other) const {
    return function == other.function && start == other.start &&
           end == other.end && appendsToKernel == other.appendsToKernel &&
           soleKernelPragmaEndOffset == other.soleKernelPragmaEndOffset &&
           entryCount == other.entryCount && maps == other.maps &&
           updates == other.updates && firstprivates == other.firstprivates;
  }
};

/// A complete mapping plan for one translation unit, AST-free.
struct MappingIr {
  static constexpr unsigned kVersion = 1;

  std::string file;
  std::vector<Symbol> symbols;
  std::vector<Region> regions;

  [[nodiscard]] bool empty() const { return regions.empty(); }

  [[nodiscard]] const Symbol *symbol(SymbolId id) const {
    for (const Symbol &sym : symbols)
      if (sym.id == id)
        return &sym;
    return nullptr;
  }
  [[nodiscard]] const Symbol *findSymbol(const std::string &name) const {
    for (const Symbol &sym : symbols)
      if (sym.name == name)
        return &sym;
    return nullptr;
  }
  [[nodiscard]] const Region *regionFor(const std::string &function) const {
    for (const Region &region : regions)
      if (region.function == function)
        return &region;
    return nullptr;
  }
  [[nodiscard]] std::size_t totalUpdates() const {
    std::size_t count = 0;
    for (const Region &region : regions)
      count += region.updates.size();
    return count;
  }

  [[nodiscard]] json::Value toJson() const;
  /// Inverse of `toJson`. Returns nullopt (and sets `error`) on documents
  /// that are not a serialized MappingIr.
  [[nodiscard]] static std::optional<MappingIr>
  fromJson(const json::Value &value, std::string *error = nullptr);

  /// Stable 32-hex-char content fingerprint over the canonical (compact
  /// JSON) serialization: equal IRs hash equal across processes, so cache
  /// integrity checks and plan diffing can compare plans by fingerprint.
  [[nodiscard]] std::string fingerprint() const;

  [[nodiscard]] bool operator==(const MappingIr &other) const {
    return file == other.file && symbols == other.symbols &&
           regions == other.regions;
  }
  [[nodiscard]] bool operator!=(const MappingIr &other) const {
    return !(*this == other);
  }
};

} // namespace ompdart::ir
