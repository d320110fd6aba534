#include "mapping/ir.hpp"

#include "support/hash.hpp"

namespace ompdart::ir {

// ---------------------------------------------------------------------------
// Map-type lattice
// ---------------------------------------------------------------------------

namespace {

/// Movement bits of a base type on the to/from lattice; nullopt for the
/// unmapping types, which sit outside the movement order.
std::optional<unsigned> movementBits(MapType type) {
  switch (type) {
  case MapType::Alloc:
    return 0u;
  case MapType::To:
    return 1u;
  case MapType::From:
    return 2u;
  case MapType::ToFrom:
    return 3u;
  case MapType::Release:
  case MapType::Delete:
    return std::nullopt;
  }
  return std::nullopt;
}

MapType fromMovementBits(unsigned bits) {
  switch (bits & 3u) {
  case 0u:
    return MapType::Alloc;
  case 1u:
    return MapType::To;
  case 2u:
    return MapType::From;
  default:
    return MapType::ToFrom;
  }
}

// libomptarget tgt_map_type flag bits (omptarget.h).
constexpr std::uint64_t kTgtTo = 0x001;
constexpr std::uint64_t kTgtFrom = 0x002;
constexpr std::uint64_t kTgtAlways = 0x004;
constexpr std::uint64_t kTgtDelete = 0x008;
constexpr std::uint64_t kTgtClose = 0x400;
constexpr std::uint64_t kTgtPresent = 0x1000;

} // namespace

MapType joinMapType(MapType a, MapType b) {
  const auto bitsA = movementBits(a);
  const auto bitsB = movementBits(b);
  if (!bitsA)
    return b; // unmapping never strengthens movement
  if (!bitsB)
    return a;
  return fromMovementBits(*bitsA | *bitsB);
}

bool mapTypeLE(MapType a, MapType b) {
  const auto bitsA = movementBits(a);
  const auto bitsB = movementBits(b);
  if (!bitsA || !bitsB)
    return a == b; // Release/Delete comparable only to themselves
  return (*bitsA & *bitsB) == *bitsA;
}

std::uint64_t tgtMapTypeFlags(MapType type, MapModifiers modifiers) {
  std::uint64_t flags = 0;
  switch (type) {
  case MapType::Alloc:
  case MapType::Release:
    break; // allocation/deallocation only: no movement bits
  case MapType::To:
    flags |= kTgtTo;
    break;
  case MapType::From:
    flags |= kTgtFrom;
    break;
  case MapType::ToFrom:
    flags |= kTgtTo | kTgtFrom;
    break;
  case MapType::Delete:
    flags |= kTgtDelete;
    break;
  }
  if (modifiers.always)
    flags |= kTgtAlways;
  if (modifiers.present)
    flags |= kTgtPresent;
  if (modifiers.close)
    flags |= kTgtClose;
  return flags;
}

const char *mapTypeName(MapType type) {
  switch (type) {
  case MapType::Alloc:
    return "alloc";
  case MapType::To:
    return "to";
  case MapType::From:
    return "from";
  case MapType::ToFrom:
    return "tofrom";
  case MapType::Release:
    return "release";
  case MapType::Delete:
    return "delete";
  }
  return "unknown";
}

std::optional<MapType> mapTypeFromName(const std::string &name) {
  for (const MapType type :
       {MapType::Alloc, MapType::To, MapType::From, MapType::ToFrom,
        MapType::Release, MapType::Delete})
    if (name == mapTypeName(type))
      return type;
  return std::nullopt;
}

std::string mapTypeSpellingWithModifiers(MapType type,
                                         MapModifiers modifiers) {
  std::string out;
  if (modifiers.always)
    out += "always, ";
  if (modifiers.close)
    out += "close, ";
  if (modifiers.present)
    out += "present, ";
  out += mapTypeName(type);
  return out;
}

const char *updateDirectionName(UpdateDirection direction) {
  return direction == UpdateDirection::To ? "to" : "from";
}

std::optional<UpdateDirection>
updateDirectionFromName(const std::string &name) {
  if (name == "to")
    return UpdateDirection::To;
  if (name == "from")
    return UpdateDirection::From;
  return std::nullopt;
}

const char *updatePlacementName(UpdatePlacement placement) {
  switch (placement) {
  case UpdatePlacement::Before:
    return "before";
  case UpdatePlacement::After:
    return "after";
  case UpdatePlacement::BodyBegin:
    return "body-begin";
  case UpdatePlacement::BodyEnd:
    return "body-end";
  }
  return "unknown";
}

std::optional<UpdatePlacement>
updatePlacementFromName(const std::string &name) {
  for (const UpdatePlacement placement :
       {UpdatePlacement::Before, UpdatePlacement::After,
        UpdatePlacement::BodyBegin, UpdatePlacement::BodyEnd})
    if (name == updatePlacementName(placement))
      return placement;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------------

namespace {

const char *extentKindName(Extent::Kind kind) {
  switch (kind) {
  case Extent::Kind::Whole:
    return "whole";
  case Extent::Kind::Const:
    return "const";
  case Extent::Kind::Expr:
    return "expr";
  }
  return "unknown";
}

std::optional<Extent::Kind> extentKindFromName(const std::string &name) {
  if (name == "whole")
    return Extent::Kind::Whole;
  if (name == "const")
    return Extent::Kind::Const;
  if (name == "expr")
    return Extent::Kind::Expr;
  return std::nullopt;
}

json::Value extentToJson(const Extent &extent) {
  json::Value out = json::Value::object();
  out.set("kind", extentKindName(extent.kind));
  if (extent.kind == Extent::Kind::Const)
    out.set("elems", extent.constElems);
  if (extent.kind == Extent::Kind::Expr)
    out.set("expr", extent.expr);
  return out;
}

bool extentFromJson(const json::Value &value, Extent &extent,
                    std::string *error) {
  const std::optional<Extent::Kind> kind =
      extentKindFromName(value.stringOr("kind", "whole"));
  if (!kind)
    return json::setFirstError(error, "extent names an unknown kind");
  extent.kind = *kind;
  extent.constElems = value.uintOr("elems");
  extent.expr = value.stringOr("expr");
  return true;
}

json::Value anchorToJson(const StmtAnchor &anchor) {
  json::Value out = json::Value::object();
  out.set("beginOffset", static_cast<std::uint64_t>(anchor.beginOffset));
  out.set("endOffset", static_cast<std::uint64_t>(anchor.endOffset));
  out.set("line", anchor.line);
  out.set("endLine", anchor.endLine);
  if (anchor.hasBody) {
    out.set("bodyIsCompound", anchor.bodyIsCompound);
    out.set("bodyBeginOffset",
            static_cast<std::uint64_t>(anchor.bodyBeginOffset));
    out.set("bodyEndOffset",
            static_cast<std::uint64_t>(anchor.bodyEndOffset));
  }
  return out;
}

StmtAnchor anchorFromJson(const json::Value &value) {
  StmtAnchor anchor;
  anchor.beginOffset = static_cast<std::size_t>(value.uintOr("beginOffset"));
  anchor.endOffset = static_cast<std::size_t>(value.uintOr("endOffset"));
  anchor.line = static_cast<unsigned>(value.uintOr("line"));
  anchor.endLine = static_cast<unsigned>(value.uintOr("endLine"));
  anchor.hasBody = value.find("bodyBeginOffset") != nullptr;
  if (anchor.hasBody) {
    anchor.bodyIsCompound = value.boolOr("bodyIsCompound");
    anchor.bodyBeginOffset =
        static_cast<std::size_t>(value.uintOr("bodyBeginOffset"));
    anchor.bodyEndOffset =
        static_cast<std::size_t>(value.uintOr("bodyEndOffset"));
  }
  return anchor;
}

json::Value modifiersToJson(const MapModifiers &modifiers) {
  json::Value out = json::Value::array();
  if (modifiers.always)
    out.push("always");
  if (modifiers.close)
    out.push("close");
  if (modifiers.present)
    out.push("present");
  return out;
}

bool modifiersFromJson(const json::Value &value, MapModifiers &modifiers,
                       std::string *error) {
  for (const json::Value &entry : value.items()) {
    const std::string &name = entry.asString();
    if (name == "always")
      modifiers.always = true;
    else if (name == "close")
      modifiers.close = true;
    else if (name == "present")
      modifiers.present = true;
    else
      return json::setFirstError(error, "map item names an unknown modifier");
  }
  return true;
}

} // namespace

json::Value MappingIr::toJson() const {
  json::Value out = json::Value::object();
  out.set("version", kVersion);
  out.set("file", file);

  json::Value symbolsJson = json::Value::array();
  for (const Symbol &sym : symbols) {
    json::Value entry = json::Value::object();
    entry.set("id", sym.id);
    entry.set("name", sym.name);
    entry.set("declOffset", static_cast<std::uint64_t>(sym.declOffset));
    entry.set("declLine", sym.declLine);
    entry.set("global", sym.isGlobal);
    entry.set("param", sym.isParam);
    entry.set("elemBytes", sym.elemBytes);
    symbolsJson.push(std::move(entry));
  }
  out.set("symbols", std::move(symbolsJson));

  json::Value regionsJson = json::Value::array();
  for (const Region &region : regions) {
    json::Value regionJson = json::Value::object();
    regionJson.set("function", region.function);
    regionJson.set("start", anchorToJson(region.start));
    regionJson.set("end", anchorToJson(region.end));
    regionJson.set("appendsToKernel", region.appendsToKernel);
    if (region.appendsToKernel)
      regionJson.set("soleKernelPragmaEndOffset",
                     static_cast<std::uint64_t>(
                         region.soleKernelPragmaEndOffset));
    regionJson.set("entryCount", region.entryCount);

    json::Value mapsJson = json::Value::array();
    for (const MapItem &map : region.maps) {
      json::Value entry = json::Value::object();
      entry.set("symbol", map.symbol);
      entry.set("type", mapTypeName(map.type));
      if (map.modifiers.any())
        entry.set("modifiers", modifiersToJson(map.modifiers));
      entry.set("item", map.item);
      entry.set("extent", extentToJson(map.extent));
      entry.set("approxBytes", map.approxBytes);
      entry.set("coldEntries", map.coldEntries);
      mapsJson.push(std::move(entry));
    }
    regionJson.set("maps", std::move(mapsJson));

    json::Value updatesJson = json::Value::array();
    for (const UpdateItem &update : region.updates) {
      json::Value entry = json::Value::object();
      entry.set("symbol", update.symbol);
      entry.set("direction", updateDirectionName(update.direction));
      entry.set("placement", updatePlacementName(update.placement));
      entry.set("hoisted", update.hoisted);
      entry.set("item", update.item);
      entry.set("extent", extentToJson(update.extent));
      entry.set("approxBytes", update.approxBytes);
      entry.set("executions", update.executions);
      entry.set("anchor", anchorToJson(update.anchor));
      updatesJson.push(std::move(entry));
    }
    regionJson.set("updates", std::move(updatesJson));

    json::Value firstprivatesJson = json::Value::array();
    for (const FirstprivateItem &fp : region.firstprivates) {
      json::Value entry = json::Value::object();
      entry.set("symbol", fp.symbol);
      entry.set("var", fp.var);
      entry.set("kernelLine", fp.kernelLine);
      entry.set("kernelPragmaEndOffset",
                static_cast<std::uint64_t>(fp.kernelPragmaEndOffset));
      firstprivatesJson.push(std::move(entry));
    }
    regionJson.set("firstprivates", std::move(firstprivatesJson));

    regionsJson.push(std::move(regionJson));
  }
  out.set("regions", std::move(regionsJson));
  return out;
}

std::optional<MappingIr> MappingIr::fromJson(const json::Value &value,
                                             std::string *error) {
  if (!value.isObject()) {
    json::setFirstError(error, "mapping IR document must be a JSON object");
    return std::nullopt;
  }
  MappingIr out;
  out.file = value.stringOr("file");

  if (const json::Value *symbolsJson = value.find("symbols")) {
    for (const json::Value &entry : symbolsJson->items()) {
      Symbol sym;
      sym.id = static_cast<SymbolId>(entry.uintOr("id", kInvalidSymbol));
      sym.name = entry.stringOr("name");
      sym.declOffset = static_cast<std::size_t>(entry.uintOr("declOffset"));
      sym.declLine = static_cast<unsigned>(entry.uintOr("declLine"));
      sym.isGlobal = entry.boolOr("global");
      sym.isParam = entry.boolOr("param");
      sym.elemBytes = entry.uintOr("elemBytes");
      out.symbols.push_back(std::move(sym));
    }
  }

  if (const json::Value *regionsJson = value.find("regions")) {
    for (const json::Value &regionJson : regionsJson->items()) {
      Region region;
      region.function = regionJson.stringOr("function");
      if (const json::Value *start = regionJson.find("start"))
        region.start = anchorFromJson(*start);
      if (const json::Value *end = regionJson.find("end"))
        region.end = anchorFromJson(*end);
      region.appendsToKernel = regionJson.boolOr("appendsToKernel");
      region.soleKernelPragmaEndOffset = static_cast<std::size_t>(
          regionJson.uintOr("soleKernelPragmaEndOffset"));
      region.entryCount = regionJson.uintOr("entryCount", 1);

      if (const json::Value *mapsJson = regionJson.find("maps")) {
        for (const json::Value &entry : mapsJson->items()) {
          MapItem map;
          map.symbol =
              static_cast<SymbolId>(entry.uintOr("symbol", kInvalidSymbol));
          const std::optional<MapType> type =
              mapTypeFromName(entry.stringOr("type"));
          if (!type) {
            json::setFirstError(error, "map item names an unknown map type");
            return std::nullopt;
          }
          map.type = *type;
          if (const json::Value *modifiers = entry.find("modifiers")) {
            if (!modifiersFromJson(*modifiers, map.modifiers, error))
              return std::nullopt;
          }
          map.item = entry.stringOr("item");
          if (const json::Value *extent = entry.find("extent")) {
            if (!extentFromJson(*extent, map.extent, error))
              return std::nullopt;
          }
          map.approxBytes = entry.uintOr("approxBytes");
          // Older documents predate per-item accounting: every entry cold.
          map.coldEntries = entry.uintOr("coldEntries", region.entryCount);
          region.maps.push_back(std::move(map));
        }
      }

      if (const json::Value *updatesJson = regionJson.find("updates")) {
        for (const json::Value &entry : updatesJson->items()) {
          UpdateItem update;
          update.symbol =
              static_cast<SymbolId>(entry.uintOr("symbol", kInvalidSymbol));
          const std::optional<UpdateDirection> direction =
              updateDirectionFromName(entry.stringOr("direction"));
          if (!direction) {
            json::setFirstError(error, "update item names an unknown direction");
            return std::nullopt;
          }
          update.direction = *direction;
          const std::optional<UpdatePlacement> placement =
              updatePlacementFromName(entry.stringOr("placement"));
          if (!placement) {
            json::setFirstError(error, "update item names an unknown placement");
            return std::nullopt;
          }
          update.placement = *placement;
          update.hoisted = entry.boolOr("hoisted");
          update.item = entry.stringOr("item");
          if (const json::Value *extent = entry.find("extent")) {
            if (!extentFromJson(*extent, update.extent, error))
              return std::nullopt;
          }
          update.approxBytes = entry.uintOr("approxBytes");
          update.executions = entry.uintOr("executions", 1);
          if (const json::Value *anchor = entry.find("anchor"))
            update.anchor = anchorFromJson(*anchor);
          region.updates.push_back(std::move(update));
        }
      }

      if (const json::Value *fpJson = regionJson.find("firstprivates")) {
        for (const json::Value &entry : fpJson->items()) {
          FirstprivateItem fp;
          fp.symbol =
              static_cast<SymbolId>(entry.uintOr("symbol", kInvalidSymbol));
          fp.var = entry.stringOr("var");
          fp.kernelLine = static_cast<unsigned>(entry.uintOr("kernelLine"));
          fp.kernelPragmaEndOffset = static_cast<std::size_t>(
              entry.uintOr("kernelPragmaEndOffset"));
          region.firstprivates.push_back(std::move(fp));
        }
      }

      out.regions.push_back(std::move(region));
    }
  }
  return out;
}

std::string MappingIr::fingerprint() const {
  // The JSON writer preserves member insertion order and toJson always
  // emits in one order, so the compact dump is a canonical serialization.
  return hash::fingerprint(toJson().dump(/*pretty=*/false));
}

} // namespace ompdart::ir
