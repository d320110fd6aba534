// Mapping IR tests: map-type lattice laws, tgt_map_type flag encoding,
// JSON round-trips (handcrafted, property-generated, and planned by real
// Sessions), and the self-containment guarantee — a serialized IR plus the
// original buffer reproduce the transformed source without any AST.
#include "driver/pipeline.hpp"
#include "mapping/ir.hpp"
#include "rewrite/rewriter.hpp"

#include <gtest/gtest.h>

#include <random>

namespace ompdart {
namespace {

const ir::MapType kAllTypes[] = {ir::MapType::Alloc,   ir::MapType::To,
                                 ir::MapType::From,    ir::MapType::ToFrom,
                                 ir::MapType::Release, ir::MapType::Delete};
const ir::MapType kMovementTypes[] = {ir::MapType::Alloc, ir::MapType::To,
                                      ir::MapType::From, ir::MapType::ToFrom};

TEST(MapTypeLatticeTest, JoinIsCommutativeIdempotentAndMonotone) {
  for (const ir::MapType a : kMovementTypes) {
    EXPECT_EQ(ir::joinMapType(a, a), a);
    for (const ir::MapType b : kMovementTypes) {
      EXPECT_EQ(ir::joinMapType(a, b), ir::joinMapType(b, a));
      // The join is an upper bound of both operands.
      EXPECT_TRUE(ir::mapTypeLE(a, ir::joinMapType(a, b)));
      EXPECT_TRUE(ir::mapTypeLE(b, ir::joinMapType(a, b)));
    }
  }
}

TEST(MapTypeLatticeTest, OrderMatchesTheMovementDiamond) {
  EXPECT_TRUE(ir::mapTypeLE(ir::MapType::Alloc, ir::MapType::To));
  EXPECT_TRUE(ir::mapTypeLE(ir::MapType::Alloc, ir::MapType::From));
  EXPECT_TRUE(ir::mapTypeLE(ir::MapType::To, ir::MapType::ToFrom));
  EXPECT_TRUE(ir::mapTypeLE(ir::MapType::From, ir::MapType::ToFrom));
  EXPECT_FALSE(ir::mapTypeLE(ir::MapType::To, ir::MapType::From));
  EXPECT_FALSE(ir::mapTypeLE(ir::MapType::ToFrom, ir::MapType::To));
  EXPECT_EQ(ir::joinMapType(ir::MapType::To, ir::MapType::From),
            ir::MapType::ToFrom);
  EXPECT_EQ(ir::joinMapType(ir::MapType::Alloc, ir::MapType::From),
            ir::MapType::From);
}

TEST(MapTypeLatticeTest, UnmappingTypesStayOutsideTheMovementOrder) {
  EXPECT_TRUE(ir::mapTypeLE(ir::MapType::Delete, ir::MapType::Delete));
  EXPECT_FALSE(ir::mapTypeLE(ir::MapType::Delete, ir::MapType::ToFrom));
  EXPECT_FALSE(ir::mapTypeLE(ir::MapType::To, ir::MapType::Release));
  // Joining with an unmapping type keeps the movement operand.
  EXPECT_EQ(ir::joinMapType(ir::MapType::Release, ir::MapType::To),
            ir::MapType::To);
  EXPECT_EQ(ir::joinMapType(ir::MapType::From, ir::MapType::Delete),
            ir::MapType::From);
}

TEST(MapTypeLatticeTest, TgtMapTypeFlagsMatchLibomptarget) {
  // The bit values of libomptarget's tgt_map_type (omptarget.h).
  EXPECT_EQ(ir::tgtMapTypeFlags(ir::MapType::Alloc), 0x000u);
  EXPECT_EQ(ir::tgtMapTypeFlags(ir::MapType::To), 0x001u);
  EXPECT_EQ(ir::tgtMapTypeFlags(ir::MapType::From), 0x002u);
  EXPECT_EQ(ir::tgtMapTypeFlags(ir::MapType::ToFrom), 0x003u);
  EXPECT_EQ(ir::tgtMapTypeFlags(ir::MapType::Delete), 0x008u);

  ir::MapModifiers always;
  always.always = true;
  EXPECT_EQ(ir::tgtMapTypeFlags(ir::MapType::To, always), 0x005u);
  ir::MapModifiers present;
  present.present = true;
  EXPECT_EQ(ir::tgtMapTypeFlags(ir::MapType::From, present), 0x1002u);
  ir::MapModifiers close;
  close.close = true;
  EXPECT_EQ(ir::tgtMapTypeFlags(ir::MapType::ToFrom, close), 0x403u);
}

TEST(IrNamesTest, EnumNamesRoundTrip) {
  for (const ir::MapType type : kAllTypes) {
    const auto parsed = ir::mapTypeFromName(ir::mapTypeName(type));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, type);
  }
  for (const ir::UpdatePlacement placement :
       {ir::UpdatePlacement::Before, ir::UpdatePlacement::After,
        ir::UpdatePlacement::BodyBegin, ir::UpdatePlacement::BodyEnd}) {
    const auto parsed =
        ir::updatePlacementFromName(ir::updatePlacementName(placement));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, placement);
  }
  EXPECT_FALSE(ir::mapTypeFromName("sideways").has_value());
  EXPECT_FALSE(ir::updateDirectionFromName("diagonal").has_value());
}

TEST(IrNamesTest, ModifierSpellings) {
  ir::MapModifiers modifiers;
  EXPECT_EQ(ir::mapTypeSpellingWithModifiers(ir::MapType::To, modifiers),
            "to");
  modifiers.always = true;
  EXPECT_EQ(ir::mapTypeSpellingWithModifiers(ir::MapType::To, modifiers),
            "always, to");
  modifiers.present = true;
  EXPECT_EQ(
      ir::mapTypeSpellingWithModifiers(ir::MapType::ToFrom, modifiers),
      "always, present, tofrom");
}

// --- JSON round-trips ---

ir::MappingIr handcraftedIr() {
  ir::MappingIr out;
  out.file = "crafted.c";
  ir::Symbol a;
  a.id = 0;
  a.name = "a";
  a.declOffset = 12;
  a.declLine = 2;
  a.isParam = true;
  a.elemBytes = 8;
  out.symbols.push_back(a);
  ir::Symbol n;
  n.id = 1;
  n.name = "n";
  n.declOffset = 24;
  n.declLine = 2;
  n.isGlobal = true;
  n.elemBytes = 4;
  out.symbols.push_back(n);

  ir::Region region;
  region.function = "f";
  region.start.beginOffset = 40;
  region.start.endOffset = 200;
  region.start.line = 4;
  region.start.endLine = 10;
  region.end = region.start;
  region.entryCount = 30;

  ir::MapItem map;
  map.symbol = 0;
  map.type = ir::MapType::ToFrom;
  map.modifiers.always = true;
  map.modifiers.present = true;
  map.item = "a[0:n]";
  map.extent = ir::Extent::symbolic("n");
  map.approxBytes = 800;
  region.maps.push_back(map);

  ir::UpdateItem update;
  update.symbol = 0;
  update.direction = ir::UpdateDirection::From;
  update.placement = ir::UpdatePlacement::BodyEnd;
  update.hoisted = true;
  update.item = "a[0:n]";
  update.extent = ir::Extent::constant(100);
  update.approxBytes = 800;
  update.executions = 16;
  update.anchor.beginOffset = 60;
  update.anchor.endOffset = 180;
  update.anchor.line = 5;
  update.anchor.endLine = 9;
  update.anchor.hasBody = true;
  update.anchor.bodyIsCompound = true;
  update.anchor.bodyBeginOffset = 80;
  update.anchor.bodyEndOffset = 170;
  region.updates.push_back(update);

  ir::FirstprivateItem fp;
  fp.symbol = 1;
  fp.var = "n";
  fp.kernelLine = 6;
  fp.kernelPragmaEndOffset = 120;
  region.firstprivates.push_back(fp);

  out.regions.push_back(region);
  return out;
}

TEST(IrJsonTest, HandcraftedRoundTripIsExact) {
  const ir::MappingIr original = handcraftedIr();
  const std::string serialized = original.toJson().dump(/*pretty=*/true);
  std::string parseError;
  const auto parsed = json::Value::parse(serialized, &parseError);
  ASSERT_TRUE(parsed.has_value()) << parseError;
  std::string irError;
  const auto restored = ir::MappingIr::fromJson(*parsed, &irError);
  ASSERT_TRUE(restored.has_value()) << irError;
  EXPECT_EQ(*restored, original);
}

TEST(IrJsonTest, FingerprintTracksContent) {
  const ir::MappingIr original = handcraftedIr();
  ir::MappingIr copy = handcraftedIr();
  EXPECT_EQ(original.fingerprint(), copy.fingerprint());
  EXPECT_EQ(original.fingerprint().size(), 32u);

  copy.regions.front().entryCount += 1;
  EXPECT_NE(original.fingerprint(), copy.fingerprint());

  ir::MappingIr viaJson =
      *ir::MappingIr::fromJson(original.toJson());
  EXPECT_EQ(viaJson.fingerprint(), original.fingerprint());
}

TEST(IrJsonTest, RejectsUnknownEnumSpellings) {
  json::Value doc = json::Value::object();
  json::Value regions = json::Value::array();
  json::Value region = json::Value::object();
  json::Value maps = json::Value::array();
  json::Value map = json::Value::object();
  map.set("type", "teleport");
  maps.push(std::move(map));
  region.set("maps", std::move(maps));
  regions.push(std::move(region));
  doc.set("regions", std::move(regions));
  std::string error;
  EXPECT_FALSE(ir::MappingIr::fromJson(doc, &error).has_value());
  EXPECT_FALSE(error.empty());

  EXPECT_FALSE(ir::MappingIr::fromJson(json::Value(7), &error).has_value());
}

/// Property: random IRs survive serialize -> parse -> deserialize exactly.
TEST(IrJsonTest, PropertyRandomIrsRoundTrip) {
  std::mt19937 rng(20240715);
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (int seed = 0; seed < 50; ++seed) {
    ir::MappingIr original;
    original.file = "prop" + std::to_string(seed) + ".c";
    const int symbolCount = pick(1, 5);
    for (int s = 0; s < symbolCount; ++s) {
      ir::Symbol sym;
      sym.id = static_cast<ir::SymbolId>(s);
      sym.name = "v" + std::to_string(s);
      sym.declOffset = static_cast<std::size_t>(pick(0, 5000));
      sym.declLine = static_cast<unsigned>(pick(1, 200));
      sym.isGlobal = pick(0, 1) == 1;
      sym.isParam = !sym.isGlobal && pick(0, 1) == 1;
      sym.elemBytes = static_cast<std::uint64_t>(pick(1, 16));
      original.symbols.push_back(sym);
    }
    const int regionCount = pick(1, 3);
    for (int r = 0; r < regionCount; ++r) {
      ir::Region region;
      region.function = "fn" + std::to_string(r);
      region.start.beginOffset = static_cast<std::size_t>(pick(0, 9000));
      region.start.endOffset =
          region.start.beginOffset + static_cast<std::size_t>(pick(1, 500));
      region.start.line = static_cast<unsigned>(pick(1, 300));
      region.start.endLine = region.start.line + pick(0, 30);
      region.end = region.start;
      region.appendsToKernel = pick(0, 1) == 1;
      if (region.appendsToKernel)
        region.soleKernelPragmaEndOffset =
            static_cast<std::size_t>(pick(0, 9000));
      region.entryCount = static_cast<std::uint64_t>(pick(1, 1000));
      const int mapCount = pick(0, 4);
      for (int m = 0; m < mapCount; ++m) {
        ir::MapItem map;
        map.symbol = static_cast<ir::SymbolId>(pick(0, symbolCount - 1));
        map.type = kAllTypes[pick(0, 5)];
        map.modifiers.always = pick(0, 1) == 1;
        map.modifiers.present = pick(0, 1) == 1;
        map.modifiers.close = pick(0, 1) == 1;
        map.item = "v" + std::to_string(map.symbol) + "[0:k]";
        switch (pick(0, 2)) {
        case 0:
          map.extent = ir::Extent::whole();
          break;
        case 1:
          map.extent =
              ir::Extent::constant(static_cast<std::uint64_t>(pick(0, 4096)));
          break;
        default:
          map.extent = ir::Extent::symbolic("k" + std::to_string(m));
          break;
        }
        map.approxBytes = static_cast<std::uint64_t>(pick(0, 100000));
        region.maps.push_back(map);
      }
      const int updateCount = pick(0, 3);
      for (int u = 0; u < updateCount; ++u) {
        ir::UpdateItem update;
        update.symbol = static_cast<ir::SymbolId>(pick(0, symbolCount - 1));
        update.direction = pick(0, 1) == 1 ? ir::UpdateDirection::To
                                           : ir::UpdateDirection::From;
        const ir::UpdatePlacement placements[] = {
            ir::UpdatePlacement::Before, ir::UpdatePlacement::After,
            ir::UpdatePlacement::BodyBegin, ir::UpdatePlacement::BodyEnd};
        update.placement = placements[pick(0, 3)];
        update.hoisted = pick(0, 1) == 1;
        update.item = "v" + std::to_string(update.symbol);
        update.approxBytes = static_cast<std::uint64_t>(pick(0, 100000));
        update.executions = static_cast<std::uint64_t>(pick(1, 100000));
        update.anchor.beginOffset = static_cast<std::size_t>(pick(0, 9000));
        update.anchor.endOffset =
            update.anchor.beginOffset + static_cast<std::size_t>(pick(1, 300));
        update.anchor.line = static_cast<unsigned>(pick(1, 300));
        update.anchor.endLine = update.anchor.line + pick(0, 10);
        update.anchor.hasBody = pick(0, 1) == 1;
        if (update.anchor.hasBody) {
          update.anchor.bodyIsCompound = pick(0, 1) == 1;
          update.anchor.bodyBeginOffset =
              update.anchor.beginOffset + static_cast<std::size_t>(pick(0, 50));
          update.anchor.bodyEndOffset =
              update.anchor.endOffset - static_cast<std::size_t>(pick(0, 1));
        }
        region.updates.push_back(update);
      }
      const int fpCount = pick(0, 2);
      for (int f = 0; f < fpCount; ++f) {
        ir::FirstprivateItem fp;
        fp.symbol = static_cast<ir::SymbolId>(pick(0, symbolCount - 1));
        fp.var = "v" + std::to_string(fp.symbol);
        fp.kernelLine = static_cast<unsigned>(pick(1, 300));
        fp.kernelPragmaEndOffset = static_cast<std::size_t>(pick(0, 9000));
        region.firstprivates.push_back(fp);
      }
      original.regions.push_back(std::move(region));
    }

    const auto parsed = json::Value::parse(original.toJson().dump());
    ASSERT_TRUE(parsed.has_value()) << "seed " << seed;
    const auto restored = ir::MappingIr::fromJson(*parsed);
    ASSERT_TRUE(restored.has_value()) << "seed " << seed;
    EXPECT_EQ(*restored, original) << "seed " << seed;
  }
}

// --- IRs planned by real Sessions ---

const char *const kSaxpySource =
    R"(void saxpy(double *x, double *y, int n) {
  double a = 2.0;
  for (int iter = 0; iter < 100; ++iter) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < n; ++i) {
      y[i] = a * x[i] + y[i];
    }
  }
}
)";

TEST(IrLiftTest, SessionIrMatchesThePlan) {
  Session session("saxpy.c", kSaxpySource);
  ASSERT_TRUE(session.run());
  const ir::MappingIr &ir = session.ir();

  EXPECT_EQ(ir.file, "saxpy.c");
  const ir::Region *region = ir.regionFor("saxpy");
  ASSERT_NE(region, nullptr);

  // Every referenced symbol resolves in the symbol table, by id and name.
  for (const ir::MapItem &map : region->maps) {
    const ir::Symbol *symbol = ir.symbol(map.symbol);
    ASSERT_NE(symbol, nullptr);
    EXPECT_NE(ir.findSymbol(symbol->name), nullptr);
  }
  // x and y are pointer params with symbolic extent "n".
  const ir::Symbol *x = ir.findSymbol("x");
  ASSERT_NE(x, nullptr);
  EXPECT_TRUE(x->isParam);
  EXPECT_EQ(x->elemBytes, 8u);
}

TEST(IrLiftTest, SessionIrJsonRoundTrips) {
  Session session("saxpy.c", kSaxpySource);
  ASSERT_TRUE(session.run());
  const auto parsed = json::Value::parse(session.ir().toJson().dump(true));
  ASSERT_TRUE(parsed.has_value());
  const auto restored = ir::MappingIr::fromJson(*parsed);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, session.ir());
}

TEST(IrSelfContainmentTest, SerializedIrReproducesRewriteWithoutAst) {
  // The whole point of the IR: serialize the plan, drop the session (AST
  // and all), and reproduce the transformed source from the IR + the
  // original buffer alone.
  std::string serialized;
  std::string viaSession;
  {
    Session session("saxpy.c", kSaxpySource);
    ASSERT_TRUE(session.run());
    serialized = session.ir().toJson().dump();
    viaSession = session.rewrite();
  }
  const auto parsed = json::Value::parse(serialized);
  ASSERT_TRUE(parsed.has_value());
  const auto restored = ir::MappingIr::fromJson(*parsed);
  ASSERT_TRUE(restored.has_value());
  SourceManager buffer("saxpy.c", kSaxpySource);
  EXPECT_EQ(applyMappingIr(buffer, *restored), viaSession);
}

TEST(IrRewriteTest, ModifiersSpellInMapClauses) {
  // The rewriter spells modifier sets; modifier-free items keep the classic
  // clause shape and lead the group order.
  ir::MappingIr ir;
  ir.file = "mods.c";
  const std::string source = "void f(void) {\n  int x;\n  x = 1;\n}\n";
  ir::Region region;
  region.function = "f";
  region.start.beginOffset = source.find("x = 1");
  region.start.endOffset = region.start.beginOffset + 5;
  region.start.line = 3;
  region.start.endLine = 3;
  region.end = region.start;
  ir::MapItem plain;
  plain.symbol = 0;
  plain.type = ir::MapType::To;
  plain.item = "x";
  region.maps.push_back(plain);
  ir::MapItem alwaysTo;
  alwaysTo.symbol = 0;
  alwaysTo.type = ir::MapType::To;
  alwaysTo.modifiers.always = true;
  alwaysTo.item = "y";
  region.maps.push_back(alwaysTo);
  ir.regions.push_back(region);

  SourceManager buffer("mods.c", source);
  const std::string out = applyMappingIr(buffer, ir);
  const auto plainPos = out.find("map(to: x)");
  const auto modifiedPos = out.find("map(always, to: y)");
  ASSERT_NE(plainPos, std::string::npos) << out;
  ASSERT_NE(modifiedPos, std::string::npos) << out;
  EXPECT_LT(plainPos, modifiedPos);
}

} // namespace
} // namespace ompdart
