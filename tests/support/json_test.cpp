// Tests for the JSON value model (writer determinism, strict parser,
// integer fidelity) and the diagnostics sink/ordering machinery.
#include "support/diagnostics.hpp"
#include "support/json.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace ompdart {
namespace {

TEST(JsonTest, ScalarsSerializeAndParse) {
  EXPECT_EQ(json::Value().dump(), "null");
  EXPECT_EQ(json::Value(true).dump(), "true");
  EXPECT_EQ(json::Value(false).dump(), "false");
  EXPECT_EQ(json::Value(42).dump(), "42");
  EXPECT_EQ(json::Value(-7).dump(), "-7");
  EXPECT_EQ(json::Value("hi").dump(), "\"hi\"");
  EXPECT_EQ(json::Value(1.5).dump(), "1.5");

  EXPECT_EQ(json::Value::parse("42")->asInt(), 42);
  EXPECT_EQ(json::Value::parse("-7")->asInt(), -7);
  EXPECT_TRUE(json::Value::parse("true")->asBool());
  EXPECT_TRUE(json::Value::parse("null")->isNull());
  EXPECT_DOUBLE_EQ(json::Value::parse("2.75")->asDouble(), 2.75);
  EXPECT_DOUBLE_EQ(json::Value::parse("1e3")->asDouble(), 1000.0);
}

TEST(JsonTest, NestingPastTheDepthLimitIsAnError) {
  auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(json::Value::parse(nested(256)).has_value());
  for (const std::size_t depth : {257u, 200000u}) {
    std::string error;
    EXPECT_FALSE(json::Value::parse(nested(depth), &error).has_value());
    EXPECT_NE(error.find("nesting exceeds the maximum depth"),
              std::string::npos)
        << error;
  }
}

TEST(JsonTest, LargeIntegersSurviveExactly) {
  const std::uint64_t big = (1ull << 53) + 1; // not representable as double
  json::Value value(big);
  const std::optional<json::Value> parsed = json::Value::parse(value.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->asUint(), big);
}

TEST(JsonTest, DoublesKeepTheirKindThroughARoundTrip) {
  // A whole-number double must re-parse as Double, not Int, or report
  // equality breaks after round trips.
  json::Value seconds(3.0);
  const std::optional<json::Value> parsed =
      json::Value::parse(seconds.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, seconds);
}

TEST(JsonTest, StringEscaping) {
  json::Value value(std::string("line\n\"quote\"\tand \\ control\x01"));
  const std::string dumped = value.dump();
  const std::optional<json::Value> parsed = json::Value::parse(dumped);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, value);
  EXPECT_NE(dumped.find("\\n"), std::string::npos);
  EXPECT_NE(dumped.find("\\u0001"), std::string::npos);
}

TEST(JsonTest, ObjectsPreserveInsertionOrder) {
  json::Value object = json::Value::object();
  object.set("zulu", 1);
  object.set("alpha", 2);
  object.set("mike", 3);
  EXPECT_EQ(object.dump(), "{\"zulu\":1,\"alpha\":2,\"mike\":3}");
  // Overwrite keeps the original position.
  object.set("alpha", 9);
  EXPECT_EQ(object.dump(), "{\"zulu\":1,\"alpha\":9,\"mike\":3}");
}

TEST(JsonTest, NestedStructuresRoundTrip) {
  json::Value doc = json::Value::object();
  json::Value list = json::Value::array();
  for (int i = 0; i < 3; ++i) {
    json::Value entry = json::Value::object();
    entry.set("index", i);
    entry.set("label", "item-" + std::to_string(i));
    list.push(std::move(entry));
  }
  doc.set("items", std::move(list));
  doc.set("empty", json::Value::array());
  doc.set("nothing", json::Value());

  for (const bool pretty : {false, true}) {
    const std::optional<json::Value> parsed =
        json::Value::parse(doc.dump(pretty));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, doc);
  }
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(json::Value::parse("{", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(json::Value::parse("[1,]").has_value());
  EXPECT_FALSE(json::Value::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(json::Value::parse("\"unterminated").has_value());
  EXPECT_FALSE(json::Value::parse("12 34").has_value());
  EXPECT_FALSE(json::Value::parse("tru").has_value());
  EXPECT_FALSE(json::Value::parse("").has_value());
}

TEST(JsonTest, ParseErrorCarriesLineAndColumn) {
  std::string error;
  EXPECT_FALSE(json::Value::parse("{\n  \"a\": !\n}", &error).has_value());
  EXPECT_EQ(error.rfind("2:", 0), 0u) << error;
}

// --- diagnostics sinks and ordering ---

TEST(DiagnosticSinkTest, EngineCollectsByDefault) {
  DiagnosticEngine engine;
  engine.error(SourceLocation{10, 2, 1}, "boom");
  engine.warning(SourceLocation{4, 1, 5}, "hmm");
  EXPECT_EQ(engine.diagnostics().size(), 2u);
  EXPECT_TRUE(engine.hasErrors());
  EXPECT_EQ(engine.errorCount(), 1u);
}

TEST(DiagnosticSinkTest, AttachedSinkSeesEveryDiagnostic) {
  DiagnosticEngine engine;
  std::vector<Diagnostic> forwarded;
  CollectingSink sink(forwarded);
  engine.setSink(&sink);
  engine.error(SourceLocation{0, 1, 1}, "first");
  engine.note(SourceLocation{5, 1, 6}, "second");
  ASSERT_EQ(forwarded.size(), 2u);
  EXPECT_EQ(forwarded[0].message, "first");
  EXPECT_EQ(forwarded[1].message, "second");
  // Collection still happens alongside the sink.
  EXPECT_EQ(engine.diagnostics().size(), 2u);

  engine.setSink(nullptr);
  engine.warning(SourceLocation{9, 2, 1}, "third");
  EXPECT_EQ(forwarded.size(), 2u);
  EXPECT_EQ(engine.diagnostics().size(), 3u);
}

TEST(DiagnosticSinkTest, StreamSinkPrettyPrints) {
  std::ostringstream out;
  StreamSink sink(out, "demo.c");
  DiagnosticEngine engine;
  engine.setSink(&sink);
  engine.error(SourceLocation{12, 3, 5}, "undeclared identifier");
  EXPECT_EQ(out.str(), "demo.c:3:5: error: undeclared identifier\n");

  std::ostringstream bare;
  StreamSink nameless(bare);
  nameless.handle(Diagnostic{Severity::Warning, SourceLocation{0, 1, 1},
                             "careful"});
  EXPECT_EQ(bare.str(), "1:1: warning: careful\n");
}

TEST(DiagnosticSinkTest, SortedDiagnosticsAreDeterministic) {
  DiagnosticEngine engine;
  engine.note(SourceLocation{50, 5, 1}, "later");
  engine.error(SourceLocation{}, "no location");
  engine.error(SourceLocation{10, 2, 1}, "earlier");
  engine.warning(SourceLocation{10, 2, 1}, "same spot, lower severity");

  const std::vector<Diagnostic> sorted = engine.sortedDiagnostics();
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[0].message, "earlier"); // errors first at equal locations
  EXPECT_EQ(sorted[1].message, "same spot, lower severity");
  EXPECT_EQ(sorted[2].message, "later");
  EXPECT_EQ(sorted[3].message, "no location"); // invalid locations last
  // Emission order is untouched.
  EXPECT_EQ(engine.diagnostics().front().message, "later");
}

} // namespace
} // namespace ompdart
