// util::JsonValue: the DOM every exported telemetry document (and the
// obsq tool) round-trips through. Parser strictness, escape handling
// and deterministic re-serialisation are what the post-mortem tooling
// leans on, so they are pinned here.
#include <gtest/gtest.h>

#include "util/json.hpp"

namespace onelab::util {
namespace {

JsonValue parsed(const std::string& text) {
    auto result = JsonValue::parse(text);
    EXPECT_TRUE(result.ok()) << text << " -> " << result.error().message;
    return result.ok() ? std::move(result).take() : JsonValue{};
}

TEST(Json, ParsesScalars) {
    EXPECT_TRUE(parsed("null").isNull());
    EXPECT_TRUE(parsed("true").boolean());
    EXPECT_FALSE(parsed("false").boolean());
    EXPECT_DOUBLE_EQ(parsed("42").number(), 42.0);
    EXPECT_DOUBLE_EQ(parsed("-3.25e2").number(), -325.0);
    EXPECT_EQ(parsed("\"hi\"").string(), "hi");
}

TEST(Json, ParsesNestedDocument) {
    const JsonValue doc = parsed(
        R"json({"reason":"test","dropped":0,"entries":[{"kind":"log","t_ns":12,"value":-1}]})json");
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.stringOr("reason", ""), "test");
    EXPECT_DOUBLE_EQ(doc.numberOr("dropped", -1.0), 0.0);
    const JsonValue* entries = doc.find("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_TRUE(entries->isArray());
    ASSERT_EQ(entries->array().size(), 1u);
    EXPECT_EQ(entries->array()[0].stringOr("kind", ""), "log");
    EXPECT_DOUBLE_EQ(entries->array()[0].numberOr("value", 0.0), -1.0);
}

TEST(Json, StringEscapes) {
    EXPECT_EQ(parsed(R"("a\"b\\c\/d\n\t")").string(), "a\"b\\c/d\n\t");
    // \uXXXX decodes to UTF-8: ASCII, two-byte and three-byte forms.
    EXPECT_EQ(parsed(R"("A")").string(), "A");
    EXPECT_EQ(parsed("\"\\u00e9\"").string(), "\xc3\xa9");
    EXPECT_EQ(parsed("\"\\u20ac\"").string(), "\xe2\x82\xac");
}

TEST(Json, RejectsMalformedInput) {
    EXPECT_FALSE(JsonValue::parse("").ok());
    EXPECT_FALSE(JsonValue::parse("{").ok());
    EXPECT_FALSE(JsonValue::parse("[1,]").ok());
    EXPECT_FALSE(JsonValue::parse("{\"a\":1,}").ok());
    EXPECT_FALSE(JsonValue::parse("\"unterminated").ok());
    EXPECT_FALSE(JsonValue::parse("nul").ok());
    EXPECT_FALSE(JsonValue::parse("1 2").ok());  // trailing garbage
}

TEST(Json, RejectsRepeatedObjectKeys) {
    // Not last-wins: a repeated key fails the whole document, at any
    // depth, while the same key in sibling objects is fine.
    EXPECT_FALSE(JsonValue::parse(R"json({"a":1,"a":2})json").ok());
    EXPECT_FALSE(JsonValue::parse(R"json({"a":1,"b":{"c":1,"c":1}})json").ok());
    EXPECT_FALSE(JsonValue::parse(R"json([{"k":"x","k":"y"}])json").ok());
    const JsonValue siblings = parsed(R"json([{"k":1},{"k":2}])json");
    ASSERT_EQ(siblings.array().size(), 2u);
    EXPECT_DOUBLE_EQ(siblings.array()[1].numberOr("k", 0.0), 2.0);
}

TEST(Json, SerializeRoundTripsAndPreservesMemberOrder) {
    const char* text =
        R"json({"z":1,"a":[true,null,"x\n"],"m":{"k":2.5}})json";
    const JsonValue doc = parsed(text);
    const std::string once = doc.serialize();
    // Key order is document order, not sorted: "z" stays first.
    EXPECT_EQ(once, R"json({"z":1,"a":[true,null,"x\n"],"m":{"k":2.5}})json");
    EXPECT_EQ(parsed(once).serialize(), once);
}

TEST(Json, BuildersAndLookupHelpers) {
    JsonValue object = JsonValue::makeObject();
    object.set("name", JsonValue::makeString("flight"));
    object.set("count", JsonValue::makeNumber(3));
    JsonValue list = JsonValue::makeArray();
    list.append(JsonValue::makeBool(true));
    object.set("flags", std::move(list));
    EXPECT_EQ(object.serialize(), R"json({"name":"flight","count":3,"flags":[true]})json");
    EXPECT_EQ(object.stringOr("name", "?"), "flight");
    EXPECT_DOUBLE_EQ(object.numberOr("count", 0.0), 3.0);
    EXPECT_DOUBLE_EQ(object.numberOr("absent", -1.0), -1.0);
    EXPECT_EQ(object.find("absent"), nullptr);
    // set() replaces in place, keeping the original slot's position.
    object.set("name", JsonValue::makeString("profile"));
    EXPECT_EQ(object.members().front().second.string(), "profile");
}

TEST(Json, NumberFormattingMatchesExporters) {
    std::string out;
    appendJsonNumber(out, 42.0);
    out += ",";
    appendJsonNumber(out, 2.5);
    EXPECT_EQ(out, "42,2.5");
    std::string quoted;
    appendJsonQuoted(quoted, "a\"b\n\x01");
    EXPECT_EQ(quoted, "\"a\\\"b\\n\\u0001\"");
}

}  // namespace
}  // namespace onelab::util
