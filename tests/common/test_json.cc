/** @file Unit tests for the dependency-free JSON parser. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/json.h"

namespace reuse {
namespace {

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parseJson("null").value.isNull());
    EXPECT_TRUE(parseJson("true").value.asBool());
    EXPECT_FALSE(parseJson("false").value.asBool());
    EXPECT_DOUBLE_EQ(parseJson("3.5").value.asNumber(), 3.5);
    EXPECT_DOUBLE_EQ(parseJson("-0.25e2").value.asNumber(), -25.0);
    EXPECT_EQ(parseJson("42").value.asInt(), 42);
    EXPECT_EQ(parseJson("\"hi\"").value.asString(), "hi");
}

TEST(Json, ParsesNestedStructures)
{
    const JsonParseResult r = parseJson(
        "{\"a\": [1, 2, {\"b\": true}], \"c\": {\"d\": null}}");
    ASSERT_TRUE(r.ok) << r.error;
    const JsonValue &v = r.value;
    ASSERT_TRUE(v.isObject());
    ASSERT_TRUE(v.has("a"));
    const JsonValue::Array &a = v.at("a").asArray();
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a[0].asInt(), 1);
    EXPECT_TRUE(a[2].at("b").asBool());
    EXPECT_TRUE(v.at("c").at("d").isNull());
    EXPECT_FALSE(v.has("missing"));
}

TEST(Json, ParsesStringEscapes)
{
    const JsonParseResult r =
        parseJson("\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value.asString(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(Json, RejectsMalformedInput)
{
    EXPECT_FALSE(parseJson("").ok);
    EXPECT_FALSE(parseJson("{").ok);
    EXPECT_FALSE(parseJson("[1,]").ok);
    EXPECT_FALSE(parseJson("{\"a\" 1}").ok);
    EXPECT_FALSE(parseJson("\"unterminated").ok);
    EXPECT_FALSE(parseJson("nul").ok);
    EXPECT_FALSE(parseJson("1 trailing").ok);
    EXPECT_FALSE(parseJson("{\"a\":1,}").ok);
}

TEST(Json, ErrorsCarryContext)
{
    const JsonParseResult r = parseJson("{\"a\": }");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("offset"), std::string::npos);
}

TEST(Json, ParseFileRoundTrip)
{
    const std::string path =
        testing::TempDir() + "json_roundtrip.json";
    {
        std::ofstream out(path);
        out << "{\"x\": [1, 2, 3]}";
    }
    const JsonParseResult r = parseJsonFile(path);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value.at("x").asArray().size(), 3u);
    std::remove(path.c_str());

    const JsonParseResult missing =
        parseJsonFile("/nonexistent/trace.json");
    EXPECT_FALSE(missing.ok);
    EXPECT_NE(missing.error.find("trace.json"), std::string::npos);
}

TEST(Json, EscapeProducesParseableStrings)
{
    const std::string nasty = "a\"b\\c\nd\te\x01";
    // Appended in place: GCC 12's -Wrestrict misfires on
    // `"..." + std::string` in Release builds.
    std::string quoted(1, '"');
    quoted += jsonEscape(nasty);
    quoted += '"';
    const JsonParseResult r = parseJson(quoted);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value.asString(), nasty);
}

} // namespace
} // namespace reuse
