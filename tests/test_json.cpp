// util::JsonValue edge cases: escape handling, nesting-depth bound,
// number parsing at the edges (exponents, -0, overflow, partial
// consumption), document-order member enumeration, and the trailing-
// content guard.  The parser feeds every protocol request and every
// stored job record, so its failure mode must be a clean exception.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "phes/util/json.hpp"

namespace phes {
namespace {

using util::JsonValue;

std::string parse_error(const std::string& text) {
  try {
    (void)JsonValue::parse(text);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(Json, StringEscapesDecode) {
  const auto v = JsonValue::parse(
      R"({"s": "a\"b\\c\/d\b\f\n\r\t"})");
  EXPECT_EQ(v.string_or("s", ""), "a\"b\\c/d\b\f\n\r\t");
}

TEST(Json, UnicodeEscapesEncodeMinimalUtf8) {
  EXPECT_EQ(JsonValue::parse(R"("\u0041")").as_string(), "A");
  // 2-byte and 3-byte code points.
  EXPECT_EQ(JsonValue::parse(R"("\u00e9")").as_string(), "\xC3\xA9");
  EXPECT_EQ(JsonValue::parse(R"("\u20AC")").as_string(), "\xE2\x82\xAC");
  // Control characters are what the writer actually emits \u for.
  EXPECT_EQ(JsonValue::parse(R"("\u0001")").as_string(), "\x01");
}

TEST(Json, MalformedEscapesThrow) {
  EXPECT_NE(parse_error(R"("\q")").find("unknown escape"),
            std::string::npos);
  EXPECT_NE(parse_error(R"("\u12)").find("truncated \\u escape"),
            std::string::npos);
  EXPECT_NE(parse_error(R"("\uzzzz")").find("bad \\u escape digit"),
            std::string::npos);
  EXPECT_NE(parse_error("\"unterminated").find("unterminated string"),
            std::string::npos);
}

TEST(Json, NestingDepthIsBoundedAt64) {
  std::string ok, too_deep;
  for (int i = 0; i < 64; ++i) ok += '[';
  for (int i = 0; i < 64; ++i) ok += ']';
  EXPECT_NO_THROW((void)JsonValue::parse(ok));
  for (int i = 0; i < 65; ++i) too_deep += '[';
  for (int i = 0; i < 65; ++i) too_deep += ']';
  EXPECT_NE(parse_error(too_deep).find("nesting too deep"),
            std::string::npos);
  // Mixed object/array nesting counts against the same bound.
  std::string mixed;
  for (int i = 0; i < 33; ++i) mixed += "{\"k\": [";
  EXPECT_NE(parse_error(mixed + "1").find("nesting too deep"),
            std::string::npos);
}

TEST(Json, NumberEdgeCases) {
  EXPECT_DOUBLE_EQ(JsonValue::parse("1.5e3").as_number(), 1500.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("2E-2").as_number(), 0.02);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-0").as_number(), 0.0);
  EXPECT_EQ(JsonValue::parse("-0").as_uint(), 0u);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-12.25").as_number(), -12.25);
  // Overflowing the double range is a parse error, not infinity.
  EXPECT_NE(parse_error("1e400").find("bad number"), std::string::npos);
  // Partially-consumable garbage is rejected, not truncated.
  EXPECT_NE(parse_error("1.2.3").find("bad number"), std::string::npos);
  EXPECT_NE(parse_error("1e"), "");
  EXPECT_NE(parse_error("-"), "");
}

TEST(Json, AsUintRejectsNegativesAndFractions) {
  EXPECT_EQ(JsonValue::parse("7").as_uint(), 7u);
  EXPECT_THROW((void)JsonValue::parse("-3").as_uint(),
               std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("1.5").as_uint(),
               std::runtime_error);
}

TEST(Json, AsUintRejectsValuesPastUint64) {
  // The largest double below 2^64 converts exactly; 2^64 and up would
  // be an undefined float-to-integer cast.
  EXPECT_EQ(JsonValue::parse("18446744073709549568").as_uint(),
            18446744073709549568ull);
  EXPECT_THROW((void)JsonValue::parse("18446744073709551616").as_uint(),
               std::runtime_error);
  EXPECT_THROW((void)JsonValue::parse("{\"id\": 1e30}").uint_or("id", 7),
               std::runtime_error);
}

TEST(Json, MembersPreserveDocumentOrderIncludingDuplicates) {
  const auto v = JsonValue::parse(
      R"({"z": 1, "a": 2, "m": 3, "z": 4})");
  const auto& members = v.members();
  ASSERT_EQ(members.size(), 4u);
  EXPECT_EQ(members[0].first, "z");
  EXPECT_EQ(members[1].first, "a");
  EXPECT_EQ(members[2].first, "m");
  EXPECT_EQ(members[3].first, "z");
  // find() resolves duplicates to the first occurrence.
  EXPECT_DOUBLE_EQ(v.find("z")->as_number(), 1.0);
}

TEST(Json, TrailingContentAndBareGarbageThrow) {
  EXPECT_NE(parse_error("{} extra").find("trailing content"),
            std::string::npos);
  EXPECT_NE(parse_error("0x10").find("trailing content"),
            std::string::npos);
  EXPECT_NE(parse_error("").find("unexpected end of input"),
            std::string::npos);
  EXPECT_NE(parse_error("tru").find("bad literal"), std::string::npos);
  EXPECT_NE(parse_error("@").find("unexpected character"),
            std::string::npos);
}

TEST(Json, TypeMismatchesThrowCleanly) {
  const auto v = JsonValue::parse(R"({"n": 1, "s": "x", "a": []})");
  EXPECT_THROW((void)v.find("n")->as_string(), std::runtime_error);
  EXPECT_THROW((void)v.find("s")->as_number(), std::runtime_error);
  EXPECT_THROW((void)v.find("a")->members(), std::runtime_error);
  EXPECT_THROW((void)v.items(), std::runtime_error);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(JsonValue::parse("null").type(), JsonValue::Type::kNull);
  EXPECT_EQ(JsonValue::parse("[1]").find("k"), nullptr)
      << "find on a non-object is nullptr, not a throw";
}

}  // namespace
}  // namespace phes
