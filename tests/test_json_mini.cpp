// The obs/json_mini.hpp contract: a deliberately small JSON reader for the
// subset our own writers emit. These tests pin both directions of that
// bargain — everything the writers produce parses exactly, and everything
// outside the subset (or malformed) is a hard, located parse error rather
// than a silent best guess. Also pins the lenient bench parser and the
// perf-trajectory table built on top of it (`lad report`).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "obs/diff.hpp"
#include "obs/json_mini.hpp"

namespace lad {
namespace {

using obs::jsonmini::JsonParser;
using obs::jsonmini::JsonValue;
using obs::jsonmini::json_escape;
using obs::jsonmini::num_field;
using obs::jsonmini::str_field;

JsonValue parse(const std::string& text) { return JsonParser(text, "test JSON").parse(); }

// --- Accepted subset -------------------------------------------------------

TEST(JsonMini, ParsesScalarsArraysAndNestedObjects) {
  const JsonValue root = parse(R"({
    "s": "hello",
    "t": true,
    "f": false,
    "i": 42,
    "nested": {"inner": [1, 2, {"deep": [[]]}]},
    "empty_obj": {},
    "empty_arr": []
  })");
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(str_field(root, "s", true), "hello");
  EXPECT_TRUE(root.find("t")->boolean);
  EXPECT_FALSE(root.find("f")->boolean);
  EXPECT_EQ(num_field(root, "i", true), 42.0);

  const JsonValue* nested = root.find("nested");
  ASSERT_NE(nested, nullptr);
  const JsonValue* inner = nested->find("inner");
  ASSERT_NE(inner, nullptr);
  ASSERT_EQ(inner->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(inner->array.size(), 3u);
  EXPECT_EQ(inner->array[0].number, 1.0);
  ASSERT_EQ(inner->array[2].kind, JsonValue::Kind::kObject);
  const JsonValue* deep = inner->array[2].find("deep");
  ASSERT_NE(deep, nullptr);
  ASSERT_EQ(deep->array.size(), 1u);
  EXPECT_TRUE(deep->array[0].array.empty());
  EXPECT_TRUE(root.find("empty_obj")->object.empty());
  EXPECT_TRUE(root.find("empty_arr")->array.empty());
  // Object iteration preserves insertion order (writers rely on it).
  EXPECT_EQ(root.object.front().first, "s");
  EXPECT_EQ(root.object.back().first, "empty_arr");
}

TEST(JsonMini, NumericEdges) {
  EXPECT_DOUBLE_EQ(parse("0").number, 0.0);
  EXPECT_DOUBLE_EQ(parse("-7").number, -7.0);
  EXPECT_DOUBLE_EQ(parse("0.5").number, 0.5);
  EXPECT_DOUBLE_EQ(parse("-0.125").number, -0.125);
  EXPECT_DOUBLE_EQ(parse("1e3").number, 1000.0);
  EXPECT_DOUBLE_EQ(parse("2.5E-2").number, 0.025);
  EXPECT_DOUBLE_EQ(parse("1e+2").number, 100.0);
  // 16-digit integers (our counters) survive without truncation.
  EXPECT_DOUBLE_EQ(parse("9007199254740992").number, 9007199254740992.0);
}

TEST(JsonMini, SupportedEscapes) {
  EXPECT_EQ(parse(R"("a\"b")").string, "a\"b");
  EXPECT_EQ(parse(R"("a\\b")").string, "a\\b");
  // json_escape and the parser are inverses on the supported subset.
  const std::string raw = R"(path\with "quotes")";
  EXPECT_EQ(parse("\"" + json_escape(raw) + "\"").string, raw);
}

// --- Rejected inputs -------------------------------------------------------

void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    parse(text);
    FAIL() << "expected parse error for: " << text;
  } catch (const std::runtime_error& e) {
    // Errors carry the artifact name and a byte offset for locating them.
    EXPECT_NE(std::string(e.what()).find("test JSON parse error at byte"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(JsonMini, RejectsMalformedNumbers) {
  // The greedy scan accepts shapes stod rejects; those must surface as
  // located parse errors, not std::invalid_argument leaking out.
  expect_parse_error("-", "invalid number");
  expect_parse_error("1e", "invalid number");
  expect_parse_error("1.2.3", "invalid number");
  expect_parse_error("1e-", "invalid number");
  expect_parse_error("--1", "invalid number");
}

TEST(JsonMini, RejectsUnsupportedEscapesAndBrokenStrings) {
  expect_parse_error(R"("a\nb")", "unsupported escape");
  expect_parse_error(R"("a\tb")", "unsupported escape");
  expect_parse_error("\"x\\u0041y\"", "unsupported escape");
  expect_parse_error(R"("dangling\)", "dangling escape");
  expect_parse_error(R"("unterminated)", "unterminated string");
}

TEST(JsonMini, RejectsStructuralErrors) {
  expect_parse_error("", "unexpected end of input");
  expect_parse_error("{\"a\": 1", "unexpected end of input");
  expect_parse_error("[1, 2", "unexpected end of input");
  expect_parse_error("{\"a\" 1}", "expected ':'");
  expect_parse_error("[1 2]", "expected ',' or ']'");
  expect_parse_error("{\"a\": 1 \"b\": 2}", "expected ',' or '}'");
  expect_parse_error("{1: 2}", "expected '\"'");
  expect_parse_error("tru", "expected true/false");
  expect_parse_error("null", "expected a number");  // null is outside the subset
  expect_parse_error("{} trailing", "trailing content");
  expect_parse_error("1 2", "trailing content");
}

TEST(JsonMini, FieldHelpersValidateKindAndPresence) {
  const JsonValue root = parse(R"({"num": 3, "str": "x"})");
  EXPECT_EQ(num_field(root, "num", true), 3.0);
  EXPECT_EQ(str_field(root, "str", true), "x");
  EXPECT_EQ(num_field(root, "missing", /*required=*/false, 99.0), 99.0);
  EXPECT_EQ(str_field(root, "missing", /*required=*/false), "");
  EXPECT_THROW(num_field(root, "missing", /*required=*/true), std::runtime_error);
  EXPECT_THROW(str_field(root, "missing", /*required=*/true), std::runtime_error);
  EXPECT_THROW(num_field(root, "str", /*required=*/true), std::runtime_error);
  EXPECT_THROW(str_field(root, "num", /*required=*/true), std::runtime_error);
}

// --- Lenient bench parsing and the perf trajectory -------------------------

TEST(JsonMini, LenientBenchParserAcceptsPreSchemaGenerations) {
  // A v1-era document: no schema_version, no suite, cases carry only a
  // name and serial wall time. Strict parsing must refuse it; the lenient
  // path (the `lad report` trajectory) defaults everything but the name.
  const std::string v1 = R"({
    "cases": [
      {"name": "alpha", "wall_ms_1t": 12.5},
      {"name": "beta"}
    ]
  })";
  EXPECT_THROW(obs::parse_bench_json(v1), std::runtime_error);
  const auto doc = obs::parse_bench_json_lenient(v1);
  EXPECT_EQ(doc.schema_version, 1);
  ASSERT_EQ(doc.cases.size(), 2u);
  EXPECT_EQ(doc.cases[0].name, "alpha");
  EXPECT_DOUBLE_EQ(doc.cases[0].wall_ms_1, 12.5);
  EXPECT_EQ(doc.cases[1].name, "beta");
  // A case without even a name stays a hard error on both paths.
  EXPECT_THROW(obs::parse_bench_json_lenient(R"({"cases": [{"n": 4}]})"), std::runtime_error);
}

TEST(JsonMini, PerfTrajectoryTableUnionsCasesAcrossGenerations) {
  obs::BenchGeneration g1;
  g1.label = "pr3";
  g1.doc = obs::parse_bench_json_lenient(
      R"({"cases": [{"name": "alpha", "wall_ms_1t": 10.0}]})");
  obs::BenchGeneration g2;
  g2.label = "pr4";
  g2.doc = obs::parse_bench_json_lenient(
      R"({"schema_version": 4, "suite": "smoke", "cases": [
            {"name": "alpha", "wall_ms_1t": 8.0},
            {"name": "gamma", "wall_ms_1t": 3.0}]})");

  const std::string md = obs::perf_trajectory_markdown({g1, g2});
  EXPECT_NE(md.find("## Perf trajectory"), std::string::npos);
  EXPECT_NE(md.find("pr3 (v1)"), std::string::npos);
  EXPECT_NE(md.find("pr4 (v4, smoke)"), std::string::npos);
  // Union rows in first-seen order; cases absent from a generation render
  // as an em-dash cell, not a zero.
  EXPECT_NE(md.find("| alpha | 10.000 | 8.000 |"), std::string::npos);
  EXPECT_NE(md.find("| gamma | — | 3.000 |"), std::string::npos);
  EXPECT_LT(md.find("| alpha |"), md.find("| gamma |"));

  const std::string empty = obs::perf_trajectory_markdown({});
  EXPECT_NE(empty.find("No BENCH_"), std::string::npos);
}

}  // namespace
}  // namespace lad
