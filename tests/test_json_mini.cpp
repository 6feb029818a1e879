// The obs/json_mini.hpp contract: a deliberately small JSON reader for the
// subset our own writers emit. These tests pin both directions of that
// bargain — everything the writers produce parses exactly, and everything
// outside the subset (or malformed) is a hard, located parse error rather
// than a silent best guess. Also pins the perf-trajectory table `lad
// report` builds from the run-document parser, and that every checked-in
// BENCH_*.json parses.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
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
  EXPECT_EQ(str_field(root, "s"), "hello");
  EXPECT_TRUE(root.find("t")->boolean);
  EXPECT_FALSE(root.find("f")->boolean);
  EXPECT_EQ(num_field(root, "i"), 42.0);

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
  EXPECT_EQ(num_field(root, "num"), 3.0);
  EXPECT_EQ(str_field(root, "str"), "x");
  EXPECT_THROW(num_field(root, "missing"), std::runtime_error);
  EXPECT_THROW(str_field(root, "missing"), std::runtime_error);
  EXPECT_THROW(num_field(root, "str"), std::runtime_error);
  EXPECT_THROW(str_field(root, "num"), std::runtime_error);
}

TEST(JsonMini, NumbersKeepTheirTokensAndRenderBack) {
  // A token survives a parse/render round trip exactly, including digits a
  // double cannot hold (2^53 + 1) and trailing zeros.
  const std::string text =
      "{\"seed\": 9007199254740993, \"ratio\": 0.33333333333333331, \"bits\": 1.0000}";
  const JsonValue root = parse(text);
  EXPECT_EQ(root.find("seed")->string, "9007199254740993");
  EXPECT_EQ(root.find("bits")->string, "1.0000");
  EXPECT_DOUBLE_EQ(root.find("bits")->number, 1.0);
  EXPECT_EQ(obs::jsonmini::render_json(root), text);
  // The layout: flat containers on one line, anything deeper one member
  // per line.
  const std::string nested = "{\n  \"rows\": [\n    {\"a\": 1},\n    {\"b\": [2, 3]}\n  ]\n}";
  EXPECT_EQ(obs::jsonmini::render_json(parse(nested)), nested);
}

// --- The perf trajectory and the checked-in generations --------------------

obs::RunDocument trajectory_doc(const std::string& suite, const std::string& records) {
  return obs::parse_run_document(R"({"schema_version": 8, "suite": ")" + suite +
                                 R"(", "records": [)" + records + "]}");
}

TEST(JsonMini, PerfTrajectoryTableUnionsCasesAcrossGenerations) {
  obs::BenchGeneration g1;
  g1.label = "pr3";
  g1.doc = trajectory_doc("all", R"({"name": "alpha", "deterministic": {},
      "measured": [{"threads": 1, "wall_ms": 10.0}, {"threads": 8, "wall_ms": 2.0}]})");
  obs::BenchGeneration g2;
  g2.label = "pr4";
  g2.doc = trajectory_doc("smoke", R"({"name": "alpha", "deterministic": {},
      "measured": [{"threads": 1, "wall_ms": 8.0}]},
      {"name": "gamma", "deterministic": {}, "measured": [{"threads": 1, "wall_ms": 3.0}]},
      {"name": "delta", "deterministic": {"error": "x"}, "measured": []})");

  const std::string md = obs::perf_trajectory_markdown({g1, g2});
  EXPECT_NE(md.find("## Perf trajectory"), std::string::npos);
  EXPECT_NE(md.find("pr3 (v8, all)"), std::string::npos);
  EXPECT_NE(md.find("pr4 (v8, smoke)"), std::string::npos);
  // Union rows in first-seen order, each cell the 1-thread wall time;
  // records absent from a generation render as an em-dash cell, not a
  // zero, and error rows as "error".
  EXPECT_NE(md.find("| alpha | 10.000 | 8.000 |"), std::string::npos);
  EXPECT_NE(md.find("| gamma | — | 3.000 |"), std::string::npos);
  EXPECT_NE(md.find("| delta | — | error |"), std::string::npos);
  EXPECT_LT(md.find("| alpha |"), md.find("| gamma |"));

  const std::string empty = obs::perf_trajectory_markdown({});
  EXPECT_NE(empty.find("No BENCH_"), std::string::npos);
}

TEST(JsonMini, EveryCheckedInBenchGenerationParses) {
  // `lad report` skips a BENCH_*.json it cannot parse with only a warning;
  // here that is a failure. Each file is also in the writer's own layout.
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(LAD_SOURCE_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 || !name.ends_with(".json")) continue;
    ++files;
    std::ifstream in(entry.path());
    std::ostringstream ss;
    ss << in.rdbuf();
    obs::RunDocument doc;
    ASSERT_NO_THROW(doc = obs::parse_run_document(ss.str())) << name;
    EXPECT_FALSE(doc.records.empty()) << name;
    EXPECT_EQ(doc.to_json(), ss.str()) << name;
  }
  EXPECT_GE(files, 1);
}

}  // namespace
}  // namespace lad
