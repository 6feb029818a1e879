// Minimal JSON reader for the subset our own writers emit: objects,
// arrays, strings (no escapes beyond \" and \\), numbers, true/false.
// Anything else is a hard parse error — this reads our own artifacts
// (bench JSON, profile JSON), so leniency would only mask writer bugs.
//
// Shared by obs/diff.cpp and obs/profile.cpp; header-only so the
// parser stays a single definition with zero link-time surface.
#pragma once

#include <cctype>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace lad::obs::jsonmini {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  /// `what` names the artifact kind in error messages ("bench JSON",
  /// "profile JSON", ...).
  explicit JsonParser(const std::string& text, std::string what = "bench JSON")
      : text_(text), what_(std::move(what)) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error(what_ + " parse error at byte " + std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (std::isspace(static_cast<unsigned char>(text_[pos_])) != 0)) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.string = string();
      return v;
    }
    if (c == 't' || c == 'f') return boolean();
    return number();
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        c = text_[pos_++];
        if (c != '"' && c != '\\') fail("unsupported escape");
      }
      out += c;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("expected true/false");
    }
    return v;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() &&
           ((std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '-' ||
            text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    // The greedy scan accepts shapes stod rejects ("-", "1e", "1.2.3");
    // surface those as parse errors instead of leaking std::invalid_argument.
    const std::string token = text_.substr(start, pos_ - start);
    try {
      std::size_t used = 0;
      v.number = std::stod(token, &used);
      if (used != token.size()) fail("invalid number '" + token + "'");
    } catch (const std::logic_error&) {  // invalid_argument / out_of_range
      fail("invalid number '" + token + "'");
    }
    return v;
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      std::string key = string();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::string what_;
  std::size_t pos_ = 0;
};

inline double num_field(const JsonValue& obj, const std::string& key, bool required,
                        double dflt = 0) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    if (required) throw std::runtime_error("JSON: missing field \"" + key + "\"");
    return dflt;
  }
  if (v->kind != JsonValue::Kind::kNumber) {
    throw std::runtime_error("JSON: field \"" + key + "\" is not a number");
  }
  return v->number;
}

inline std::string str_field(const JsonValue& obj, const std::string& key, bool required) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    if (required) throw std::runtime_error("JSON: missing field \"" + key + "\"");
    return {};
  }
  if (v->kind != JsonValue::Kind::kString) {
    throw std::runtime_error("JSON: field \"" + key + "\" is not a string");
  }
  return v->string;
}

/// Escapes `"` and `\` — the only two characters our writers ever need.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace lad::obs::jsonmini
