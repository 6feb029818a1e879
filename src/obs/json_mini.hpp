// Minimal JSON reader and writer for the subset our own writers emit:
// objects, arrays, strings (no escapes beyond \" and \\), numbers,
// true/false. Anything else is a hard parse error — this reads our own
// artifacts (run documents), so leniency would only mask writer bugs.
//
// A number keeps the token it was written with, so a value read back and
// written again is byte-identical, and comparing tokens never rounds a
// 64-bit integer or a %.17g double through `double`.
//
// Header-only so the parser and the renderer stay a single definition with
// zero link-time surface.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdio>
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
  /// A string's value, or a number's token as written ("1.0000", "%.17g").
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;  // insertion order

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  JsonValue* find(const std::string& key) {
    return const_cast<JsonValue*>(std::as_const(*this).find(key));
  }
  /// Appends an object member; returns *this so members chain.
  JsonValue& add(std::string key, JsonValue value) {
    object.emplace_back(std::move(key), std::move(value));
    return *this;
  }
};

class JsonParser {
 public:
  /// `what` names the artifact kind in error messages ("run document",
  /// ...).
  JsonParser(const std::string& text, std::string what)
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
    std::string token = text_.substr(start, pos_ - start);
    try {
      std::size_t used = 0;
      v.number = std::stod(token, &used);
      if (used != token.size()) fail("invalid number '" + token + "'");
    } catch (const std::logic_error&) {  // invalid_argument / out_of_range
      fail("invalid number '" + token + "'");
    }
    v.string = std::move(token);
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

/// The number under `key`; throws when it is missing or not a number.
inline double num_field(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) throw std::runtime_error("JSON: missing field \"" + key + "\"");
  if (v->kind != JsonValue::Kind::kNumber) {
    throw std::runtime_error("JSON: field \"" + key + "\" is not a number");
  }
  return v->number;
}

/// The string under `key`; throws when it is missing or not a string.
inline std::string str_field(const JsonValue& obj, const std::string& key) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) throw std::runtime_error("JSON: missing field \"" + key + "\"");
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

// --- Building and rendering ------------------------------------------------

inline JsonValue json_string(std::string s) {
  JsonValue v;
  v.kind = JsonValue::Kind::kString;
  v.string = std::move(s);
  return v;
}

/// A number written as `token` (a form the parser accepts).
inline JsonValue json_number(std::string token) {
  JsonValue v;
  v.kind = JsonValue::Kind::kNumber;
  v.number = std::stod(token);
  v.string = std::move(token);
  return v;
}

inline JsonValue json_int(long long x) { return json_number(std::to_string(x)); }

/// `x` with a fixed number of decimals.
inline JsonValue json_fixed(double x, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, x);
  return json_number(buf);
}

/// `x` written with %.17g, which reads back bit-identical.
inline JsonValue json_exact(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return json_number(buf);
}

inline JsonValue json_bool(bool b) {
  JsonValue v;
  v.kind = JsonValue::Kind::kBool;
  v.boolean = b;
  return v;
}

inline JsonValue json_object() {
  JsonValue v;
  v.kind = JsonValue::Kind::kObject;
  return v;
}

inline JsonValue json_array(std::vector<JsonValue> items = {}) {
  JsonValue v;
  v.kind = JsonValue::Kind::kArray;
  v.array = std::move(items);
  return v;
}

/// 0 for a scalar; one more than its tallest member for a container.
inline int json_height(const JsonValue& v) {
  int h = 0;
  for (const JsonValue& x : v.array) h = std::max(h, json_height(x));
  for (const auto& [key, x] : v.object) h = std::max(h, json_height(x));
  const bool container = v.kind == JsonValue::Kind::kArray || v.kind == JsonValue::Kind::kObject;
  return container ? h + 1 : 0;
}

/// Renders `v` in the one layout our documents use: an array of scalars, and
/// an object whose members are scalars or such flat containers, on one line;
/// any other container one member per line, two spaces deeper per level.
inline std::string render_json(const JsonValue& v, int indent = 0) {
  switch (v.kind) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return v.boolean ? "true" : "false";
    case JsonValue::Kind::kNumber:
      return v.string;
    case JsonValue::Kind::kString:
      return "\"" + json_escape(v.string) + "\"";
    case JsonValue::Kind::kArray:
    case JsonValue::Kind::kObject:
      break;
  }
  const bool is_object = v.kind == JsonValue::Kind::kObject;
  const std::size_t size = is_object ? v.object.size() : v.array.size();
  const bool one_line = json_height(v) <= (is_object ? 2 : 1);
  const std::string sep = one_line ? ", " : ",\n" + std::string(indent + 2, ' ');
  std::string out(1, is_object ? '{' : '[');
  if (!one_line && size > 0) out += "\n" + std::string(indent + 2, ' ');
  for (std::size_t i = 0; i < size; ++i) {
    if (i > 0) out += sep;
    if (is_object) out += "\"" + json_escape(v.object[i].first) + "\": ";
    out += render_json(is_object ? v.object[i].second : v.array[i], indent + 2);
  }
  if (!one_line && size > 0) out += "\n" + std::string(indent, ' ');
  out += is_object ? '}' : ']';
  return out;
}

}  // namespace lad::obs::jsonmini
