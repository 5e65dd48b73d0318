#include "telemetry/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace kf {

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";  // JSON has no NaN/Inf; null keeps consumers parsing
    return;
  }
  // std::to_chars, not snprintf: number formatting is the hot path of the
  // per-request wide event, and to_chars is an order of magnitude cheaper.
  char buf[32];
  // Integers print as integers so counters read naturally.
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    const auto r = std::to_chars(buf, buf + sizeof(buf),
                                 static_cast<long long>(v));
    out.append(buf, r.ptr);
    return;
  }
  // Shortest form that parses back to exactly `v` (round-trip safe).
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

// ---- accessors ----

namespace {
[[noreturn]] void kind_error(const char* wanted) {
  throw RuntimeError(std::string("JSON value is not a ") + wanted);
}
}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::Bool) kind_error("bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::Number) kind_error("number");
  return number_;
}

long JsonValue::as_long() const { return std::lround(as_number()); }

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::String) kind_error("string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::Array) kind_error("array");
  return array_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  if (kind_ != Kind::Object) kind_error("object");
  return object_;
}

void JsonValue::push_back(JsonValue v) {
  if (kind_ == Kind::Null) kind_ = Kind::Array;
  if (kind_ != Kind::Array) kind_error("array");
  array_.push_back(std::move(v));
}

JsonValue& JsonValue::set(std::string key, JsonValue v) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  if (kind_ != Kind::Object) kind_error("object");
  for (Member& m : object_) {
    if (m.first == key) {
      m.second = std::move(v);
      return m.second;
    }
  }
  object_.emplace_back(std::move(key), std::move(v));
  return object_.back().second;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (kind_ != Kind::Object) return nullptr;
  for (const Member& m : object_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_number() ? v->number_ : fallback;
}

std::string JsonValue::string_or(std::string_view key, std::string fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->is_string() ? v->string_ : fallback;
}

// ---- writer ----

void JsonValue::write(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  auto newline = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::Null: out += "null"; break;
    case Kind::Bool: out += bool_ ? "true" : "false"; break;
    case Kind::Number: append_json_number(out, number_); break;
    case Kind::String: append_json_string(out, string_); break;
    case Kind::Array: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        array_[i].write(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      out += ']';
      break;
    }
    case Kind::Object: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        append_json_string(out, object_[i].first);
        out += pretty ? ": " : ":";
        object_[i].second.write(out, indent, depth + 1);
      }
      if (!object_.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

std::string JsonValue::to_string(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

// ---- parser ----

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw RuntimeError(strprintf("JSON parse error at offset %zu: %s", pos_,
                                 what.c_str()));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(strprintf("expected '%c'", c));
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return JsonValue(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return JsonValue(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return JsonValue(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return JsonValue();
    }
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  /// Reads the four hex digits of a \u escape (the backslash and 'u' have
  /// already been consumed) and returns the 16-bit code unit.
  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else fail("bad \\u escape");
    }
    return code;
  }

  void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        // RFC 8259: control characters must be escaped inside strings. A
        // raw one here is a truncated/corrupted writer, not valid input.
        if (static_cast<unsigned char>(c) < 0x20) {
          --pos_;
          fail("raw control character in string");
        }
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("lone low surrogate in \\u escape");
          }
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: must be immediately followed by an escaped
            // low surrogate; together they name one supplementary-plane
            // code point.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("high surrogate not followed by \\u escape");
            }
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("high surrogate not followed by low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(out, code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
      return pos_ > before;
    };
    const std::size_t int_start = pos_;
    if (!digits()) fail("bad number");
    // RFC 8259: no leading zeros ("01" is two tokens, i.e. an error here).
    if (pos_ - int_start > 1 && text_[int_start] == '0') {
      fail("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail("bad number fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!digits()) fail("bad number exponent");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("bad number");
    // Out-of-range literals ("1e999") overflow to +-inf; JSON has no way
    // to round-trip a non-finite value, so reject rather than absorb it.
    if (!std::isfinite(v)) fail("number out of double range");
    return JsonValue(v);
  }
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace kf
