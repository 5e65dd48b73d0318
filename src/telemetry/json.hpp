// Minimal JSON document model for the telemetry layer.
//
// The metrics registry and the structured trace log emit JSON that bench
// harnesses and `kfc report` must read back, so the subsystem carries its
// own small, dependency-free reader/writer instead of leaning on an
// external library. Strict on parse (RFC 8259 values, no comments, no
// trailing commas); on write, object member order is preserved and numbers
// round-trip exactly (integers as integers, doubles with 17 significant
// digits). Non-finite doubles cannot be represented in JSON and are
// written as null.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace kf {

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  // null
  JsonValue(bool b) : kind_(Kind::Bool), bool_(b) {}
  JsonValue(double v) : kind_(Kind::Number), number_(v) {}
  JsonValue(int v) : JsonValue(static_cast<double>(v)) {}
  JsonValue(long v) : JsonValue(static_cast<double>(v)) {}
  JsonValue(long long v) : JsonValue(static_cast<double>(v)) {}
  JsonValue(unsigned long v) : JsonValue(static_cast<double>(v)) {}
  JsonValue(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
  JsonValue(std::string_view s) : JsonValue(std::string(s)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}

  static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::Array;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::Object;
    return v;
  }

  /// Parses one JSON document; throws kf::RuntimeError on malformed input
  /// or trailing non-whitespace.
  static JsonValue parse(std::string_view text);

  Kind kind() const noexcept { return kind_; }
  bool is_bool() const noexcept { return kind_ == Kind::Bool; }
  bool is_number() const noexcept { return kind_ == Kind::Number; }
  bool is_string() const noexcept { return kind_ == Kind::String; }
  bool is_array() const noexcept { return kind_ == Kind::Array; }

  // Typed accessors; throw kf::RuntimeError on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  long as_long() const;  ///< as_number() rounded to nearest integer
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;    ///< array elements
  const std::vector<Member>& members() const;     ///< object members, in order

  // ---- building ----
  void push_back(JsonValue v);                    ///< array append
  JsonValue& set(std::string key, JsonValue v);   ///< object insert/replace
  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const noexcept;
  /// find(key)->as_number() with a default when absent/null.
  double number_or(std::string_view key, double fallback) const;
  /// find(key)->as_string() with a default when absent/null.
  std::string string_or(std::string_view key, std::string fallback) const;

  /// Serializes; indent < 0 renders compact, otherwise pretty-printed with
  /// `indent` spaces per level.
  std::string to_string(int indent = -1) const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<Member> object_;

  void write(std::string& out, int indent, int depth) const;
};

/// Appends a JSON number for `v` (integer form when exact, null when
/// non-finite) to `out`.
void append_json_number(std::string& out, double v);

}  // namespace kf
