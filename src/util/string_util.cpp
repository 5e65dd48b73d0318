#include "util/string_util.hpp"

#include <cstdarg>
#include <cstdio>

namespace kf {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delim) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view text) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && is_space(text.back())) text.remove_suffix(1);
  return text;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += sep;
    out += items[i];
  }
  return out;
}

std::string strprintf(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  }
  va_end(args2);
  return out;
}

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  // Fast path: event types, keys and hex trace ids never need escaping, so
  // one scan + one bulk append covers almost every string on the wide-event
  // emission path.
  std::size_t clean = 0;
  while (clean < text.size()) {
    const unsigned char c = static_cast<unsigned char>(text[clean]);
    if (c == '"' || c == '\\' || c < 0x20) break;
    ++clean;
  }
  out.append(text.data(), clean);
  text.remove_prefix(clean);
  for (unsigned char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          out += strprintf("\\u%04x", c);
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
}

}  // namespace kf
