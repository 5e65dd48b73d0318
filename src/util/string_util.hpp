// Small string helpers shared by the IR reader/writer, report and JSON code.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace kf {

/// Split on a delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view text, char delim);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// True if `text` begins with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Join items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Appends a JSON string literal (quotes + escapes) for `text` to `out`.
void append_json_string(std::string& out, std::string_view text);

/// printf-style formatting into std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace kf
