#include "util/table.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace kf {
namespace {

bool looks_numeric(const std::string& cell) {
  if (cell.empty()) return false;
  std::size_t digits = 0;
  for (char c : cell) {
    if (std::isdigit(static_cast<unsigned char>(c))) ++digits;
  }
  // Heuristic for right alignment: at least half the characters are digits.
  return digits * 2 >= cell.size();
}

std::string pad(const std::string& s, std::size_t width, bool right) {
  if (s.size() >= width) return s;
  const std::string fill(width - s.size(), ' ');
  return right ? fill + s : s + fill;
}

}  // namespace

TextTable::TextTable(std::vector<std::string> headers) : headers_(std::move(headers)) {
  KF_REQUIRE(!headers_.empty(), "table requires at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  KF_REQUIRE(cells.size() == headers_.size(),
             "row has " << cells.size() << " cells, expected " << headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_cell(double v) {
  char buf[64];
  if (v == 0.0 || (std::abs(v) >= 1e-3 && std::abs(v) < 1e7)) {
    std::snprintf(buf, sizeof buf, "%.4g", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.3e", v);
  }
  return buf;
}

std::string TextTable::to_cell(long v) { return std::to_string(v); }
std::string TextTable::to_cell(unsigned long v) { return std::to_string(v); }
std::string TextTable::to_cell(int v) { return std::to_string(v); }

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row, bool align_numeric) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << "  ";
      os << pad(row[c], widths[c], align_numeric && looks_numeric(row[c]));
    }
    os << '\n';
  };
  emit_row(headers_, false);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w;
  os << std::string(total + 2 * (widths.size() - 1), '-') << '\n';
  for (const auto& row : rows_) emit_row(row, true);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const TextTable& table) {
  return os << table.to_string();
}

std::string fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
  return buf;
}

std::string human_time(double seconds) {
  const double a = std::abs(seconds);
  char buf[64];
  if (a < 1e-6) {
    std::snprintf(buf, sizeof buf, "%.1f ns", seconds * 1e9);
  } else if (a < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.2f us", seconds * 1e6);
  } else if (a < 1.0) {
    std::snprintf(buf, sizeof buf, "%.2f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.2f s", seconds);
  }
  return buf;
}

std::string human_bytes(double bytes) {
  char buf[64];
  if (bytes < 1024.0) {
    std::snprintf(buf, sizeof buf, "%.0f B", bytes);
  } else if (bytes < 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof buf, "%.1f KB", bytes / 1024.0);
  } else if (bytes < 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof buf, "%.1f MB", bytes / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof buf, "%.2f GB", bytes / (1024.0 * 1024.0 * 1024.0));
  }
  return buf;
}

}  // namespace kf
