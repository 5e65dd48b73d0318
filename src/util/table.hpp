// Aligned text tables for bench reports.
//
// Every bench binary prints paper-style tables through TextTable so that
// `bench_output.txt` is readable.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace kf {

class TextTable {
 public:
  /// Column headers define the column count; all rows must match it.
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Convenience: formats arithmetic cells with to_cell().
  template <typename... Ts>
  void add(const Ts&... cells) {
    add_row({to_cell(cells)...});
  }

  std::size_t rows() const noexcept { return rows_.size(); }

  /// Render with a header rule and right-aligned numeric-looking cells.
  std::string to_string() const;

  static std::string to_cell(const std::string& s) { return s; }
  static std::string to_cell(const char* s) { return s; }
  static std::string to_cell(double v);
  static std::string to_cell(long v);
  static std::string to_cell(unsigned long v);
  static std::string to_cell(int v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::ostream& operator<<(std::ostream& os, const TextTable& table);

/// Format a double with a fixed number of decimals (for table cells).
std::string fixed(double value, int decimals);

/// Format seconds with an adaptive unit (ns/us/ms/s).
std::string human_time(double seconds);

/// Format a byte count with an adaptive unit (B/KB/MB/GB).
std::string human_bytes(double bytes);

}  // namespace kf
