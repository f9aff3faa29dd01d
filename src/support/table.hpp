// ASCII table and CSV emission used by the benchmark harnesses and the
// scenario-result writer to print paper-style tables ("paper value |
// reproduced value | relative error").  CSV output follows RFC 4180
// (cells containing commas, quotes, or newlines are quoted).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace leak {

/// Column-aligned ASCII table builder.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row; must have exactly as many cells as headers.
  void add_row(std::vector<std::string> cells);

  /// Convenience: format doubles with the given fixed precision.
  /// Locale-independent (always the '.' decimal point).
  static std::string fmt(double v, int precision = 4);

  /// Shortest exact round-trip formatting ("0.33", "4024", "1e-09");
  /// used for machine-consumed cells where no digit may be lost.
  static std::string fmt_exact(double v);

  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& headers() const {
    return headers_;
  }
  [[nodiscard]] const std::vector<std::string>& row(std::size_t i) const {
    return rows_[i];
  }
  [[nodiscard]] const std::string& cell(std::size_t row,
                                        std::size_t col) const {
    return rows_[row][col];
  }

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] std::string to_csv() const;

  /// Write CSV to `path` if the LEAK_BENCH_CSV environment variable is set
  /// to a non-empty value; returns true when a file was written.
  bool maybe_write_csv(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace leak
