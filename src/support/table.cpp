#include "src/support/table.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace leak {

namespace {

/// Quote a CSV cell when RFC 4180 requires it.
std::string csv_escape(const std::string& cell) {
  const bool needs_quoting =
      cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quoting) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table: no headers");
}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table: row size mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::fmt(double v, int precision) {
  // std::to_chars is locale-independent; an ostringstream would honour
  // whatever global locale the host application installed (e.g. a ','
  // decimal point under de_DE), silently corrupting CSV artifacts.
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v,
                                       std::chars_format::fixed, precision);
  if (ec != std::errc{}) return "?";
  return std::string(buf, ptr);
}

std::string Table::fmt_exact(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "?";
  return std::string(buf, ptr);
}

std::string Table::to_string() const {
  std::vector<std::size_t> w(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) w[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      w[c] = std::max(w[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    os << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << " " << row[c] << std::string(w[c] - row[c].size(), ' ') << " |";
    }
    os << "\n";
  };
  emit_row(headers_);
  os << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(w[c] + 2, '-') << "|";
  }
  os << "\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string Table::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << ",";
      os << csv_escape(row[c]);
    }
    os << "\n";
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

bool Table::maybe_write_csv(const std::string& path) const {
  const char* flag = std::getenv("LEAK_BENCH_CSV");
  if (flag == nullptr || *flag == '\0') return false;
  std::ofstream f(path);
  f << to_csv();
  f.close();
  return !f.fail();
}

}  // namespace leak
