// Report-emission helpers shared by the bench binaries and the
// scenario subsystem: section headers, table + CSV emission, and
// JSON-to-file plumbing.  Extracted from bench/bench_common.hpp so the
// ScenarioResult writer and the benches format artifacts identically.
#pragma once

#include <cstdio>
#include <fstream>
#include <string>

#include "src/support/json.hpp"
#include "src/support/table.hpp"

namespace leak::reporting {

/// "=== title ===" section header on stdout.
inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Print a table and optionally dump it as CSV (LEAK_BENCH_CSV=1).
inline void emit(const Table& table, const std::string& csv_name) {
  std::printf("%s", table.to_string().c_str());
  if (table.maybe_write_csv(csv_name)) {
    std::printf("(wrote %s)\n", csv_name.c_str());
  }
}

/// Write arbitrary text to `path` ("-" = stdout).  Returns false when
/// the file could not be opened, written or closed.
inline bool write_text(const std::string& text, const std::string& path) {
  if (path == "-") {
    std::printf("%s", text.c_str());
    return true;
  }
  std::ofstream f(path);
  f << text;
  f.close();
  return !f.fail();
}

/// Write a JSON document to `path`; same contract as write_text.
inline bool write_json(const json::Value& doc, const std::string& path,
                       int indent = 2) {
  return write_text(doc.dump(indent) + "\n", path);
}

}  // namespace leak::reporting
