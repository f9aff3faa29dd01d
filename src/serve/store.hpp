// Append-only JSONL results store: the durable half of the sweep
// service.  Every completed sweep cell is one CRC-framed line
//
//   <crc32 hex of payload> <compact JSON payload>\n
//
// appended with a single write(2) and fsync'd, so the store survives
// kill -9 at any instant with at most one torn tail line.  scan()
// stops at the first invalid line (bad frame, CRC mismatch, missing
// newline) and reports where the valid prefix ends; repair()
// truncates the torn tail so appends continue from a clean boundary.
// One writer at a time (the service process) — readers are safe at
// any time because a record is only visible once its newline landed.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/support/json.hpp"

namespace leak::serve {

/// One validated record scanned from the store.
struct StoreRecord {
  json::Value payload;
  std::size_t offset = 0;  ///< byte offset of the line start
};

/// A framed line that ResultsStore::unframe() accepted: the line
/// itself and its parsed payload.  Only unframe() makes one, so
/// append_framed() cannot write a line whose CRC or JSON was not
/// checked, and the caller reads the payload without parsing it again.
class FramedLine {
 public:
  /// The framed line, without its newline (borrowed from the caller).
  [[nodiscard]] std::string_view line() const { return line_; }
  [[nodiscard]] json::Value& payload() { return payload_; }

 private:
  friend class ResultsStore;
  FramedLine(std::string_view line, json::Value payload)
      : line_(line), payload_(std::move(payload)) {}

  std::string_view line_;
  json::Value payload_;
};

/// Result of a full scan: the valid record prefix plus where it ends.
struct StoreScan {
  std::vector<StoreRecord> records;
  std::size_t valid_bytes = 0;  ///< offset one past the last valid line
  bool torn_tail = false;       ///< bytes after valid_bytes were dropped
};

/// Write all of `data` to `fd`, retrying short writes and EINTR.
/// Returns false on any other write error.  Shared by the store, the
/// service's manifest writes and the worker pipes.
[[nodiscard]] bool write_all(int fd, std::string_view data);

class ResultsStore {
 public:
  explicit ResultsStore(std::string path);
  ~ResultsStore();

  ResultsStore(const ResultsStore&) = delete;
  ResultsStore& operator=(const ResultsStore&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Append one payload as a framed line (O_APPEND, one write call);
  /// fsyncs before returning when `sync`.  Returns false on I/O error.
  [[nodiscard]] bool append(const json::Value& payload, bool sync = true);

  /// Append a line that unframe() accepted, verbatim.  This is the
  /// worker-protocol fast path: workers send framed lines over their
  /// result pipe, and the service checks each once (unframe) and
  /// appends it as it came.
  [[nodiscard]] bool append_framed(const FramedLine& rec, bool sync = true);

  /// Scan from the start.  A missing file scans as empty (not an
  /// error).  Never modifies the file.
  [[nodiscard]] StoreScan scan(std::string* error = nullptr) const;

  /// Truncate any torn tail so the file ends at the last valid
  /// record.  Returns false on I/O error.
  [[nodiscard]] bool repair(std::string* error = nullptr);

  /// Frame one payload: "<crc32 hex> <compact JSON>" (no newline).
  [[nodiscard]] static std::string frame(const json::Value& payload);

  /// Parse one framed line (no newline); nullopt when the frame is
  /// malformed, the CRC mismatches, or the payload is not valid JSON.
  /// The result borrows `line`.
  [[nodiscard]] static std::optional<FramedLine> unframe(
      std::string_view line);

 private:
  [[nodiscard]] bool write_line(std::string_view line, bool sync);

  std::string path_;
  int fd_ = -1;  ///< lazily-opened append fd, owned
};

}  // namespace leak::serve
