#include "src/serve/store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/support/crc32.hpp"

namespace leak::serve {

namespace {

[[nodiscard]] bool is_hex(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
}

}  // namespace

bool write_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

ResultsStore::ResultsStore(std::string path) : path_(std::move(path)) {}

ResultsStore::~ResultsStore() {
  if (fd_ >= 0) ::close(fd_);
}

std::string ResultsStore::frame(const json::Value& payload) {
  const std::string body = payload.dump();
  return crc32::to_hex(crc32::of(body)) + " " + body;
}

std::optional<FramedLine> ResultsStore::unframe(std::string_view line) {
  if (line.size() < 10 || line[8] != ' ') return std::nullopt;
  for (std::size_t i = 0; i < 8; ++i) {
    if (!is_hex(line[i])) return std::nullopt;
  }
  const std::string_view body = line.substr(9);
  if (crc32::to_hex(crc32::of(body)) != line.substr(0, 8)) {
    return std::nullopt;
  }
  auto payload = json::Value::parse(body);
  if (!payload) return std::nullopt;
  return FramedLine(line, std::move(*payload));
}

bool ResultsStore::write_line(std::string_view line, bool sync) {
  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                 0644);
    if (fd_ < 0) return false;
  }
  std::string out(line);
  out.push_back('\n');
  if (!write_all(fd_, out)) return false;
  return !sync || ::fsync(fd_) == 0;
}

bool ResultsStore::append(const json::Value& payload, bool sync) {
  return write_line(frame(payload), sync);
}

bool ResultsStore::append_framed(const FramedLine& rec, bool sync) {
  return write_line(rec.line(), sync);
}

StoreScan ResultsStore::scan(std::string* error) const {
  StoreScan out;
  std::string text;
  if (!json::read_file(path_, &text)) return out;  // absent == empty

  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) break;  // torn: no terminating newline
    auto rec = unframe(std::string_view(text).substr(pos, nl - pos));
    if (!rec) break;  // torn or corrupt frame
    out.records.push_back(StoreRecord{std::move(rec->payload()), pos});
    pos = nl + 1;
  }
  out.valid_bytes = pos;
  out.torn_tail = pos < text.size();
  if (out.torn_tail && error != nullptr) {
    *error = path_ + ": torn tail at byte " + std::to_string(pos) + " (" +
             std::to_string(text.size() - pos) + " bytes dropped)";
  }
  return out;
}

bool ResultsStore::repair(std::string* error) {
  const StoreScan s = scan();
  if (!s.torn_tail) return true;
  // Close the append fd around the truncate so the kernel offset and
  // the file agree afterwards.
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (::truncate(path_.c_str(), static_cast<off_t>(s.valid_bytes)) != 0) {
    if (error != nullptr) {
      *error = path_ + ": truncate failed: " + std::strerror(errno);
    }
    return false;
  }
  return true;
}

}  // namespace leak::serve
