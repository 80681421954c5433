// Loopback client for the in-process daemon: persistent JSONL connections
// and one-shot HTTP GETs.  Every failure throws std::runtime_error.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

class LineConnection {
 public:
  explicit LineConnection(std::uint16_t port);
  ~LineConnection();
  LineConnection(const LineConnection&) = delete;
  LineConnection& operator=(const LineConnection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  /// Write `line` plus LF, blocking until every byte is sent.
  void send_line(const std::string& line);
  /// Read what the socket holds (call when poll() reports it readable).
  void fill();
  /// Pop one complete response line (without LF) if one is buffered.
  bool pop_line(std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// GET `path` over a fresh connection; returns the whole HTTP response.
std::string http_get(std::uint16_t port, const std::string& path);

}  // namespace perfbench
