#include "serve_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace perfbench {

namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("connect: ") + std::strerror(err));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

LineConnection::LineConnection(std::uint16_t port)
    : fd_(connect_loopback(port)) {}

LineConnection::~LineConnection() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

void LineConnection::send_line(const std::string& line) {
  send_all(fd_, line + "\n");
}

void LineConnection::fill() {
  char chunk[65536];
  ssize_t n;
  do {
    n = ::recv(fd_, chunk, sizeof(chunk), 0);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
  }
  if (n == 0) {
    throw std::runtime_error("daemon closed the connection");
  }
  buffer_.append(chunk, static_cast<std::size_t>(n));
}

bool LineConnection::pop_line(std::string& line) {
  const std::size_t lf = buffer_.find('\n');
  if (lf == std::string::npos) {
    return false;
  }
  line.assign(buffer_, 0, lf);
  buffer_.erase(0, lf + 1);
  return true;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = connect_loopback(port);
  std::string response;
  try {
    send_all(fd, "GET " + path + " HTTP/1.0\r\n\r\n");
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n < 0) {
        throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
      }
      if (n == 0) {
        break;
      }
      response.append(chunk, static_cast<std::size_t>(n));
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return response;
}

}  // namespace perfbench
