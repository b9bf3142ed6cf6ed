#include "phes/server/socket.hpp"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "net_util.hpp"
#include "phes/server/protocol.hpp"

namespace phes::server {

namespace {

using detail::throw_errno;

/// Write all of `data` (+ '\n') to fd; false on any failure.
/// MSG_NOSIGNAL: a peer that disconnected before reading must produce
/// EPIPE (this connection ends), not a process-killing SIGPIPE.
bool write_line(int fd, const std::string& data) {
  std::string out = data;
  out += '\n';
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read up to the next '\n' using `carry` as the cross-call buffer.
/// False on EOF/error before a full line arrived.
bool read_line(int fd, std::string& carry, std::string& line) {
  for (;;) {
    const std::size_t nl = carry.find('\n');
    if (nl != std::string::npos) {
      line = carry.substr(0, nl);
      carry.erase(0, nl + 1);
      return true;
    }
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    carry.append(buf, static_cast<std::size_t>(n));
  }
}

int connect_unix(const std::string& path) {
  const sockaddr_un addr = detail::make_unix_address(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket()");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect(" + path + ")");
  }
  return fd;
}

int connect_tcp(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* info = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &info);
  if (rc != 0) {
    throw std::runtime_error("getaddrinfo(" + host +
                             "): " + ::gai_strerror(rc));
  }
  int fd = -1;
  int saved = ECONNREFUSED;
  for (addrinfo* ai = info; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      saved = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    saved = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(info);
  if (fd < 0) {
    errno = saved;
    throw_errno("connect(tcp:" + host + ":" + std::to_string(port) + ")");
  }
  // Request/response over discrete lines: don't let Nagle delay a
  // request behind the previous response's ACK.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace

Endpoint parse_endpoint(const std::string& spec) {
  Endpoint endpoint;
  if (spec.rfind("tcp:", 0) != 0) {
    endpoint.kind = Endpoint::Kind::kUnix;
    endpoint.path = spec;
    return endpoint;
  }
  const std::size_t colon = spec.rfind(':');
  if (colon == 3 || colon == std::string::npos) {
    throw std::invalid_argument("endpoint '" + spec +
                                "': expected tcp:HOST:PORT");
  }
  endpoint.kind = Endpoint::Kind::kTcp;
  endpoint.host = spec.substr(4, colon - 4);
  const std::string port_text = spec.substr(colon + 1);
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
  if (endpoint.host.empty() || end == port_text.c_str() || *end != '\0' ||
      port == 0 || port > 65535) {
    throw std::invalid_argument("endpoint '" + spec +
                                "': expected tcp:HOST:PORT");
  }
  endpoint.port = static_cast<std::uint16_t>(port);
  return endpoint;
}

// ---- Client -----------------------------------------------------------

Client::Client(const std::string& socket_path) {
  fd_ = connect_unix(socket_path);
}

Client::Client(const Endpoint& endpoint) {
  if (endpoint.kind == Endpoint::Kind::kUnix) {
    fd_ = connect_unix(endpoint.path);
    return;
  }
  fd_ = connect_tcp(endpoint.host, endpoint.port);
  if (endpoint.token.empty()) return;
  // Shared-token handshake: the server serves nothing before it.
  std::string response;
  try {
    response = request("{\"op\": \"auth\", \"token\": " +
                       json_quote(endpoint.token) + "}");
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
  if (response.find("\"ok\": true") == std::string::npos) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("authentication rejected: " + response);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Client::request(const std::string& line) {
  if (fd_ < 0) throw std::runtime_error("Client: not connected");
  if (!write_line(fd_, line)) throw_errno("Client: write");
  std::string response;
  if (!read_line(fd_, buffer_, response)) {
    throw std::runtime_error("Client: server closed the connection");
  }
  return response;
}

std::string round_trip(const Endpoint& endpoint, const std::string& line) {
  Client client(endpoint);
  return client.request(line);
}

}  // namespace phes::server
