#pragma once
// Client side of the NDJSON protocol — a blocking connector over either
// transport (server side: server/transport.hpp).
//
// An Endpoint names where the server listens:
//   "/tmp/phes.sock"        AF_UNIX filesystem socket
//   "tcp:HOST:PORT"         TCP listener (HOST numeric or resolvable)
// TCP endpoints carry the shared auth token; Client performs the
// {"op":"auth"} handshake on connect and throws when the server
// refuses it.
//
// Client::request() sends one line and returns one response line;
// connections are persistent, so a client can issue many requests.

#include <cstdint>
#include <string>

namespace phes::server {

/// A parsed server address plus the TCP auth token.
struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;  ///< AF_UNIX socket path
  std::string host;  ///< TCP host
  std::uint16_t port = 0;
  /// Shared secret for the TCP auth handshake (empty => no auth op is
  /// sent; the server will refuse if it requires one).
  std::string token;
};

/// Parse "tcp:HOST:PORT" into a TCP endpoint; anything else is an
/// AF_UNIX path.  Throws std::invalid_argument on a malformed TCP spec.
[[nodiscard]] Endpoint parse_endpoint(const std::string& spec);

/// Blocking NDJSON client over a persistent connection.
class Client {
 public:
  /// AF_UNIX convenience; connects immediately, throws on failure.
  explicit Client(const std::string& socket_path);
  /// Connect to either transport; performs the auth handshake on a TCP
  /// endpoint with a token.  Throws std::runtime_error on connect or
  /// auth failure.
  explicit Client(const Endpoint& endpoint);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send one request line (the '\n' is appended here) and return the
  /// response line.  Throws on I/O failure or server disconnect.
  std::string request(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes read past the last returned line
};

/// One-shot convenience: connect (+auth), send `line`, return the
/// response.
[[nodiscard]] std::string round_trip(const Endpoint& endpoint,
                                     const std::string& line);

}  // namespace phes::server
