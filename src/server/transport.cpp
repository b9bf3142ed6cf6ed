#include "phes/server/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "net_util.hpp"
#include "phes/server/server.hpp"
#include "phes/util/timer.hpp"

namespace phes::server {

namespace {

using detail::make_unix_address;
using detail::throw_errno;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

/// Line bound for connections that have not authenticated yet: the
/// auth op is under 100 bytes, so nothing pre-auth may buffer the full
/// max_line_bytes — that would let a tokenless remote peer park MiBs
/// per connection.
constexpr std::size_t kPreAuthMaxLineBytes = 4096;

/// Lines at most this long are parsed on the loop thread to check for
/// a fast-path op; anything larger (inline submit payloads) goes to
/// the pool without a speculative parse.
constexpr std::size_t kFastPathMaxBytes = 4096;

/// Off-loop protocol handlers.  Each worker can absorb one submit
/// blocked on admission backpressure while the loop keeps polling; 2 is
/// enough for liveness, more only helps when many connections block on
/// submits at once.
constexpr std::size_t kDispatchWorkers = 2;

/// Ops safe to answer inline on the loop: everything except the
/// submits and `replay`, which admit jobs and can block on admission
/// backpressure.
bool is_fast_op(const JsonValue& request) {
  const std::string op = request.string_or("op", "");
  return op != "submit" && op != "submit_inline" && op != "replay";
}

}  // namespace

bool tokens_equal(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  unsigned char diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff = static_cast<unsigned char>(
        diff | (static_cast<unsigned char>(a[i]) ^
                static_cast<unsigned char>(b[i])));
  }
  return diff == 0;
}

const std::string& Transport::auth_token() const noexcept {
  static const std::string empty;
  return empty;
}

// ---- UnixTransport ----------------------------------------------------

UnixTransport::UnixTransport(std::string path) : path_(std::move(path)) {}

int UnixTransport::open_listener() {
  const sockaddr_un addr = make_unix_address(path_);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket()");
  // A leftover socket file from a crashed server would fail the bind;
  // probe it with a connect so a *live* server is never displaced.
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    if (errno != EADDRINUSE) {
      ::close(fd);
      throw_errno("bind(" + path_ + ")");
    }
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    const bool alive =
        probe >= 0 &&
        ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0;
    if (probe >= 0) ::close(probe);
    if (alive) {
      ::close(fd);
      throw std::runtime_error("socket '" + path_ +
                               "' already has a live server");
    }
    ::unlink(path_.c_str());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
        0) {
      ::close(fd);
      throw_errno("bind(" + path_ + ")");
    }
  }
  if (::listen(fd, 128) < 0) {
    ::close(fd);
    ::unlink(path_.c_str());
    throw_errno("listen(" + path_ + ")");
  }
  try {
    set_nonblocking(fd);
  } catch (...) {
    // Leaking a bound listener would wedge every same-path restart:
    // the liveness probe would find it "alive" forever.
    ::close(fd);
    ::unlink(path_.c_str());
    throw;
  }
  bound_ = true;
  return fd;
}

void UnixTransport::close_listener() {
  if (bound_) {
    ::unlink(path_.c_str());
    bound_ = false;
  }
}

std::string UnixTransport::endpoint() const { return "unix:" + path_; }

// ---- TcpTransport -----------------------------------------------------

TcpTransport::TcpTransport(std::string host, std::uint16_t port,
                           std::string token)
    : host_(std::move(host)), port_(port), token_(std::move(token)) {}

int TcpTransport::open_listener() {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* info = nullptr;
  const std::string service = std::to_string(port_);
  const int rc = ::getaddrinfo(host_.empty() ? nullptr : host_.c_str(),
                               service.c_str(), &hints, &info);
  if (rc != 0) {
    throw std::runtime_error("getaddrinfo(" + host_ +
                             "): " + ::gai_strerror(rc));
  }
  int fd = -1;
  std::string error = "no usable address for '" + host_ + "'";
  for (addrinfo* ai = info; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      error = std::string("socket(): ") + std::strerror(errno);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, 128) == 0) {
      break;
    }
    error = "bind/listen(" + endpoint() + "): " + std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(info);
  if (fd < 0) throw std::runtime_error(error);

  sockaddr_in bound_addr{};
  socklen_t len = sizeof bound_addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound_addr), &len) ==
      0) {
    bound_ = ntohs(bound_addr.sin_port);
  } else {
    bound_ = port_;
  }
  try {
    set_nonblocking(fd);
  } catch (...) {
    ::close(fd);
    throw;
  }
  return fd;
}

void TcpTransport::configure_connection(int fd) noexcept {
  // Request/response over discrete lines: never let Nagle hold a
  // response (or the tail of a partially-written one) for the ACK.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

std::string TcpTransport::endpoint() const {
  return "tcp:" + host_ + ":" +
         std::to_string(bound_ != 0 ? bound_ : port_);
}

// ---- TransportServer --------------------------------------------------

TransportServer::TransportServer(
    JobServer& server, std::vector<std::unique_ptr<Transport>> transports,
    TransportLimits limits)
    : server_(server), transports_(std::move(transports)), limits_(limits) {
  if (transports_.empty()) {
    throw std::runtime_error("TransportServer: no transports");
  }
  resolve_instruments();
}

TransportServer::TransportServer(JobServer& server,
                                 std::unique_ptr<Transport> transport,
                                 TransportLimits limits)
    : server_(server), limits_(limits) {
  transports_.push_back(std::move(transport));
  resolve_instruments();
}

void TransportServer::resolve_instruments() {
  obs::MetricsRegistry& registry = server_.metrics_registry();
  accepted_ctr_ = &registry.counter("phes_transport_accepted_total");
  requests_ctr_ = &registry.counter("phes_transport_requests_total");
  inline_requests_ctr_ =
      &registry.counter("phes_transport_inline_requests_total");
  dispatched_ctr_ = &registry.counter("phes_transport_dispatched_total");
  rejected_ctr_ = &registry.counter("phes_transport_rejected_total");
  auth_failures_ctr_ =
      &registry.counter("phes_transport_auth_failures_total");
  oversized_ctr_ = &registry.counter("phes_transport_oversized_lines_total");
  open_connections_gauge_ =
      &registry.gauge("phes_transport_open_connections");
  accept_to_auth_hist_ =
      &registry.histogram("phes_transport_accept_to_auth_seconds");
  inline_handle_hist_ =
      &registry.histogram("phes_transport_inline_handle_seconds");
}

TransportServer::~TransportServer() { stop(); }

void TransportServer::start() {
  listen_fds_.clear();
  // Any failure below must release everything already acquired: a
  // half-started server would leak fds AND leave a bound unix socket
  // file whose leaked listener answers the next start()'s liveness
  // probe, wedging every retry on that path.
  try {
    for (const auto& transport : transports_) {
      listen_fds_.push_back(transport->open_listener());
    }
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) throw_errno("epoll_create1()");
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) throw_errno("eventfd()");
    reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
      throw_errno("epoll_ctl(wakeup)");
    }
    for (const int fd : listen_fds_) {
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
        throw_errno("epoll_ctl(listener)");
      }
    }
  } catch (...) {
    for (std::size_t i = 0; i < listen_fds_.size(); ++i) {
      ::close(listen_fds_[i]);
      transports_[i]->close_listener();
    }
    listen_fds_.clear();
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (reserve_fd_ >= 0) ::close(reserve_fd_);
    epoll_fd_ = wake_fd_ = reserve_fd_ = -1;
    throw;
  }
  dispatch_pool_ = std::make_unique<DispatchPool>(
      kDispatchWorkers, limits_.dispatch_queue_capacity,
      [this](const std::string& line) {
        return handle_request(server_, line);
      },
      [this](std::uint64_t token, RequestOutcome outcome) {
        {
          util::MutexLock lock(completions_mutex_);
          completions_.emplace_back(token, std::move(outcome));
        }
        notify_loop();
      },
      &server_.metrics_registry());
  started_ = true;
  loop_thread_.start(1, [this](std::size_t) { loop(); });
}

void TransportServer::stop() {
  if (!started_) return;
  if (!stopping_.exchange(true)) {
    // The only cross-thread poke: the loop owns every other resource.
    notify_loop();
    loop_thread_.join();
    // Join the pool before closing fds: workers may still push
    // completions and poke the (still-open) eventfd while finishing.
    dispatch_pool_->stop();
    for (auto& [fd, conn] : connections_) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }
    open_connections_gauge_->set(0);
    connections_.clear();
    token_to_fd_.clear();
    for (std::size_t i = 0; i < listen_fds_.size(); ++i) {
      ::close(listen_fds_[i]);
      transports_[i]->close_listener();
    }
    listen_fds_.clear();
    ::close(epoll_fd_);
    ::close(wake_fd_);
    if (reserve_fd_ >= 0) ::close(reserve_fd_);
    epoll_fd_ = wake_fd_ = reserve_fd_ = -1;
    note_shutdown(true);  // release wait_shutdown() on local stop
  }
}

void TransportServer::notify_loop() {
  const std::uint64_t one = 1;
  if (wake_fd_ >= 0) (void)!::write(wake_fd_, &one, sizeof one);
}

void TransportServer::loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd gone: stop() is tearing us down
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        // Completions and stop() share the eventfd; drain the counter,
        // apply finished outcomes, and only exit when stop() asked.
        std::uint64_t count = 0;
        (void)!::read(wake_fd_, &count, sizeof count);
        if (stopping_.load(std::memory_order_acquire)) return;
        drain_completions();
        continue;
      }
      bool is_listener = false;
      for (std::size_t t = 0; t < listen_fds_.size(); ++t) {
        if (fd == listen_fds_[t]) {
          accept_ready(t);
          is_listener = true;
          break;
        }
      }
      if (is_listener) continue;
      const auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this wake
      Connection& conn = *it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        close_connection(fd);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) write_ready(conn);
      if (connections_.count(fd) == 0) continue;  // closed by the flush
      if ((events[i].events & EPOLLIN) != 0) read_ready(conn);
    }
  }
}

void TransportServer::accept_ready(std::size_t listener_index) {
  for (;;) {
    const int fd = ::accept4(listen_fds_[listener_index], nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // fd exhaustion: the pending connection stays queued and the
        // level-triggered listener event would refire every epoll_wait
        // (a 100% CPU spin).  Shed it through the reserve descriptor:
        // free the reserve, accept+close the connection, re-arm.
        if (reserve_fd_ >= 0) {
          ::close(reserve_fd_);
          const int shed =
              ::accept(listen_fds_[listener_index], nullptr, nullptr);
          if (shed >= 0) ::close(shed);
          reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        }
        return;
      }
      return;  // EAGAIN (drained) or listener failure
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->token = ++next_token_;
    conn->transport = transports_[listener_index].get();
    conn->transport->configure_connection(fd);
    conn->authed = !conn->transport->requires_auth();
    conn->accepted_at = std::chrono::steady_clock::now();
    conn->armed_events = EPOLLIN;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    token_to_fd_[conn->token] = fd;
    connections_.emplace(fd, std::move(conn));
    accepted_ctr_->add();
    open_connections_gauge_->add();
  }
}

void TransportServer::read_ready(Connection& conn) {
  const int fd = conn.fd;
  char buf[16384];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_connection(fd);
      return;
    }
    if (n == 0) {  // peer closed; flush nothing, just drop
      close_connection(fd);
      return;
    }
    conn.in.append(buf, static_cast<std::size_t>(n));
    process_buffer(conn);
    if (connections_.count(fd) == 0) return;  // closed while processing
    if (conn.close_after_flush) break;        // stop reading more input
    if (conn.paused) break;  // flow control: resume after the backlog
  }
}

void TransportServer::process_buffer(Connection& conn) {
  const int fd = conn.fd;
  for (;;) {
    if (conn.paused) return;  // backlog bound hit; resumed by the drain
    // Recomputed per line: the limit widens once the auth line passed.
    const std::size_t max_line =
        conn.authed ? limits_.max_line_bytes : kPreAuthMaxLineBytes;
    if (conn.discarding) {
      // Drop the remainder of an oversized line; resume after its '\n'.
      const std::size_t nl = conn.in.find('\n');
      if (nl == std::string::npos) {
        conn.in.clear();
        return;
      }
      conn.in.erase(0, nl + 1);
      conn.discarding = false;
    }
    const std::size_t nl = conn.in.find('\n');
    if (nl == std::string::npos) {
      if (conn.in.size() > max_line) {
        // Flip to discard mode BEFORE reject_oversized: a write
        // failure inside it closes the connection and `conn` dangles.
        conn.in.clear();
        conn.discarding = true;
        reject_oversized(conn, max_line);
        if (connections_.count(fd) == 0) return;
        if (conn.close_after_flush) return;
        continue;  // keep scanning for the terminator of the long line
      }
      return;  // wait for more bytes (frame split across wakeups)
    }
    if (nl > max_line) {
      // The whole line arrived in one read, terminator included: still
      // over the bound, but nothing needs discarding.
      conn.in.erase(0, nl + 1);
      reject_oversized(conn, max_line);
      if (connections_.count(fd) == 0) return;
      if (conn.close_after_flush) return;
      continue;
    }
    std::string line = conn.in.substr(0, nl);
    conn.in.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    handle_line(conn, line);
    if (connections_.count(fd) == 0) return;  // closed by the handler
    if (conn.close_after_flush) return;       // no further requests
  }
}

void TransportServer::reject_oversized(Connection& conn,
                                       std::size_t max_line) {
  oversized_ctr_->add();
  if (!conn.authed) auth_failures_ctr_->add();
  // An unauthenticated peer flooding over-bound lines never reaches
  // the auth op: refuse and close, like any other pre-auth
  // misbehaviour.  Authenticated connections survive (the line was
  // discarded, framing is intact).
  if (!conn.authed) conn.close_after_flush = true;
  enqueue(conn, "{\"ok\": false, \"error\": \"request line exceeds " +
                    std::to_string(max_line) + " bytes\"}");
}

void TransportServer::handle_line(Connection& conn, const std::string& line) {
  if (!conn.authed) {
    // First line on an authenticated transport MUST be the auth op.
    bool ok = false;
    try {
      const JsonValue request = JsonValue::parse(line);
      ok = request.string_or("op", "") == "auth" &&
           tokens_equal(request.string_or("token", ""),
                        conn.transport->auth_token());
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok) {
      auth_failures_ctr_->add();
      // Close once the refusal is flushed (enqueue's write path honours
      // close_after_flush, or EPOLLOUT finishes the job later).
      conn.close_after_flush = true;
      enqueue(conn,
              "{\"ok\": false, \"error\": \"authentication required\"}");
      return;
    }
    conn.authed = true;
    accept_to_auth_hist_->observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      conn.accepted_at)
            .count());
    enqueue(conn, "{\"ok\": true, \"op\": \"auth\"}");
    return;
  }
  requests_ctr_->add();
  // Fast path: cheap ops on an idle connection skip the pool — but
  // never overtake a queued request (per-connection response order).
  // The line is parsed once here and the document reused by the
  // handler; lines that do not parse are also answered inline (the
  // error response is immediate).
  const bool busy = conn.inflight || !conn.pending.empty();
  if (!busy && line.size() <= kFastPathMaxBytes) {
    bool parsed = false;
    JsonValue request;
    try {
      request = JsonValue::parse(line);
      parsed = true;
    } catch (const std::exception&) {
    }
    if (!parsed || is_fast_op(request)) {
      inline_requests_ctr_->add();
      const util::WallTimer inline_timer;
      RequestOutcome outcome =
          parsed ? handle_request(server_, request)
                 : handle_request(server_, line);
      inline_handle_hist_->observe(inline_timer.seconds());
      finish_outcome(conn, outcome);
      return;
    }
  }
  const int fd = conn.fd;  // conn may be destroyed inside the pump
  conn.pending.push_back(line);
  pump_dispatch(conn);
  if (connections_.count(fd) == 0) return;
  if (!conn.paused &&
      conn.pending.size() >= limits_.max_pipelined_requests) {
    conn.paused = true;  // park the read side; drain resumes it
    update_epoll(conn);
  }
}

void TransportServer::finish_outcome(Connection& conn,
                                     const RequestOutcome& outcome) {
  const int fd = conn.fd;
  if (!outcome.shutdown_requested) {
    enqueue(conn, outcome.response);
    return;
  }
  // The ack must reach the peer before the owner (woken by
  // note_shutdown) tears the transport down; flush it now.
  conn.close_after_flush = true;
  enqueue(conn, outcome.response);
  if (connections_.count(fd) != 0) {
    flush_blocking(conn);
    if (connections_.count(fd) != 0) close_connection(fd);
  }
  note_shutdown(outcome.drain);
}

void TransportServer::pump_dispatch(Connection& conn) {
  // Saved before any enqueue(): a write failure (or out-buffer bound)
  // inside it destroys the Connection, and `conn` must not be touched
  // once connections_ no longer holds this fd.
  const int fd = conn.fd;
  while (!conn.inflight && !conn.pending.empty()) {
    if (dispatch_pool_->try_submit(conn.token, conn.pending.front())) {
      conn.pending.pop_front();
      conn.inflight = true;
      dispatched_ctr_->add();
      return;
    }
    // Pool queue full: answer in order rather than stalling the loop.
    conn.pending.pop_front();
    rejected_ctr_->add();
    enqueue(conn, "{\"ok\": false, \"error\": \"server overloaded: "
                  "dispatch queue full\"}");
    if (connections_.count(fd) == 0) return;  // conn destroyed
  }
}

void TransportServer::drain_completions() {
  std::deque<std::pair<std::uint64_t, RequestOutcome>> batch;
  {
    util::MutexLock lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (auto& [token, outcome] : batch) {
    Connection* conn = nullptr;
    const auto token_it = token_to_fd_.find(token);
    if (token_it != token_to_fd_.end()) {
      const auto it = connections_.find(token_it->second);
      if (it != connections_.end()) conn = it->second.get();
    }
    if (outcome.shutdown_requested) {
      // A shutdown op that queued behind a submit: honour it even if
      // the requesting connection is already gone.
      if (conn != nullptr) {
        conn->inflight = false;
        conn->close_after_flush = true;
        const int fd = conn->fd;
        enqueue(*conn, outcome.response);
        if (connections_.count(fd) != 0) {
          flush_blocking(*conn);
          if (connections_.count(fd) != 0) close_connection(fd);
        }
      }
      note_shutdown(outcome.drain);
      continue;
    }
    if (conn == nullptr) continue;  // connection closed mid-flight
    conn->inflight = false;
    const int fd = conn->fd;
    enqueue(*conn, outcome.response);
    if (connections_.count(fd) == 0) continue;
    pump_dispatch(*conn);
    if (connections_.count(fd) == 0) continue;
    if (conn->paused &&
        conn->pending.size() < limits_.max_pipelined_requests) {
      // Resume reading and frame whatever buffered while parked (no
      // EPOLLIN will fire for bytes already consumed off the socket).
      conn->paused = false;
      update_epoll(*conn);
      process_buffer(*conn);
    }
  }
}

void TransportServer::enqueue(Connection& conn,
                              const std::string& response_line) {
  const int fd = conn.fd;
  conn.out += response_line;
  conn.out += '\n';
  // Opportunistic write: most responses go out in one send, and only a
  // residue (partial write) arms EPOLLOUT.
  write_ready(conn);
  // Read-side backpressure: a peer that issues requests but never
  // drains its socket accumulates pending responses; past the bound it
  // is dropped (no point sending it an error it will not read).
  if (connections_.count(fd) != 0 &&
      conn.out.size() - conn.out_off > limits_.max_pending_out_bytes) {
    close_connection(fd);
  }
}

void TransportServer::write_ready(Connection& conn) {
  const int fd = conn.fd;
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_connection(fd);
      return;
    }
    conn.out_off += static_cast<std::size_t>(n);
  }
  if (conn.out_off >= conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
    if (conn.close_after_flush) {
      close_connection(fd);
      return;
    }
  }
  update_epoll(conn);
}

void TransportServer::flush_blocking(Connection& conn) {
  // Bounded: a peer that never drains its socket cannot wedge the loop
  // for more than ~5 s, and only on the shutdown path.
  for (int spin = 0; spin < 50 && conn.out_off < conn.out.size(); ++spin) {
    pollfd pfd{conn.fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 100) < 0 && errno != EINTR) break;
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      close_connection(conn.fd);
      return;
    }
    conn.out_off += static_cast<std::size_t>(n);
  }
  if (conn.out_off >= conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
}

void TransportServer::update_epoll(Connection& conn) {
  const bool pending_out = conn.out_off < conn.out.size();
  const bool want_read = !conn.close_after_flush && !conn.paused;
  const auto desired = static_cast<std::uint32_t>(
      (want_read ? EPOLLIN : 0u) | (pending_out ? EPOLLOUT : 0u));
  if (desired == conn.armed_events) return;
  conn.armed_events = desired;
  epoll_event ev{};
  ev.events = desired;
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void TransportServer::close_connection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  token_to_fd_.erase(it->second->token);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(it);
  open_connections_gauge_->sub();
}

void TransportServer::note_shutdown(bool drain) {
  {
    util::MutexLock lock(shutdown_mutex_);
    if (shutdown_requested_) return;  // first request wins
    shutdown_requested_ = true;
    drain_ = drain;
  }
  shutdown_cv_.notify_all();
}

bool TransportServer::wait_shutdown() {
  util::MutexLock lock(shutdown_mutex_);
  while (!shutdown_requested_) shutdown_cv_.wait(shutdown_mutex_);
  return drain_;
}

bool TransportServer::shutdown_requested() const {
  util::MutexLock lock(shutdown_mutex_);
  return shutdown_requested_;
}

}  // namespace phes::server
