#pragma once
// Pluggable transport layer for the NDJSON job-server protocol.
//
// A Transport owns one listening endpoint and its per-connection
// policy; two implementations exist:
//   UnixTransport — the original AF_UNIX filesystem socket (stale-file
//     probe, unlink on close, no authentication: filesystem permissions
//     are the access control).
//   TcpTransport  — an AF_INET listener for remote clients.  Every
//     connection must authenticate before any other op: the first line
//     must be {"op":"auth","token":"..."} matching the shared token, or
//     the connection is refused.  Plain TCP — run it on a trusted
//     network or behind a TLS terminator (see README).
//
// TransportServer drives any number of transports from a single
// epoll-based event loop thread: sockets are non-blocking, every
// connection carries its own read/write buffers, and frames are
// newline-delimited JSON lines reassembled across partial reads (a
// frame split over many epoll wakeups is handled, as is a response
// split over many partial writes).  A line that grows past
// TransportLimits::max_line_bytes without a terminator gets one error
// response and the rest of that line is discarded — the connection
// survives.
//
// Request handling runs OFF the loop thread on a two-worker
// DispatchPool (server/dispatch.hpp): the loop frames a line, hands it
// to the pool, and keeps serving every other connection; the completed
// response is re-queued to the loop through the eventfd wakeup and
// written from the loop thread (workers never touch sockets).  A submit
// blocked on a full admission queue therefore stalls only its own
// connection (and one pool worker) — status/metrics/ping stay live,
// even with both workers blocked.  Two refinements:
//   - fast path: cheap ops (ping/status/result/cancel/metrics/auth/
//     shutdown) on a connection with nothing in flight are answered
//     inline on the loop — no pool round-trip;
//   - per-connection ordering: at most one request per connection is
//     in the pool at a time; later frames wait in the connection's
//     pending queue, and a connection that pipelines past
//     max_pipelined_requests has its read interest parked until the
//     backlog drains (flow control, not disconnect).

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "phes/server/dispatch.hpp"
#include "phes/server/protocol.hpp"
#include "phes/util/metrics.hpp"
#include "phes/util/sync.hpp"
#include "phes/util/threads.hpp"

namespace phes::server {

class JobServer;

/// One listening endpoint plus its per-connection policy.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Bind + listen; returns the (non-blocking) listening fd.  Throws
  /// std::runtime_error on socket failures.
  [[nodiscard]] virtual int open_listener() = 0;

  /// Release endpoint resources after the listening fd was closed
  /// (e.g. unlink the AF_UNIX socket file).
  virtual void close_listener() {}

  /// Connections must authenticate (auth op, shared token) before any
  /// other request is served.
  [[nodiscard]] virtual bool requires_auth() const noexcept { return false; }

  /// Per-connection socket configuration applied right after accept
  /// (e.g. TCP_NODELAY); best-effort, must not throw.
  virtual void configure_connection(int /*fd*/) noexcept {}

  /// The shared secret the auth handshake compares against; empty when
  /// requires_auth() is false.
  [[nodiscard]] virtual const std::string& auth_token() const noexcept;

  /// Human-readable endpoint for logs ("unix:/tmp/x.sock", "tcp:h:p").
  [[nodiscard]] virtual std::string endpoint() const = 0;
};

/// AF_UNIX filesystem socket.  A stale socket file left by a dead
/// process is probed (connect) and replaced; a live server on the same
/// path is never displaced.
class UnixTransport final : public Transport {
 public:
  explicit UnixTransport(std::string path);

  [[nodiscard]] int open_listener() override;
  void close_listener() override;
  [[nodiscard]] std::string endpoint() const override;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  bool bound_ = false;
};

/// AF_INET listener with a shared-token auth handshake.  `port` 0
/// binds an ephemeral port; endpoint() names the actual one after
/// open_listener().
class TcpTransport final : public Transport {
 public:
  TcpTransport(std::string host, std::uint16_t port, std::string token);

  [[nodiscard]] int open_listener() override;
  void configure_connection(int fd) noexcept override;
  [[nodiscard]] bool requires_auth() const noexcept override {
    return !token_.empty();
  }
  [[nodiscard]] const std::string& auth_token() const noexcept override {
    return token_;
  }
  [[nodiscard]] std::string endpoint() const override;

 private:
  std::string host_;
  std::uint16_t port_ = 0;
  std::uint16_t bound_ = 0;
  std::string token_;
};

struct TransportLimits {
  /// Hard bound on one NDJSON request line.  A connection exceeding it
  /// gets an error response and the oversized line is discarded; the
  /// connection stays up.  Sized for inline Touchstone payloads.
  /// Connections that have not passed the auth handshake yet are held
  /// to a fixed 4 KiB bound instead (the auth op is tiny) and are
  /// closed outright on exceeding it, so a tokenless remote peer
  /// cannot park megabytes of buffer.
  std::size_t max_line_bytes = 8u << 20;
  /// Bound on a connection's pending (unsendable) response bytes.  A
  /// peer that keeps issuing requests without reading responses would
  /// otherwise grow the out-buffer without limit — the blocking-write
  /// backpressure of the old thread-per-connection model, restored as
  /// a hard cap: past it the connection is dropped.
  std::size_t max_pending_out_bytes = 16u << 20;
  /// Bound on the dispatch pool's task queue; with per-connection
  /// single-flight this only fills when more than this many
  /// connections have a request in flight — excess requests get a
  /// "server overloaded" error instead of stalling the loop.
  std::size_t dispatch_queue_capacity = 1024;
  /// Frames a connection may pipeline ahead of its in-flight request
  /// before the loop parks its read interest (resumed as the backlog
  /// drains) — bounds per-connection memory without disconnecting.
  std::size_t max_pipelined_requests = 128;
};

/// Single-threaded epoll event loop serving the NDJSON protocol over
/// any set of transports, with request handling on a DispatchPool.
/// Lifecycle mirrors the old SocketServer: construct -> start() ->
/// (clients) -> wait_shutdown()/stop().
class TransportServer {
 public:
  TransportServer(JobServer& server,
                  std::vector<std::unique_ptr<Transport>> transports,
                  TransportLimits limits = {});
  /// Single-transport convenience.
  TransportServer(JobServer& server, std::unique_ptr<Transport> transport,
                  TransportLimits limits = {});
  ~TransportServer();

  TransportServer(const TransportServer&) = delete;
  TransportServer& operator=(const TransportServer&) = delete;

  /// Open every listener and start the event-loop thread (plus the
  /// dispatch pool).  Throws std::runtime_error on socket failures (no
  /// thread is left behind).
  void start();

  /// Stop the loop, join the dispatch pool, close every listener and
  /// connection, join the thread.  Idempotent.  A dispatch worker
  /// blocked inside a submit unblocks once the JobServer frees a slot
  /// or shuts down — keep the JobServer alive until stop() returns.
  void stop();

  /// Block until a client requests shutdown (or stop() is called).
  /// Returns the requested drain mode (true when stopped locally).
  bool wait_shutdown() PHES_EXCLUDES(shutdown_mutex_);
  [[nodiscard]] bool shutdown_requested() const
      PHES_EXCLUDES(shutdown_mutex_);

  [[nodiscard]] const std::vector<std::unique_ptr<Transport>>& transports()
      const noexcept {
    return transports_;
  }

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t token = 0;   ///< stable id (fds are reused by the OS)
    Transport* transport = nullptr;
    bool authed = false;       ///< true immediately when no auth needed
    /// Accept time — feeds the accept-to-auth latency histogram when
    /// the transport requires the auth handshake.
    std::chrono::steady_clock::time_point accepted_at{};
    std::string in;            ///< bytes carried across partial reads
    std::string out;           ///< response bytes pending write
    std::size_t out_off = 0;   ///< sent prefix of `out`
    bool discarding = false;   ///< dropping an oversized line
    bool close_after_flush = false;
    std::uint32_t armed_events = 0;  ///< epoll interest currently set
    // Off-loop dispatch state (loop-thread-owned).
    std::deque<std::string> pending;  ///< frames behind the in-flight one
    bool inflight = false;     ///< one request in the pool
    bool paused = false;       ///< read interest parked (flow control)
  };

  void loop();
  void accept_ready(std::size_t listener_index);
  void read_ready(Connection& conn);
  void write_ready(Connection& conn);
  /// Frame + dispatch everything complete in conn.in.
  void process_buffer(Connection& conn);
  void handle_line(Connection& conn, const std::string& line);
  /// Answer a finished outcome on the loop thread (shutdown included).
  void finish_outcome(Connection& conn, const RequestOutcome& outcome);
  /// Feed the connection's pending frames to the pool (one in flight).
  void pump_dispatch(Connection& conn);
  /// Apply finished pool outcomes queued by the completion callback.
  void drain_completions() PHES_EXCLUDES(completions_mutex_);
  void enqueue(Connection& conn, const std::string& response_line);
  /// Answer an over-bound request line (error response; pre-auth
  /// connections are additionally closed).  The caller has already
  /// adjusted conn.in / conn.discarding.
  void reject_oversized(Connection& conn, std::size_t max_line);
  /// Flush conn.out with a bounded poll loop (shutdown-ack path only:
  /// the ack must reach the peer before the owner tears us down).
  void flush_blocking(Connection& conn);
  void update_epoll(Connection& conn);
  void close_connection(int fd);
  void note_shutdown(bool drain) PHES_EXCLUDES(shutdown_mutex_);
  /// Kick the loop out of epoll_wait (completion arrived / stop()).
  void notify_loop();
  /// Resolve the instrument handles from the JobServer's registry
  /// (construction only).
  void resolve_instruments();

  JobServer& server_;
  std::vector<std::unique_ptr<Transport>> transports_;
  TransportLimits limits_;

  std::vector<int> listen_fds_;  ///< parallel to transports_
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: stop() and completions kick the loop
  /// Reserve descriptor sacrificed to accept+close a pending
  /// connection under EMFILE/ENFILE (else the level-triggered listener
  /// event busy-spins the loop).
  int reserve_fd_ = -1;
  util::ThreadGroup loop_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  /// Owned by the loop thread between start() and join.
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  std::unordered_map<std::uint64_t, int> token_to_fd_;
  std::uint64_t next_token_ = 0;

  std::unique_ptr<DispatchPool> dispatch_pool_;  ///< built by start()
  util::Mutex completions_mutex_;
  std::deque<std::pair<std::uint64_t, RequestOutcome>> completions_
      PHES_GUARDED_BY(completions_mutex_);

  // Transport-layer instruments, resolved once at construction from the
  // JobServer's registry.
  obs::Counter* accepted_ctr_ = nullptr;
  obs::Counter* requests_ctr_ = nullptr;
  obs::Counter* inline_requests_ctr_ = nullptr;
  obs::Counter* dispatched_ctr_ = nullptr;
  obs::Counter* rejected_ctr_ = nullptr;
  obs::Counter* auth_failures_ctr_ = nullptr;
  obs::Counter* oversized_ctr_ = nullptr;
  obs::Gauge* open_connections_gauge_ = nullptr;
  obs::Histogram* accept_to_auth_hist_ = nullptr;
  obs::Histogram* inline_handle_hist_ = nullptr;

  mutable util::Mutex shutdown_mutex_;
  util::CondVar shutdown_cv_;
  bool shutdown_requested_ PHES_GUARDED_BY(shutdown_mutex_) = false;
  bool drain_ PHES_GUARDED_BY(shutdown_mutex_) = true;
};

/// Constant-time token comparison (length leaks, contents do not).
[[nodiscard]] bool tokens_equal(const std::string& a, const std::string& b);

}  // namespace phes::server
