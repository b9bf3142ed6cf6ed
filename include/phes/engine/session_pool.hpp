#pragma once
// Cross-job session sharing — a pool of SolverSessions keyed by model
// content hash.
//
// The workload that motivates a long-lived job server is many
// near-identical jobs over the same macromodel: parameter sweeps of
// enforcement options, repeated characterizations while a designer
// iterates, batches regenerated from the same Touchstone sweep.  Each
// such job realizes the same SimoRealization, so its shift-invert
// factorizations are interchangeable — but a per-job SolverSession
// (PR 2) throws them away when the job ends.  The pool keeps finished
// jobs' sessions alive, keyed by a content hash of the realization, and
// hands them to the next job over the same model: that job's solver
// then starts with a hot ShiftFactorizationCache.
//
// Correctness rules:
//  - Checkout is exclusive (SolverSession::solve is not thread-safe);
//    concurrent jobs over one model get distinct sessions, successive
//    jobs reuse them.  A hash match is confirmed by an exact
//    realization comparison, so a hash collision degrades to a pool
//    miss, never to a wrong model.
//  - Only clean sessions are kept: enforcement perturbs the session's
//    residues and bumps its revision, and a session returned at any
//    revision but its first (0) is dropped, so the next job always sees
//    the unperturbed model.  Restoring the residues would not pay: it
//    purges the factorization cache and moves the dense memo's key, so
//    a restored session is no warmer than a fresh one.
//  - Determinism: the warm-start record is cleared on return.  A
//    reused session then schedules the next job's solves exactly like
//    a fresh one — cached factorizations change *cost*, never results,
//    keeping pooled jobs bit-identical to one-shot runs.  A dense-route
//    session keeps its dense-result memo across jobs; a hit returns the
//    bits a fresh solve computes, so the rule holds.
//  - Idle sessions are evicted least-recently-used first once the pool
//    exceeds its session-count or approximate-memory budget.
//
// Counters and levels live in an obs::MetricsRegistry
// (phes_session_pool_*; see README "Observability"); stats() is a view
// over those instruments.

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>

#include "phes/engine/session.hpp"
#include "phes/macromodel/simo_realization.hpp"
#include "phes/util/metrics.hpp"
#include "phes/util/sync.hpp"

namespace phes::engine {

/// Content hash of a realization (FNV-1a over the pole blocks and the
/// raw bits of C and D).  Equal models hash equal; the pool never
/// trusts a hash match without an exact comparison.
[[nodiscard]] std::uint64_t model_hash(
    const macromodel::SimoRealization& realization);

/// Exact (bitwise) model equality — the pool's collision guard.
[[nodiscard]] bool same_realization(const macromodel::SimoRealization& a,
                                    const macromodel::SimoRealization& b);

struct SessionPoolOptions {
  /// Budget for *idle* sessions; checked-out sessions are never evicted.
  std::size_t max_idle_sessions = 16;
  std::size_t memory_budget_bytes = 256u << 20;
};

struct SessionPoolStats {
  std::size_t checkouts = 0;
  std::size_t pool_hits = 0;  ///< checkouts served by an idle session
  std::size_t creations = 0;
  std::size_t returns = 0;    ///< leases ended, dropped sessions included
  std::size_t evictions = 0;  ///< idle sessions dropped by the budgets
  std::size_t collisions = 0; ///< hash matches rejected by comparison
  std::size_t idle_sessions = 0;
  std::size_t leased_sessions = 0;
  std::size_t idle_bytes = 0; ///< approximate resident idle memory
};

class SessionPool;

/// Exclusive RAII lease of a pooled session; the destructor returns the
/// session to the pool (dropping it if its revision moved, evicting
/// over budget).
/// The pool must outlive every lease.
class SessionLease {
 public:
  SessionLease() = default;
  SessionLease(SessionLease&& other) noexcept;
  SessionLease& operator=(SessionLease&& other) noexcept;
  SessionLease(const SessionLease&) = delete;
  SessionLease& operator=(const SessionLease&) = delete;
  ~SessionLease();

  [[nodiscard]] explicit operator bool() const noexcept {
    return entry_ != nullptr;
  }
  /// Valid only while the lease holds an entry.
  [[nodiscard]] SolverSession& session() const;
  /// True when the checkout was served by an idle pooled session (the
  /// factorization cache may already be hot).
  [[nodiscard]] bool reused() const noexcept { return reused_; }

  /// Return the session now (idempotent).
  void release();

 private:
  friend class SessionPool;

  SessionPool* pool_ = nullptr;
  void* entry_ = nullptr;  ///< SessionPool::Entry, opaque here
  bool reused_ = false;
};

class SessionPool {
 public:
  /// Counters and levels live in `registry` (the owning server's);
  /// nullptr gives the pool a private registry.
  explicit SessionPool(SessionPoolOptions options = {},
                       obs::MetricsRegistry* registry = nullptr);
  ~SessionPool();

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// Check out a session for `realization`'s model.  An idle session
  /// with the same content hash (verified by exact comparison) is
  /// reused; otherwise `realization` is moved into a fresh session.
  [[nodiscard]] SessionLease checkout(macromodel::SimoRealization realization)
      PHES_EXCLUDES(mutex_);

  [[nodiscard]] SessionPoolStats stats() const PHES_EXCLUDES(mutex_);

 private:
  friend class SessionLease;

  struct Entry {
    std::uint64_t hash = 0;
    std::unique_ptr<SolverSession> session;
    std::size_t bytes = 0;
  };

  void give_back(Entry* entry) PHES_EXCLUDES(mutex_);
  void evict_over_budget_locked() PHES_REQUIRES(mutex_);
  /// Copy the idle/leased levels into their gauges.
  void publish_levels_locked() PHES_REQUIRES(mutex_);

  SessionPoolOptions options_;
  mutable util::Mutex mutex_;
  /// Idle entries, most recently used first.
  std::list<std::unique_ptr<Entry>> idle_ PHES_GUARDED_BY(mutex_);
  std::size_t idle_bytes_ PHES_GUARDED_BY(mutex_) = 0;
  std::size_t leased_ PHES_GUARDED_BY(mutex_) = 0;

  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::Counter* checkouts_ = nullptr;
  obs::Counter* hits_ = nullptr;
  obs::Counter* creations_ = nullptr;
  obs::Counter* returns_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* collisions_ = nullptr;
  /// Written only under mutex_, so stats() reads consistent levels.
  obs::Gauge* idle_sessions_gauge_ PHES_PT_GUARDED_BY(mutex_) = nullptr;
  obs::Gauge* leased_sessions_gauge_ PHES_PT_GUARDED_BY(mutex_) = nullptr;
  obs::Gauge* idle_bytes_gauge_ PHES_PT_GUARDED_BY(mutex_) = nullptr;
};

}  // namespace phes::engine
