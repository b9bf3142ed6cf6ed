#include "phes/engine/session_pool.hpp"

#include <cstring>
#include <utility>

#include "phes/util/check.hpp"

namespace phes::engine {

namespace {

// FNV-1a, 64-bit.
struct Fnv1a {
  std::uint64_t state = 14695981039346656037ull;
  void mix_bytes(const void* data, std::size_t size) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      state ^= p[i];
      state *= 1099511628211ull;
    }
  }
  void mix(std::uint64_t v) noexcept { mix_bytes(&v, sizeof v); }
  void mix(double v) noexcept {
    // Hash the representation: bit-equal models hash equal, and the
    // pool confirms any match with an exact comparison anyway.
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  }
};

}  // namespace

std::uint64_t model_hash(const macromodel::SimoRealization& r) {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(r.order()));
  h.mix(static_cast<std::uint64_t>(r.ports()));
  for (const auto& blk : r.blocks()) {
    h.mix(static_cast<std::uint64_t>(blk.state));
    h.mix(static_cast<std::uint64_t>(blk.column));
    h.mix(static_cast<std::uint64_t>(blk.is_pair ? 1 : 0));
    h.mix(blk.alpha);
    h.mix(blk.beta);
  }
  h.mix_bytes(r.c().data(), r.c().size() * sizeof(double));
  h.mix_bytes(r.d().data(), r.d().size() * sizeof(double));
  return h.state;
}

bool same_realization(const macromodel::SimoRealization& a,
                      const macromodel::SimoRealization& b) {
  if (a.order() != b.order() || a.ports() != b.ports() ||
      a.blocks().size() != b.blocks().size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.blocks().size(); ++i) {
    const auto& x = a.blocks()[i];
    const auto& y = b.blocks()[i];
    if (x.state != y.state || x.column != y.column ||
        x.is_pair != y.is_pair || x.alpha != y.alpha || x.beta != y.beta) {
      return false;
    }
  }
  const auto bits_equal = [](const la::RealMatrix& m,
                             const la::RealMatrix& n) {
    return m.rows() == n.rows() && m.cols() == n.cols() &&
           std::memcmp(m.data(), n.data(), m.size() * sizeof(double)) == 0;
  };
  return bits_equal(a.c(), b.c()) && bits_equal(a.d(), b.d());
}

// ---- SessionLease -----------------------------------------------------

SessionLease::SessionLease(SessionLease&& other) noexcept
    : pool_(other.pool_), entry_(other.entry_), reused_(other.reused_) {
  other.pool_ = nullptr;
  other.entry_ = nullptr;
}

SessionLease& SessionLease::operator=(SessionLease&& other) noexcept {
  if (this != &other) {
    release();
    pool_ = other.pool_;
    entry_ = other.entry_;
    reused_ = other.reused_;
    other.pool_ = nullptr;
    other.entry_ = nullptr;
  }
  return *this;
}

SessionLease::~SessionLease() { release(); }

SolverSession& SessionLease::session() const {
  util::check(entry_ != nullptr, "SessionLease: no session held");
  return *static_cast<SessionPool::Entry*>(entry_)->session;
}

void SessionLease::release() {
  if (entry_ != nullptr && pool_ != nullptr) {
    pool_->give_back(static_cast<SessionPool::Entry*>(entry_));
  }
  pool_ = nullptr;
  entry_ = nullptr;
}

// ---- SessionPool ------------------------------------------------------

SessionPool::SessionPool(SessionPoolOptions options,
                         obs::MetricsRegistry* registry)
    : options_(options) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  checkouts_ = &registry->counter("phes_session_pool_checkouts_total");
  hits_ = &registry->counter("phes_session_pool_hits_total");
  creations_ = &registry->counter("phes_session_pool_creations_total");
  returns_ = &registry->counter("phes_session_pool_returns_total");
  evictions_ = &registry->counter("phes_session_pool_evictions_total");
  collisions_ = &registry->counter("phes_session_pool_collisions_total");
  idle_sessions_gauge_ = &registry->gauge("phes_session_pool_idle_sessions");
  leased_sessions_gauge_ =
      &registry->gauge("phes_session_pool_leased_sessions");
  idle_bytes_gauge_ = &registry->gauge("phes_session_pool_idle_bytes");
}

SessionPool::~SessionPool() = default;

SessionLease SessionPool::checkout(macromodel::SimoRealization realization) {
  const std::uint64_t hash = model_hash(realization);

  std::unique_ptr<Entry> entry;
  bool reused = false;
  {
    util::MutexLock lock(mutex_);
    checkouts_->add();
    for (auto it = idle_.begin(); it != idle_.end(); ++it) {
      if ((*it)->hash != hash) continue;
      if (!same_realization((*it)->session->realization(), realization)) {
        collisions_->add();
        continue;
      }
      entry = std::move(*it);
      idle_.erase(it);
      idle_bytes_ -= entry->bytes;
      hits_->add();
      reused = true;
      break;
    }
    if (entry == nullptr) creations_->add();
    ++leased_;
    publish_levels_locked();
  }

  if (entry == nullptr) {
    // Construct outside the lock: a fresh session copies the model's
    // matrices.
    entry = std::make_unique<Entry>();
    entry->hash = hash;
    entry->session = std::make_unique<SolverSession>(std::move(realization));
  }

  SessionLease lease;
  lease.pool_ = this;
  lease.entry_ = entry.release();
  lease.reused_ = reused;
  return lease;
}

void SessionPool::give_back(Entry* raw) {
  std::unique_ptr<Entry> entry(raw);

  // A job that perturbed the residues (enforcement) moved the revision
  // off 0.  Its session is dropped, outside the pool lock, so the next
  // job over this hash never sees the perturbed model.
  if (entry->session->revision() != 0) {
    entry.reset();
  } else {
    entry->bytes = entry->session->approx_memory_bytes();
  }

  util::MutexLock lock(mutex_);
  returns_->add();
  --leased_;
  if (entry != nullptr) {
    idle_bytes_ += entry->bytes;
    idle_.push_front(std::move(entry));
    evict_over_budget_locked();
  }
  publish_levels_locked();
}

void SessionPool::evict_over_budget_locked() {
  while (idle_.size() > options_.max_idle_sessions ||
         (idle_bytes_ > options_.memory_budget_bytes && !idle_.empty())) {
    idle_bytes_ -= idle_.back()->bytes;
    idle_.pop_back();
    evictions_->add();
  }
}

void SessionPool::publish_levels_locked() {
  idle_sessions_gauge_->set(static_cast<std::int64_t>(idle_.size()));
  leased_sessions_gauge_->set(static_cast<std::int64_t>(leased_));
  idle_bytes_gauge_->set(static_cast<std::int64_t>(idle_bytes_));
}

SessionPoolStats SessionPool::stats() const {
  util::MutexLock lock(mutex_);
  SessionPoolStats s;
  s.checkouts = checkouts_->value();
  s.pool_hits = hits_->value();
  s.creations = creations_->value();
  s.returns = returns_->value();
  s.evictions = evictions_->value();
  s.collisions = collisions_->value();
  s.idle_sessions = static_cast<std::size_t>(idle_sessions_gauge_->value());
  s.leased_sessions =
      static_cast<std::size_t>(leased_sessions_gauge_->value());
  s.idle_bytes = static_cast<std::size_t>(idle_bytes_gauge_->value());
  return s;
}

}  // namespace phes::engine
