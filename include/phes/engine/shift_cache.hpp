#pragma once
// Thread-safe LRU cache of Sherman-Morrison-Woodbury shift-and-invert
// factorizations, keyed on (model revision, shift).
//
// The dominant per-shift cost of the eigensolver is the O(n p^2 + p^3)
// operator setup (two transfer evaluations plus the 2p x 2p kernel LU).
// Re-characterizations of the SAME model revision — the verify stage
// after enforcement, repeated batch jobs, confirmation re-solves — ask
// for the same shifts again; this cache hands the finished operator
// back instead of rebuilding it.  A residue update bumps the owning
// session's revision, so stale operators can never be returned (the
// operator reads the realization's C matrix at apply time); the session
// also purges them eagerly to free capacity.
//
// Concurrency: lookups and inserts are mutex-protected; the build
// itself runs OUTSIDE the lock so solver threads factorizing different
// shifts never serialize.  Two threads racing on one key may both
// build; the first insert wins and both get a usable operator.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>

#include "phes/hamiltonian/shift_invert.hpp"
#include "phes/la/types.hpp"
#include "phes/util/sync.hpp"

namespace phes::engine {

/// Counter snapshot; deltas around a solve give per-solve statistics.
struct CacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;  ///< capacity evictions (LRU order)
  std::size_t entries = 0;    ///< current resident factorizations
};

class ShiftFactorizationCache {
 public:
  using OpPtr = std::shared_ptr<const hamiltonian::SmwShiftInvertOp>;
  using Builder = std::function<OpPtr()>;

  explicit ShiftFactorizationCache(std::size_t capacity = 64);

  /// Return the cached operator for (revision, theta), or invoke
  /// `build` and cache its result.  `build` runs without the cache lock
  /// held; exceptions from it propagate (nothing is cached).  The
  /// least-recently-used entry is evicted when the cache is full.
  [[nodiscard]] OpPtr acquire(std::uint64_t revision, la::Complex theta,
                              const Builder& build) PHES_EXCLUDES(mutex_);

  /// Drop every entry with revision < `revision` (residue update:
  /// operators against the old C matrix are invalid).
  void invalidate_before(std::uint64_t revision) PHES_EXCLUDES(mutex_);

  [[nodiscard]] CacheStats stats() const PHES_EXCLUDES(mutex_);

 private:
  struct Key {
    std::uint64_t revision = 0;
    double re = 0.0;
    double im = 0.0;
    auto operator<=>(const Key&) const = default;
  };
  struct Entry {
    OpPtr op;
    std::list<Key>::iterator lru_pos;  ///< position in lru_ (front = MRU)
  };

  mutable util::Mutex mutex_;
  std::size_t capacity_;
  std::list<Key> lru_ PHES_GUARDED_BY(mutex_);  ///< most recent at front
  std::map<Key, Entry> entries_ PHES_GUARDED_BY(mutex_);
  std::size_t hits_ PHES_GUARDED_BY(mutex_) = 0;
  std::size_t misses_ PHES_GUARDED_BY(mutex_) = 0;
  std::size_t evictions_ PHES_GUARDED_BY(mutex_) = 0;
};

}  // namespace phes::engine
