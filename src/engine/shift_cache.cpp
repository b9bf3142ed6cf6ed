#include "phes/engine/shift_cache.hpp"

#include "phes/util/check.hpp"

namespace phes::engine {

ShiftFactorizationCache::ShiftFactorizationCache(std::size_t capacity)
    : capacity_(capacity) {
  util::check(capacity >= 1,
              "ShiftFactorizationCache: capacity must be >= 1");
}

ShiftFactorizationCache::OpPtr ShiftFactorizationCache::acquire(
    std::uint64_t revision, la::Complex theta, const Builder& build) {
  const Key key{revision, theta.real(), theta.imag()};
  {
    util::MutexLock lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return it->second.op;
    }
    ++misses_;
  }

  // Build unlocked: factorizations of different shifts proceed in
  // parallel.  May throw (singular shift) — nothing is cached then.
  OpPtr op = build();
  util::check(op != nullptr,
              "ShiftFactorizationCache: builder returned null");

  util::MutexLock lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Another thread built the same key while we were; keep the first.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.op;
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{op, lru_.begin()});
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
  return op;
}

void ShiftFactorizationCache::invalidate_before(std::uint64_t revision) {
  util::MutexLock lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.revision < revision) {
      lru_.erase(it->second.lru_pos);
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

CacheStats ShiftFactorizationCache::stats() const {
  util::MutexLock lock(mutex_);
  return CacheStats{hits_, misses_, evictions_, entries_.size()};
}

}  // namespace phes::engine
