#pragma once
// phes::util::sync — the annotated synchronization layer.
//
// Every mutex in this repository lives behind the wrappers in this
// file, so Clang's Thread Safety Analysis (-Wthread-safety) can prove
// lock discipline at compile time: each guarded field names its mutex
// with PHES_GUARDED_BY, each must-hold helper carries PHES_REQUIRES,
// and an unguarded access (or a lock left held on an exit path) is a
// build break, not a TSAN-someday finding.  The raw std primitives are
// off limits outside this header — tools/lint_invariants.py enforces
// that rule repo-wide.
//
// Off Clang the macros expand to nothing and the wrappers are
// zero-overhead shims over std::mutex / std::condition_variable, so GCC
// builds are unchanged.
//
// Usage map (see README "Static analysis" for the full cheatsheet):
//   util::Mutex mu;                       // a capability
//   int x PHES_GUARDED_BY(mu);            // field readable only under mu
//   util::MutexLock lock(mu);             // scoped acquire/release
//   void helper() PHES_REQUIRES(mu);      // caller must hold mu
//   void api() PHES_EXCLUDES(mu);         // caller must NOT hold mu
//   util::CondVar cv; cv.wait(mu);        // wait with mu held
//
// Condition-variable predicates: prefer the explicit loop
//   while (!ready_) cv_.wait(mutex_);
// inside a function that holds the lock.  The predicate-taking
// overloads run the predicate with the lock held, but a *lambda*
// predicate is analyzed as its own function — start it with
// `mu.assert_held();` if it touches guarded fields, or the analysis
// (rightly) cannot see that the capability is held.

#include <chrono>
#include <condition_variable>
#include <mutex>

// ---- Clang Thread Safety Analysis attribute macros --------------------
//
// Names follow the canonical mutex.h from the Clang documentation; the
// PHES_ prefix keeps them greppable and collision-free.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define PHES_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef PHES_THREAD_ANNOTATION
#define PHES_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

/// Declares a class to be a capability (lockable) type.
#define PHES_CAPABILITY(x) PHES_THREAD_ANNOTATION(capability(x))
/// Declares an RAII class whose lifetime acquires/releases a capability.
#define PHES_SCOPED_CAPABILITY PHES_THREAD_ANNOTATION(scoped_lockable)
/// Field readable/writable only while holding the named capability.
#define PHES_GUARDED_BY(x) PHES_THREAD_ANNOTATION(guarded_by(x))
/// Pointer field whose *pointee* is guarded by the named capability.
#define PHES_PT_GUARDED_BY(x) PHES_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function acquires the capability (exclusive) and holds it on return.
#define PHES_ACQUIRE(...) \
  PHES_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the (exclusively held) capability.
#define PHES_RELEASE(...) \
  PHES_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function releases the capability whichever mode it was acquired in
/// (scoped-guard destructors).
#define PHES_RELEASE_GENERIC(...) \
  PHES_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
/// Caller must hold the capability exclusively; callee does not change it.
#define PHES_REQUIRES(...) \
  PHES_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (deadlock prevention).
#define PHES_EXCLUDES(...) PHES_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Runtime assertion that the capability is held (escape hatch for
/// lambdas and callbacks the analysis cannot follow).
#define PHES_ASSERT_CAPABILITY(x) \
  PHES_THREAD_ANNOTATION(assert_capability(x))
/// Function returns a reference to the named capability.
#define PHES_RETURN_CAPABILITY(x) PHES_THREAD_ANNOTATION(lock_returned(x))
/// Opt a function out of the analysis entirely.  Use sparingly and
/// leave a comment saying why the contract cannot be expressed.
#define PHES_NO_THREAD_SAFETY_ANALYSIS \
  PHES_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace phes::util {

class CondVar;

/// Annotated exclusive mutex.  Identical layout and cost to the
/// std::mutex it wraps; the annotations are compile-time only.
class PHES_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PHES_ACQUIRE() { m_.lock(); }
  void unlock() PHES_RELEASE() { m_.unlock(); }

  /// No-op whose annotation tells the analysis "the caller holds this
  /// mutex here" — for lambda predicates and callbacks invoked under a
  /// lock the analysis cannot see across.
  void assert_held() const PHES_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex m_;
};

/// Scoped exclusive lock over Mutex — the std::lock_guard of this
/// layer.  No unlock-before-destruction: restructure with a nested
/// scope instead (notify-after-unlock patterns become
/// `{ MutexLock lock(mu); ... } cv.notify_one();`).
class PHES_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PHES_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() PHES_RELEASE_GENERIC() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to util::Mutex.  Every wait names the mutex
/// it requires, so "waited without the lock" is a compile error under
/// the analysis instead of undefined behaviour at runtime.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically release `mu`, block, reacquire before returning.
  /// Spurious wakeups happen — always wait in a predicate loop.
  void wait(Mutex& mu) PHES_REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait, then release()
    // the adapter so scope exit does not double-unlock.
    std::unique_lock<std::mutex> native(mu.m_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  /// `while (!pred()) wait(mu);` — pred runs with `mu` held.  A lambda
  /// predicate touching PHES_GUARDED_BY fields should open with
  /// `mu.assert_held();` (the analysis treats a lambda as a separate
  /// function and cannot otherwise see the held capability).
  template <typename Predicate>
  void wait(Mutex& mu, Predicate pred) PHES_REQUIRES(mu) {
    while (!pred()) wait(mu);
  }

  /// Timed wait; std::cv_status::timeout after `rel_time`.
  template <typename Rep, typename Period>
  std::cv_status wait_for(Mutex& mu,
                          const std::chrono::duration<Rep, Period>& rel_time)
      PHES_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.m_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(native, rel_time);
    native.release();
    return status;
  }

  /// Timed predicate wait: returns pred()'s value at exit (false means
  /// the deadline passed with the predicate still false) — the
  /// std::condition_variable::wait_for(pred) contract.
  template <typename Rep, typename Period, typename Predicate>
  bool wait_for(Mutex& mu, const std::chrono::duration<Rep, Period>& rel_time,
                Predicate pred) PHES_REQUIRES(mu) {
    const auto deadline = std::chrono::steady_clock::now() + rel_time;
    while (!pred()) {
      std::unique_lock<std::mutex> native(mu.m_, std::adopt_lock);
      const std::cv_status status = cv_.wait_until(native, deadline);
      native.release();
      if (status == std::cv_status::timeout) return pred();
    }
    return true;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace phes::util
