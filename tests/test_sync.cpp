// Runtime contracts of the annotated sync layer (phes/util/sync.hpp)
// and the ThreadPool built on it.  The negative-compile harness
// (test_sync_negative) proves the *compile-time* contracts; this suite
// proves the runtime ones, and is part of the TSAN CI target so every
// wait/notify path here is also exercised under the race detector.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "phes/util/sync.hpp"
#include "phes/util/thread_pool.hpp"

namespace phes {
namespace {

using namespace std::chrono_literals;

// One-shot open/wait latch in the sync layer's own vocabulary.
class Gate {
 public:
  void open() PHES_EXCLUDES(mu_) {
    {
      util::MutexLock lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  void wait_open() PHES_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    while (!open_) cv_.wait(mu_);
  }

 private:
  util::Mutex mu_;
  util::CondVar cv_;
  bool open_ PHES_GUARDED_BY(mu_) = false;
};

// The documented shutdown contract: the destructor drains tasks that
// are still queued when it runs — it must never drop them.  A single
// worker is pinned inside a blocker while fifty tasks pile up behind
// it; the pool is then destroyed with the blocker still blocked, so
// the destructor provably begins with a non-empty queue.
TEST(ThreadPoolTest, DestructorDrainsTasksStillQueuedAtShutdown) {
  constexpr int kQueued = 50;
  std::atomic<int> ran{0};
  Gate release_blocker;
  Gate destroying;

  // Unblocks the worker only once this thread has reached the pool's
  // destructor, so shutdown begins with all kQueued tasks still queued.
  std::thread releaser([&] {
    destroying.wait_open();
    release_blocker.open();
  });

  {
    util::ThreadPool pool(1);
    pool.submit([&] {
      release_blocker.wait_open();
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    for (int i = 0; i < kQueued; ++i) {
      pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    destroying.open();
    // Destructor runs here: stopping_ is set while kQueued tasks wait
    // behind the blocker.
  }

  releaser.join();
  EXPECT_EQ(ran.load(), kQueued + 1);
}

// Tasks submitted *by running tasks* after shutdown has begun are part
// of the same drain guarantee (the scheduler's split rule relies on
// this).
TEST(ThreadPoolTest, DestructorDrainsTasksSubmittedByDrainingTasks) {
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.submit([&ran, &pool] {
        pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(ran.load(), 16);
}

// wait_idle() means full quiescence: queue empty AND nothing in
// flight, including work enqueued by the tasks themselves.
TEST(ThreadPoolTest, WaitIdleCoversTasksSubmittedByTasks) {
  util::ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.submit([&ran, &pool] {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 32);

  // The pool is still usable after an idle point.
  pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 33);
}

// Predicate wait must sit through notifies that arrive while the
// predicate is still false (and through spurious wakeups, which look
// identical from inside wait()).
TEST(CondVarTest, PredicateWaitIgnoresNotifiesWhilePredicateFalse) {
  struct State {
    util::Mutex mu;
    util::CondVar cv;
    bool ready PHES_GUARDED_BY(mu) = false;
  } st;
  std::atomic<bool> woke{false};

  std::thread waiter([&] {
    util::MutexLock lock(st.mu);
    st.cv.wait(st.mu, [&st] {
      st.mu.assert_held();
      return st.ready;
    });
    EXPECT_TRUE(st.ready);
    woke.store(true, std::memory_order_release);
  });

  // A notify storm with the predicate still false: a waiter that
  // trusts wakeups instead of the predicate sets `woke` here and
  // fails the check below.
  for (int i = 0; i < 20; ++i) {
    st.cv.notify_all();
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(woke.load(std::memory_order_acquire));

  {
    util::MutexLock lock(st.mu);
    st.ready = true;
  }
  st.cv.notify_one();
  waiter.join();
  EXPECT_TRUE(woke.load(std::memory_order_acquire));
}

// wait_for(mu, dur, pred) returns pred()'s value at exit: false means
// the deadline passed with the predicate still false — and the
// deadline is honoured (no early return).
TEST(CondVarTest, TimedPredicateWaitReturnsFalseAtDeadline) {
  util::Mutex mu;
  util::CondVar cv;

  const auto start = std::chrono::steady_clock::now();
  bool satisfied;
  {
    util::MutexLock lock(mu);
    satisfied = cv.wait_for(mu, 30ms, [] { return false; });
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_FALSE(satisfied);
  EXPECT_GE(elapsed, 30ms);
}

TEST(CondVarTest, TimedPredicateWaitReturnsTrueWhenPredicateFlips) {
  struct State {
    util::Mutex mu;
    util::CondVar cv;
    bool ready PHES_GUARDED_BY(mu) = false;
  } st;

  std::thread setter([&] {
    {
      util::MutexLock lock(st.mu);
      st.ready = true;
    }
    st.cv.notify_one();
  });

  bool satisfied;
  {
    util::MutexLock lock(st.mu);
    // Generous deadline: the test asserts the *result*, not timing.
    satisfied = st.cv.wait_for(st.mu, 10s, [&st] {
      st.mu.assert_held();
      return st.ready;
    });
  }
  setter.join();
  EXPECT_TRUE(satisfied);
}

// The non-predicate timed overload reports timeout via std::cv_status.
TEST(CondVarTest, TimedWaitReportsTimeout) {
  util::Mutex mu;
  util::CondVar cv;
  util::MutexLock lock(mu);
  EXPECT_EQ(cv.wait_for(mu, 5ms), std::cv_status::timeout);
}

}  // namespace
}  // namespace phes
