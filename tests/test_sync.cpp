// Runtime contracts of the annotated sync layer (phes/util/sync.hpp)
// and of the thread helper (phes/util/threads.hpp).  The
// negative-compile harness (test_sync_negative) proves the
// *compile-time* contracts; this suite
// proves the runtime ones, and is part of the TSAN CI target so every
// wait/notify path here is also exercised under the race detector.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "phes/util/sync.hpp"
#include "phes/util/threads.hpp"

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

// A fork-join failure surfaces once, and only after the whole group
// is quiet: two indices throw, every other body sleeps briefly so
// threads are still inside bodies when the first throw happens.
TEST(ParallelForTest, RethrowsOneExceptionAfterEveryThreadJoined) {
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  int caught = 0;
  try {
    util::parallel_for(4, 64, [&](std::size_t i, std::size_t) {
      started.fetch_add(1);
      if (i == 5 || i == 6) {
        finished.fetch_add(1);
        throw std::runtime_error("index " + std::to_string(i));
      }
      std::this_thread::sleep_for(2ms);
      finished.fetch_add(1);
    });
  } catch (const std::runtime_error& e) {
    ++caught;
    // Every body that started has returned or thrown: no thread is
    // still running when the exception reaches the caller.
    EXPECT_EQ(started.load(), finished.load());
    const std::string what = e.what();
    EXPECT_TRUE(what == "index 5" || what == "index 6") << what;
  }
  EXPECT_EQ(caught, 1);

  // Inline, the first throw ends the loop: later indices never run.
  started = 0;
  EXPECT_THROW(util::parallel_for(1, 64,
                                  [&](std::size_t i, std::size_t) {
                                    started.fetch_add(1);
                                    if (i == 2) throw std::runtime_error("2");
                                  }),
               std::runtime_error);
  EXPECT_EQ(started.load(), 3);
}

TEST(ThreadGroupTest, JoinIsIdempotentAndTidsAreDistinct) {
  util::ThreadGroup group;
  std::array<std::atomic<int>, 3> seen{};
  Gate go;
  group.start(seen.size(), [&](std::size_t tid) {
    go.wait_open();
    seen[tid].fetch_add(1);
  });
  go.open();
  group.join();
  for (const auto& count : seen) EXPECT_EQ(count.load(), 1);
  group.join();  // nothing left to join: returns at once
  group.start(1, [&](std::size_t tid) { seen[tid].fetch_add(1); });
  group.join();
  EXPECT_EQ(seen[0].load(), 2);
}

TEST(ThreadGroupTest, DestructorJoins) {
  std::atomic<int> done{0};
  {
    util::ThreadGroup group;
    group.start(3, [&](std::size_t) {
      std::this_thread::sleep_for(10ms);
      done.fetch_add(1);
    });
  }
  EXPECT_EQ(done.load(), 3);
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
