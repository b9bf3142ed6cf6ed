#pragma once
// The one place the library starts threads (lint check 8,
// `threads-confined`, keeps it so).
//
//  - ThreadGroup: a fixed set of long-lived loops, such as the job
//    server's workers, the dispatch workers and the transport's event
//    loop.
//  - parallel_for: a fork-join over an index range, such as the shift
//    scheduler's workers, the static grid, vector fitting's columns
//    and a batch's jobs.

#include <cstddef>
#include <functional>
#include <memory>

namespace phes::util {

/// Threads running body(tid), tid in [0, n).  The destructor joins.
/// An exception escaping a body ends the program, as it would from a
/// raw std::thread: a long-lived loop handles its own errors.
class ThreadGroup {
 public:
  ThreadGroup();
  ~ThreadGroup();

  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;

  /// Starts n threads, each running body(tid).  The group must not be
  /// running (never started, or joined since).
  void start(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Waits for every thread of the group; later calls return at once.
  void join();

 private:
  struct Threads;
  std::unique_ptr<Threads> threads_;
};

/// Runs body(i, tid) once for every i in [0, count).  With
/// min(threads, count) <= 1 it runs on the caller's thread with tid 0.
/// Otherwise that many threads take indices in ascending order from a
/// shared counter, and tid < min(threads, count) names the thread.
/// When a body throws, indices not yet taken are skipped, and the first
/// exception is rethrown after every thread has joined.
void parallel_for(std::size_t threads, std::size_t count,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace phes::util
