#include "phes/util/threads.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "phes/util/check.hpp"

namespace phes::util {

struct ThreadGroup::Threads {
  std::vector<std::thread> list;
};

ThreadGroup::ThreadGroup() = default;

ThreadGroup::~ThreadGroup() { join(); }

void ThreadGroup::start(std::size_t n,
                        const std::function<void(std::size_t)>& body) {
  check(threads_ == nullptr, "ThreadGroup::start: group already running");
  threads_ = std::make_unique<Threads>();
  threads_->list.reserve(n);
  for (std::size_t tid = 0; tid < n; ++tid) {
    threads_->list.emplace_back(body, tid);
  }
}

void ThreadGroup::join() {
  if (threads_ == nullptr) return;
  for (auto& thread : threads_->list) thread.join();
  threads_.reset();
}

void parallel_for(std::size_t threads, std::size_t count,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t n = std::min(threads, count);
  if (n <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i, 0);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  // Written only by the thread that set `failed`, read after the join.
  std::exception_ptr first_error;
  ThreadGroup group;
  group.start(n, [&](std::size_t tid) {
    for (std::size_t i = next.fetch_add(1); i < count;
         i = next.fetch_add(1)) {
      try {
        body(i, tid);
      } catch (...) {
        if (!failed.exchange(true)) first_error = std::current_exception();
        next.store(count);
        return;
      }
    }
  });
  group.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace phes::util
