// Tests for the utility substrate: RNG streams, statistics,
// parallel_for, table printer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "phes/util/rng.hpp"
#include "phes/util/stats.hpp"
#include "phes/util/table.hpp"
#include "phes/util/threads.hpp"

namespace phes {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StreamsAreIndependent) {
  util::Rng a(123, 0), b(123, 1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInRange) {
  util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, NormalMomentsApproximate) {
  util::Rng rng(11);
  util::RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(Stats, KnownValues) {
  util::RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(Stats, SingleSampleHasZeroVariance) {
  util::RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(Stats, SummarizeSpan) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const auto s = util::summarize(xs);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(ParallelFor, VisitsEachIndexOnceWithTidsBelowThreadCount) {
  for (std::size_t threads : {0, 1, 2, 4, 8}) {
    for (std::size_t count : {0, 1, 3, 100}) {
      const std::size_t used = std::max<std::size_t>(
          1, std::min(threads, count));
      std::vector<std::atomic<int>> visits(count);
      std::atomic<std::size_t> bad_tids{0};
      util::parallel_for(threads, count,
                         [&](std::size_t i, std::size_t tid) {
                           visits[i].fetch_add(1);
                           if (tid >= used) bad_tids.fetch_add(1);
                         });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(visits[i].load(), 1)
            << "threads " << threads << ", count " << count << ", i " << i;
      }
      EXPECT_EQ(bad_tids.load(), 0u)
          << "threads " << threads << ", count " << count;
    }
  }
}

TEST(ParallelFor, OneThreadOrOneIndexRunsOnTheCallersThread) {
  const auto caller = std::this_thread::get_id();
  for (const auto& [threads, count] :
       {std::pair<std::size_t, std::size_t>{0, 5}, {1, 5}, {8, 1}}) {
    std::size_t on_caller = 0;  // plain: the body must run inline
    util::parallel_for(threads, count, [&](std::size_t, std::size_t tid) {
      EXPECT_EQ(tid, 0u);
      if (std::this_thread::get_id() == caller) ++on_caller;
    });
    EXPECT_EQ(on_caller, count) << "threads " << threads;
  }
}

TEST(Table, FormatsAlignedColumns) {
  util::Table t({"Case", "n", "time"});
  t.add_row({"Case 1", "1000", "13.763"});
  t.add_row({"Case 10", "4150", "64.396"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Case 10"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ArityMismatchThrows) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(util::format_double(1.23456, 3), "1.235");
  EXPECT_EQ(util::format_double(2.0, 1), "2.0");
}

}  // namespace
}  // namespace phes
