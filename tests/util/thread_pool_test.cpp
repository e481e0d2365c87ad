#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <vector>

namespace prop {
namespace {

TEST(ThreadPool, RunsSubmittedTasksAndReturnsValues) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPool, SizeIsClampedToAtLeastOne) {
  EXPECT_EQ(ThreadPool(0).size(), 1);
  EXPECT_EQ(ThreadPool(-3).size(), 1);
  EXPECT_EQ(ThreadPool(2).size(), 2);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPool, ExceptionsArriveThroughTheFuture) {
  ThreadPool pool(2);
  auto bad = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  auto good = pool.submit([] { return 7; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // A throwing task must not take the worker down with it.
  EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPool, VoidTasksAreSupported) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  auto f = pool.submit([&ran] { ran.store(true); });
  f.get();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ManyMoreTasksThanWorkers) {
  ThreadPool pool(3);
  std::atomic<long long> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 500; ++i) {
    futures.push_back(pool.submit(
        [&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 500LL * 501 / 2);
}

}  // namespace
}  // namespace prop
