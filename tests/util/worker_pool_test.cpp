// WorkerPool determinism contract: results are a pure function of the
// inputs — any pool size, including the inline (<=1) path, produces the
// same output vector — and every index runs exactly once. Chaos-labeled so
// the SANITIZE=thread build vets the synchronization.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "util/worker_pool.h"

namespace nwade::util {
namespace {

TEST(WorkerPool, InlineModeSpawnsNoThreads) {
  WorkerPool pool0(0);
  WorkerPool pool1(1);
  EXPECT_EQ(pool0.thread_count(), 0);
  EXPECT_EQ(pool1.thread_count(), 0);
}

TEST(WorkerPool, EveryIndexRunsExactlyOnce) {
  for (const int threads : {0, 1, 2, 4}) {
    WorkerPool pool(threads);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> runs(kCount);
    pool.for_each(kCount, [&](std::size_t i) {
      runs[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(runs[i].load(), 1) << "index " << i << ", threads " << threads;
    }
  }
}

TEST(WorkerPool, MapMergesInFixedOrderForAnyPoolSize) {
  const auto job = [](std::size_t i) {
    // Unequal per-index cost, so completion order scrambles under threads.
    std::uint64_t acc = i;
    for (std::size_t k = 0; k < (i % 7) * 1000; ++k) acc = acc * 6364136223846793005ULL + 1;
    return acc;
  };
  WorkerPool inline_pool(1);
  const auto expected = inline_pool.map<std::uint64_t>(500, job);
  for (const int threads : {2, 3, 4, 8}) {
    WorkerPool pool(threads);
    EXPECT_EQ(pool.map<std::uint64_t>(500, job), expected)
        << "pool size " << threads << " diverged from inline";
  }
}

TEST(WorkerPool, ReusableAcrossManyJobs) {
  WorkerPool pool(4);
  for (int round = 0; round < 50; ++round) {
    const auto out = pool.map<std::uint64_t>(
        64, [round](std::size_t i) { return static_cast<std::uint64_t>(round) * 64 + i; });
    std::uint64_t sum = std::accumulate(out.begin(), out.end(), std::uint64_t{0});
    const std::uint64_t n = 64;
    const std::uint64_t base = static_cast<std::uint64_t>(round) * 64;
    EXPECT_EQ(sum, n * base + n * (n - 1) / 2);
  }
}

TEST(WorkerPool, EmptyJobReturnsImmediately) {
  WorkerPool pool(4);
  bool ran = false;
  pool.for_each(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace nwade::util
