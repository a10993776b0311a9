// Unit tests for iotls::exec — the work-stealing pool behind `--jobs`.
//
// The contract under test is narrow but load-bearing: fn(i) runs exactly
// once per index, for every pool size and every n (including the n <= 1
// and jobs > n degenerate cases), pools are reusable across jobs, and a
// throwing shard surfaces the lowest-indexed shard's exception after the
// loop drains — the same exception the sequential loop would have thrown
// first.
#include "exec/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace iotls::exec {
namespace {

TEST(ResolveJobs, ZeroMeansHardwareAndPositivePassesThrough) {
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(8), 8);
  // Negative requests degrade to "ask the hardware" rather than UB.
  EXPECT_GE(resolve_jobs(-3), 1);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (int jobs : {1, 2, 4, 8}) {
    ThreadPool pool(jobs);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "jobs=" << jobs << " index=" << i;
    }
  }
}

TEST(ThreadPool, HandlesEmptyAndSingleItemLoops) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n == 1 runs inline on the caller; observable via plain (non-atomic)
  // state staying race-free.
  std::size_t seen = 99;
  pool.parallel_for(1, [&](std::size_t i) { seen = i; });
  EXPECT_EQ(seen, 0u);
}

TEST(ThreadPool, MoreWorkersThanItems) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, IsReusableAcrossJobs) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(64, [&](std::size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
  }
  // 50 rounds of 1+2+...+64.
  EXPECT_EQ(sum.load(), 50u * (64u * 65u / 2u));
}

TEST(ThreadPool, RethrowsLowestIndexedShardError) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  auto work = [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    if (i == 7 || i == 93) {
      throw std::runtime_error("shard " + std::to_string(i));
    }
  };
  try {
    pool.parallel_for(100, work);
    FAIL() << "expected the shard exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 7");
  }
  // Remaining shards still ran before the rethrow (drain-then-throw).
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // And the pool survives for the next job.
  std::atomic<int> ok{0};
  pool.parallel_for(10, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(FreeParallelFor, SequentialWhenJobsIsOne) {
  // jobs=1 must run inline in index order — write order proves it.
  std::vector<std::size_t> order;
  parallel_for(1, 10, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> want(10);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(order, want);
}

TEST(FreeParallelFor, CoversAllIndicesWhenParallel) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(8, hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

/// Threads of this process right now.
std::size_t thread_count() {
  std::size_t n = 0;
  for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

TEST(FreeParallelFor, StartsNoMoreWorkersThanShards) {
  // 64 jobs over 2 shards: the caller runs one shard, so one worker is all
  // the loop can use. A pool's workers exist from its construction until
  // the loop returns, so every thread it started is visible from a shard.
  const std::size_t before = thread_count();
  std::atomic<std::size_t> most{0};
  parallel_for(64, 2, [&](std::size_t) {
    std::size_t now = thread_count();
    std::size_t seen = most.load();
    while (now > seen && !most.compare_exchange_weak(seen, now)) {
    }
  });
  EXPECT_LE(most.load(), before + 1);
}

}  // namespace
}  // namespace iotls::exec
