// Unit tests for the deterministic parallel execution helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/parallel.hpp"

namespace dnsctx::util {
namespace {

TEST(Parallel, ResolveThreadCount) {
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(7), 7u);
  EXPECT_GE(resolve_thread_count(0), 1u);  // hardware concurrency, at least one
}

TEST(Parallel, ChunkCountIsThreadIndependent) {
  EXPECT_EQ(chunk_count(0, 100), 0u);
  EXPECT_EQ(chunk_count(1, 100), 1u);
  EXPECT_EQ(chunk_count(100, 100), 1u);
  EXPECT_EQ(chunk_count(101, 100), 2u);
  EXPECT_EQ(chunk_count(250, 100), 3u);
}

TEST(Parallel, ForEachCoversEveryIndexOnce) {
  for (const unsigned threads : {1u, 2u, 5u}) {
    std::vector<std::atomic<int>> hits(1'000);
    parallel_for_each(threads, hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(Parallel, ForChunksPartitionIsExact) {
  for (const unsigned threads : {1u, 3u, 8u}) {
    std::vector<std::atomic<int>> hits(10'000);
    parallel_for_chunks(threads, hits.size(), 256, [&](std::size_t begin, std::size_t end) {
      EXPECT_LE(end - begin, 256u);
      for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(Parallel, MapReduceMatchesSerialForAnyThreadCount) {
  std::vector<std::uint64_t> xs(100'000);
  std::iota(xs.begin(), xs.end(), 1);
  const std::uint64_t expected = std::accumulate(xs.begin(), xs.end(), std::uint64_t{0});

  for (const unsigned threads : {1u, 2u, 4u, 16u}) {
    const std::uint64_t sum = parallel_map_reduce<std::uint64_t>(
        threads, xs.size(), 1'024,
        [&](std::size_t begin, std::size_t end) {
          std::uint64_t part = 0;
          for (std::size_t i = begin; i < end; ++i) part += xs[i];
          return part;
        },
        [](std::uint64_t& into, std::uint64_t&& part) { into += part; });
    EXPECT_EQ(sum, expected);
  }
}

TEST(Parallel, MapReduceReducesInChunkOrder) {
  // Record the chunk-begin order seen by the reducer: it must be
  // ascending regardless of which thread finished first.
  for (const unsigned threads : {1u, 4u}) {
    const auto order = parallel_map_reduce<std::vector<std::size_t>>(
        threads, 5'000, 100,
        [](std::size_t begin, std::size_t) { return std::vector<std::size_t>{begin}; },
        [](std::vector<std::size_t>& into, std::vector<std::size_t>&& part) {
          into.insert(into.end(), part.begin(), part.end());
        });
    ASSERT_EQ(order.size(), 50u);
    for (std::size_t i = 0; i + 1 < order.size(); ++i) EXPECT_LT(order[i], order[i + 1]);
  }
}

TEST(Parallel, ExceptionsPropagateFromWorkers) {
  EXPECT_THROW(parallel_for_each(4, 1'000,
                                 [](std::size_t i) {
                                   if (i == 613) throw std::runtime_error{"boom"};
                                 }),
               std::runtime_error);
}

/// Threads alive in this process right now.
std::size_t live_threads() {
  using Dir = std::filesystem::directory_iterator;
  return static_cast<std::size_t>(std::distance(Dir{"/proc/self/task"}, Dir{}));
}

TEST(Parallel, NeverStartsMoreThreadsThanTasks) {
  // Two tasks need one worker beside the caller, however many threads
  // were asked for.
  const std::size_t baseline = live_threads();
  std::atomic<std::size_t> most{0};
  const auto count = [&] {
    const std::size_t now = live_threads();
    for (std::size_t seen = most.load(); now > seen && !most.compare_exchange_weak(seen, now);) {
    }
  };
  parallel_for_each(64, 2, [&](std::size_t) { count(); });
  parallel_for_chunks(64, 2'000, 1'000, [&](std::size_t, std::size_t) { count(); });
  EXPECT_LE(most.load(), baseline + 1);
}

TEST(Parallel, PoolIsReusableAcrossDispatches) {
  ThreadPool pool{4};
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.dispatch(37, [&](std::size_t) { ++sum; });
    EXPECT_EQ(sum.load(), 37);
  }
}

TEST(Parallel, ZeroItemsIsANoOp) {
  parallel_for_each(8, 0, [](std::size_t) { FAIL() << "no work expected"; });
  const int acc = parallel_map_reduce<int>(
      8, 0, 16, [](std::size_t, std::size_t) { return 1; },
      [](int& into, int&& part) { into += part; });
  EXPECT_EQ(acc, 0);
}

}  // namespace
}  // namespace dnsctx::util
