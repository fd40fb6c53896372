// Tests for the worker pool behind the engine's parallel expansion mode:
// shard coverage/disjointness (the determinism foundation), completion
// visibility, reuse across many calls, the inline single-thread pool,
// every-shard invocation and the rendezvous.
#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace sdj::util {
namespace {

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(hits.size(), [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ZeroAndTinyRangesAreSafe) {
  // n == 0 hands every shard an empty range; n == 1 gives the one index to
  // exactly one shard.
  ThreadPool pool(4);
  std::atomic<int> nonempty{0};
  pool.ParallelFor(0, [&](size_t, size_t begin, size_t end) {
    EXPECT_EQ(begin, end);
  });
  pool.ParallelFor(1, [&](size_t, size_t begin, size_t end) {
    if (begin == end) return;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1u);
    nonempty.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(nonempty.load(), 1);
}

TEST(ThreadPool, ShardsCoverEveryIndexExactlyOnce) {
  // Every index written exactly once regardless of n/threads divisibility —
  // the property the slot-indexed merge in the join engine relies on.
  for (const int threads : {2, 3, 4, 7}) {
    ThreadPool pool(threads);
    for (const size_t n : {2u, 7u, 128u, 1001u}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      pool.ParallelFor(n, [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n
                                     << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, WritesAreVisibleAfterReturn) {
  // The completion handshake must give the caller a happens-before edge
  // over all shard writes: plain (non-atomic) slot writes are fully visible.
  ThreadPool pool(4);
  constexpr size_t kN = 4096;
  std::vector<uint64_t> out(kN, 0);
  for (int round = 1; round <= 50; ++round) {
    pool.ParallelFor(kN, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        out[i] = static_cast<uint64_t>(i) * round;
      }
    });
    uint64_t sum = 0;
    for (size_t i = 0; i < kN; ++i) sum += out[i];
    ASSERT_EQ(sum, static_cast<uint64_t>(round) * (kN * (kN - 1) / 2))
        << round;
  }
}

TEST(ThreadPool, StaticShardingIsAFixedFunctionOfNAndThreads) {
  // Record which shard range covered each index; re-running must reproduce
  // the identical assignment (no work stealing, no timing dependence).
  ThreadPool pool(3);
  constexpr size_t kN = 997;
  std::vector<size_t> first(kN, 0);
  std::vector<size_t> second(kN, 0);
  for (auto* target : {&first, &second}) {
    pool.ParallelFor(kN, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) (*target)[i] = begin;
    });
  }
  EXPECT_EQ(first, second);
}

TEST(ThreadPool, ShardFormInvokesEveryShardExactlyOnce) {
  // Empty shards are invoked too: a shard that skipped the call would leave
  // every other shard waiting at Rendezvous forever.
  for (const int threads : {1, 2, 3, 4, 7}) {
    ThreadPool pool(threads);
    for (const size_t n : {0u, 1u, 2u, 7u, 1001u}) {
      std::vector<std::atomic<int>> calls(threads);
      std::vector<std::atomic<int>> hits(n);
      for (auto& c : calls) c.store(0);
      for (auto& h : hits) h.store(0);
      pool.ParallelFor(n, [&](size_t shard, size_t begin, size_t end) {
        ASSERT_LT(shard, static_cast<size_t>(threads));
        EXPECT_EQ(begin, n * shard / threads);
        EXPECT_EQ(end, n * (shard + 1) / threads);
        calls[shard].fetch_add(1, std::memory_order_relaxed);
        for (size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (int t = 0; t < threads; ++t) {
        ASSERT_EQ(calls[t].load(), 1) << "threads=" << threads << " n=" << n
                                      << " shard=" << t;
      }
      for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
    }
  }
}

TEST(ThreadPool, RendezvousPublishesEachShardsCountToTheOthers) {
  // The engine's pattern: each shard counts, all meet, each reads the
  // counts of the shards before it. Plain writes before the rendezvous
  // must be visible after it, in every round and across repeated
  // rendezvous in one call — also with more threads than cores.
  const int oversubscribed =
      2 * static_cast<int>(std::max(1u, std::thread::hardware_concurrency())) +
      1;
  for (const int threads : {1, 2, 3, 4, 7, oversubscribed}) {
    ThreadPool pool(threads);
    std::vector<size_t> counts(threads);
    std::vector<size_t> prefix(threads);
    std::vector<size_t> total(threads);
    for (size_t round = 0; round < 100; ++round) {
      pool.ParallelFor(round, [&](size_t shard, size_t begin, size_t end) {
        counts[shard] = (end - begin) + shard * round % 5;
        pool.Rendezvous();
        size_t before = 0;
        for (size_t s = 0; s < shard; ++s) before += counts[s];
        prefix[shard] = before;
        pool.Rendezvous();
        total[shard] = prefix[threads - 1] + counts[threads - 1];
      });
      size_t expected = 0;
      for (int t = 0; t < threads; ++t) {
        ASSERT_EQ(prefix[t], expected) << "threads=" << threads
                                       << " round=" << round;
        expected += counts[t];
      }
      for (int t = 0; t < threads; ++t) ASSERT_EQ(total[t], expected);
    }
  }
}

}  // namespace
}  // namespace sdj::util
