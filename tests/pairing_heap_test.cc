#include "util/pairing_heap.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace sdj {
namespace {

TEST(PairingHeap, EmptyOnConstruction) {
  PairingHeap<int> heap;
  EXPECT_TRUE(heap.Empty());
  EXPECT_EQ(heap.Size(), 0u);
}

TEST(PairingHeap, PushPopSingle) {
  PairingHeap<int> heap;
  heap.Push(42);
  EXPECT_FALSE(heap.Empty());
  EXPECT_EQ(heap.Size(), 1u);
  EXPECT_EQ(heap.Top(), 42);
  EXPECT_EQ(heap.Pop(), 42);
  EXPECT_TRUE(heap.Empty());
}

TEST(PairingHeap, PopsInSortedOrder) {
  PairingHeap<int> heap;
  const std::vector<int> values = {5, 3, 8, 1, 9, 2, 7, 4, 6, 0};
  for (int v : values) heap.Push(v);
  for (int expected = 0; expected < 10; ++expected) {
    EXPECT_EQ(heap.Top(), expected);
    EXPECT_EQ(heap.Pop(), expected);
  }
  EXPECT_TRUE(heap.Empty());
}

TEST(PairingHeap, HandlesDuplicates) {
  PairingHeap<int> heap;
  for (int i = 0; i < 5; ++i) heap.Push(7);
  heap.Push(3);
  EXPECT_EQ(heap.Pop(), 3);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(heap.Pop(), 7);
}

TEST(PairingHeap, CustomComparatorMaxHeap) {
  PairingHeap<int, std::greater<int>> heap;
  for (int v : {2, 9, 4, 1}) heap.Push(v);
  EXPECT_EQ(heap.Pop(), 9);
  EXPECT_EQ(heap.Pop(), 4);
  EXPECT_EQ(heap.Pop(), 2);
  EXPECT_EQ(heap.Pop(), 1);
}

TEST(PairingHeap, EraseRoot) {
  PairingHeap<int> heap;
  auto h1 = heap.Push(1);
  heap.Push(2);
  heap.Push(3);
  EXPECT_EQ(heap.Erase(h1), 1);
  EXPECT_EQ(heap.Size(), 2u);
  EXPECT_EQ(heap.Pop(), 2);
  EXPECT_EQ(heap.Pop(), 3);
}

TEST(PairingHeap, EraseInterior) {
  PairingHeap<int> heap;
  heap.Push(1);
  auto h5 = heap.Push(5);
  heap.Push(3);
  heap.Push(7);
  EXPECT_EQ(heap.Erase(h5), 5);
  EXPECT_EQ(heap.Pop(), 1);
  EXPECT_EQ(heap.Pop(), 3);
  EXPECT_EQ(heap.Pop(), 7);
  EXPECT_TRUE(heap.Empty());
}

TEST(PairingHeap, EraseAllElementsIndividually) {
  PairingHeap<int> heap;
  std::vector<PairingHeap<int>::Handle> handles;
  for (int i = 0; i < 20; ++i) handles.push_back(heap.Push(i));
  // Erase in an arbitrary order.
  for (int i : {13, 0, 19, 7, 4, 1, 18, 2, 3, 5, 6, 8, 9, 10, 11, 12, 14, 15,
                16, 17}) {
    EXPECT_EQ(heap.Erase(handles[i]), i);
  }
  EXPECT_TRUE(heap.Empty());
}

TEST(PairingHeap, DecreaseKeyMovesElementUp) {
  PairingHeap<int> heap;
  heap.Push(10);
  auto h = heap.Push(20);
  heap.Push(30);
  heap.DecreaseKey(h, 5);
  EXPECT_EQ(heap.Pop(), 5);
  EXPECT_EQ(heap.Pop(), 10);
  EXPECT_EQ(heap.Pop(), 30);
}

TEST(PairingHeap, DecreaseKeyOnRoot) {
  PairingHeap<int> heap;
  auto h = heap.Push(10);
  heap.Push(20);
  heap.DecreaseKey(h, 1);
  EXPECT_EQ(heap.Pop(), 1);
  EXPECT_EQ(heap.Pop(), 20);
}

TEST(PairingHeap, ClearReleasesAll) {
  PairingHeap<int> heap;
  for (int i = 0; i < 100; ++i) heap.Push(i);
  heap.Clear();
  EXPECT_TRUE(heap.Empty());
  EXPECT_EQ(heap.Size(), 0u);
  heap.Push(1);
  EXPECT_EQ(heap.Pop(), 1);
}

TEST(PairingHeap, MoveConstructionTransfersOwnership) {
  PairingHeap<int> a;
  a.Push(3);
  a.Push(1);
  PairingHeap<int> b(std::move(a));
  EXPECT_EQ(b.Size(), 2u);
  EXPECT_EQ(b.Pop(), 1);
  EXPECT_EQ(b.Pop(), 3);
}

TEST(PairingHeap, MoveAssignmentReplacesContents) {
  PairingHeap<int> a;
  a.Push(5);
  PairingHeap<int> b;
  b.Push(9);
  b.Push(8);
  b = std::move(a);
  EXPECT_EQ(b.Size(), 1u);
  EXPECT_EQ(b.Pop(), 5);
}

TEST(PairingHeap, RandomizedAgainstStdPriorityQueue) {
  Rng rng(12345);
  PairingHeap<uint64_t> heap;
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>> ref;
  for (int round = 0; round < 20000; ++round) {
    const bool push = ref.empty() || rng.NextDouble() < 0.6;
    if (push) {
      const uint64_t v = rng.NextBounded(1000000);
      heap.Push(v);
      ref.push(v);
    } else {
      ASSERT_EQ(heap.Top(), ref.top());
      ASSERT_EQ(heap.Pop(), ref.top());
      ref.pop();
    }
    ASSERT_EQ(heap.Size(), ref.size());
  }
  while (!ref.empty()) {
    ASSERT_EQ(heap.Pop(), ref.top());
    ref.pop();
  }
  EXPECT_TRUE(heap.Empty());
}

TEST(PairingHeap, RandomizedEraseMaintainsHeapProperty) {
  Rng rng(999);
  PairingHeap<uint64_t> heap;
  std::multiset<uint64_t> ref;
  std::vector<std::pair<PairingHeap<uint64_t>::Handle, uint64_t>> live;
  for (int round = 0; round < 5000; ++round) {
    const double action = rng.NextDouble();
    if (action < 0.5 || live.empty()) {
      // Unique values so that handle bookkeeping below is unambiguous.
      const uint64_t v =
          rng.NextBounded(100000) * 8192 + static_cast<uint64_t>(round);
      live.emplace_back(heap.Push(v), v);
      ref.insert(v);
    } else if (action < 0.75) {
      // Erase a random live element.
      const size_t i = rng.NextBounded(live.size());
      const uint64_t v = heap.Erase(live[i].first);
      ASSERT_EQ(v, live[i].second);
      ref.erase(ref.find(v));
      live[i] = live.back();
      live.pop_back();
    } else {
      // Pop the minimum; remove the matching handle from `live`.
      const uint64_t v = heap.Pop();
      ASSERT_EQ(v, *ref.begin());
      ref.erase(ref.begin());
      for (size_t i = 0; i < live.size(); ++i) {
        if (live[i].second == v) {
          live[i] = live.back();
          live.pop_back();
          break;
        }
      }
    }
    ASSERT_EQ(heap.Size(), ref.size());
  }
}

// ---- parallel in-place build ----

using U64Heap = PairingHeap<uint64_t>;

// Builds `values` into `heap` as one batch, cut into consecutive runs of
// `counts[s]` values, run s on pool thread s. Returns the handles in batch
// order.
std::vector<U64Heap::Handle> BuildBatch(U64Heap* heap, util::ThreadPool* pool,
                                        const std::vector<uint64_t>& values,
                                        const std::vector<size_t>& counts) {
  const size_t shards = static_cast<size_t>(pool->num_threads());
  EXPECT_EQ(counts.size(), shards);
  std::vector<size_t> first(shards, 0);
  for (size_t s = 1; s < shards; ++s) first[s] = first[s - 1] + counts[s - 1];
  std::vector<U64Heap::Handle> handles(values.size(), nullptr);
  heap->BeginShards(shards);
  pool->ParallelFor(0, [&](size_t shard, size_t, size_t) {
    U64Heap::ShardBuilder builder =
        heap->Shard(shard, first[shard], counts[shard]);
    for (size_t i = first[shard]; i < first[shard] + counts[shard]; ++i) {
      handles[i] = builder.Add([&](uint64_t& v) { v = values[i]; });
    }
  });
  heap->AdoptShards();
  return handles;
}

// Splits n into `shards` random run sizes (empty runs included).
std::vector<size_t> RandomCounts(Rng* rng, size_t n, size_t shards) {
  std::vector<size_t> cuts = {0, n};
  for (size_t s = 1; s < shards; ++s) cuts.push_back(rng->NextBounded(n + 1));
  std::sort(cuts.begin(), cuts.end());
  std::vector<size_t> counts;
  for (size_t s = 0; s < shards; ++s) counts.push_back(cuts[s + 1] - cuts[s]);
  return counts;
}

TEST(PairingHeap, ShardBuildsInterleaveWithPushPopEraseDecreaseKey) {
  // Adopted handles must behave exactly like pushed ones under Erase and
  // DecreaseKey. Values are (priority << 20 | uid) so every live value is
  // unique and a decrease keeps it unique.
  Rng rng(4242);
  util::ThreadPool pool(4);
  U64Heap heap;
  std::multiset<uint64_t> ref;
  std::vector<std::pair<U64Heap::Handle, uint64_t>> live;
  uint64_t uid = 0;
  const auto fresh = [&]() {
    return (rng.NextBounded(1u << 20) << 20) | uid++;
  };
  for (int round = 0; round < 3000; ++round) {
    const double action = rng.NextDouble();
    if (action < 0.1) {
      std::vector<uint64_t> values(rng.NextBounded(300));
      for (uint64_t& v : values) v = fresh();
      const std::vector<U64Heap::Handle> handles = BuildBatch(
          &heap, &pool, values, RandomCounts(&rng, values.size(), 4));
      for (size_t i = 0; i < values.size(); ++i) {
        ASSERT_EQ(handles[i]->value, values[i]);
        live.emplace_back(handles[i], values[i]);
        ref.insert(values[i]);
      }
    } else if (action < 0.4 || live.empty()) {
      const uint64_t v = fresh();
      live.emplace_back(heap.Push(v), v);
      ref.insert(v);
    } else if (action < 0.6) {
      const size_t i = rng.NextBounded(live.size());
      ASSERT_EQ(heap.Erase(live[i].first), live[i].second);
      ref.erase(live[i].second);
      live[i] = live.back();
      live.pop_back();
    } else if (action < 0.8) {
      const size_t i = rng.NextBounded(live.size());
      const uint64_t old_value = live[i].second;
      const uint64_t priority = old_value >> 20;
      const uint64_t lowered =
          ((priority == 0 ? 0 : rng.NextBounded(priority)) << 20) |
          (old_value & ((1u << 20) - 1));
      heap.DecreaseKey(live[i].first, lowered);
      ref.erase(old_value);
      ref.insert(lowered);
      live[i].second = lowered;
    } else {
      const uint64_t v = heap.Pop();
      ASSERT_EQ(v, *ref.begin());
      ref.erase(ref.begin());
      for (size_t i = 0; i < live.size(); ++i) {
        if (live[i].second == v) {
          live[i] = live.back();
          live.pop_back();
          break;
        }
      }
    }
    ASSERT_EQ(heap.Size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(heap.Top(), *ref.begin());
    }
  }
  while (!ref.empty()) {
    ASSERT_EQ(heap.Pop(), *ref.begin());
    ref.erase(ref.begin());
  }
  EXPECT_TRUE(heap.Empty());
}

TEST(PairingHeap, ShardBuildReusesFreedNodesInPushOrder) {
  // Batch element j takes the node serial Push number j would have taken:
  // the most recently freed first.
  util::ThreadPool pool(3);
  U64Heap heap;
  std::vector<U64Heap::Handle> pushed;
  for (uint64_t v = 0; v < 100; ++v) pushed.push_back(heap.Push(v));
  for (uint64_t v = 0; v < 50; ++v) ASSERT_EQ(heap.Pop(), v);  // frees 0..49
  std::vector<uint64_t> values;
  for (uint64_t v = 0; v < 80; ++v) values.push_back(1000 + v);
  const std::vector<U64Heap::Handle> handles =
      BuildBatch(&heap, &pool, values, {10, 30, 40});
  for (size_t j = 0; j < 50; ++j) EXPECT_EQ(handles[j], pushed[49 - j]) << j;
  // The free list is used up, so the next Push carves a fresh node.
  const U64Heap::Handle next = heap.Push(7);
  EXPECT_EQ(std::count(pushed.begin(), pushed.end(), next), 0);
  EXPECT_EQ(heap.Size(), 50u + 80u + 1u);
  EXPECT_EQ(heap.Pop(), 7u);
  for (uint64_t v = 50; v < 100; ++v) ASSERT_EQ(heap.Pop(), v);
  for (uint64_t v = 0; v < 80; ++v) ASSERT_EQ(heap.Pop(), 1000 + v);
  EXPECT_TRUE(heap.Empty());
}

TEST(PairingHeap, MoveWithLiveShardArenas) {
  util::ThreadPool pool(4);
  U64Heap a;
  std::vector<uint64_t> values;
  for (uint64_t v = 0; v < 3000; ++v) values.push_back((v * 7919) % 3000);
  BuildBatch(&a, &pool, values, {700, 0, 1300, 1000});
  a.Push(5000);
  U64Heap b(std::move(a));
  EXPECT_EQ(b.Size(), 3001u);
  // A moved-from heap is empty and builds again from scratch.
  EXPECT_TRUE(a.Empty());
  BuildBatch(&a, &pool, {3, 1, 2}, {1, 1, 0, 1});
  EXPECT_EQ(a.Pop(), 1u);
  // Move assignment drops the target's own arenas.
  U64Heap c;
  BuildBatch(&c, &pool, {9, 8}, {0, 2, 0, 0});
  c = std::move(b);
  for (uint64_t v = 0; v < 3000; ++v) ASSERT_EQ(c.Pop(), v);
  EXPECT_EQ(c.Pop(), 5000u);
  EXPECT_TRUE(c.Empty());
  EXPECT_EQ(a.Pop(), 2u);
  EXPECT_EQ(a.Pop(), 3u);
}

TEST(PairingHeap, ClearReleasesShardArenasAndStaysUsable) {
  util::ThreadPool pool(2);
  U64Heap heap;
  std::vector<uint64_t> values(2500);
  for (uint64_t v = 0; v < values.size(); ++v) values[v] = values.size() - v;
  BuildBatch(&heap, &pool, values, {1200, 1300});
  for (int i = 0; i < 100; ++i) heap.Pop();
  heap.Clear();
  EXPECT_TRUE(heap.Empty());
  EXPECT_EQ(heap.Size(), 0u);
  heap.Push(40);
  BuildBatch(&heap, &pool, {30, 10, 20}, {2, 1});
  for (const uint64_t v : {10u, 20u, 30u, 40u}) EXPECT_EQ(heap.Pop(), v);
  EXPECT_TRUE(heap.Empty());
}

// Values with a destructor take the node-walking teardown path; every
// live value must be destroyed exactly once by Clear and the destructor.
struct Counted {
  uint64_t key = 0;
  std::shared_ptr<int> token;
};
struct CountedLess {
  bool operator()(const Counted& a, const Counted& b) const {
    return a.key < b.key;
  }
};

TEST(PairingHeap, NonTrivialValuesAreDestroyedExactlyOnce) {
  util::ThreadPool pool(3);
  const auto token = std::make_shared<int>(0);
  const auto fill = [&](PairingHeap<Counted, CountedLess>* heap) {
    for (uint64_t k = 0; k < 50; ++k) heap->Push({k, token});
    heap->BeginShards(3);
    pool.ParallelFor(0, [&](size_t shard, size_t, size_t) {
      auto builder = heap->Shard(shard, shard * 40, 40);
      for (uint64_t i = 0; i < 40; ++i) {
        builder.Add([&](Counted& c) { c = {100 + shard * 40 + i, token}; });
      }
    });
    heap->AdoptShards();
    for (int i = 0; i < 10; ++i) heap->Pop();
  };
  {
    PairingHeap<Counted, CountedLess> heap;
    fill(&heap);
    EXPECT_EQ(token.use_count(), 1 + 50 + 120 - 10);
    heap.Clear();
    EXPECT_EQ(token.use_count(), 1);
    fill(&heap);
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace sdj
