// Property sweep for the join engine: randomized configurations (policy,
// tie-break, metric, range, budget, queue, estimation) derived from a seed,
// each validated pair-for-pair against brute force; plus structural edge
// cases (wildly uneven tree sizes, single objects, non-dense ids, 3-D).
#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance_join.h"
#include "core/snapshot.h"
#include "data/generators.h"
#include "join_test_util.h"
#include "rtree/rtree.h"
#include "util/rng.h"

namespace sdj {
namespace {

using test::BruteForcePairs;
using test::BuildPointTree;
using test::RefPair;

class JoinConfigFuzz : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, JoinConfigFuzz,
                         ::testing::Range<uint64_t>(1, 13));

TEST_P(JoinConfigFuzz, RandomConfigMatchesBruteForce) {
  Rng rng(GetParam() * 7919);
  // Random datasets: size, skew.
  const size_t na = 50 + rng.NextBounded(250);
  const size_t nb = 50 + rng.NextBounded(250);
  const Rect<2> extent({0, 0}, {1000, 1000});
  std::vector<Point<2>> a;
  std::vector<Point<2>> b;
  if (rng.NextDouble() < 0.5) {
    a = data::GenerateUniform(na, extent, rng.NextUint64());
  } else {
    data::ClusterOptions copts;
    copts.num_points = na;
    copts.extent = extent;
    copts.num_clusters = 1 + static_cast<int>(rng.NextBounded(8));
    copts.seed = rng.NextUint64();
    a = data::GenerateClustered(copts);
  }
  b = data::GenerateUniform(nb, extent, rng.NextUint64());

  // Random configuration.
  DistanceJoinOptions options;
  const Metric metrics[] = {Metric::kEuclidean, Metric::kManhattan,
                            Metric::kChessboard};
  options.metric = metrics[rng.NextBounded(3)];
  const NodeProcessingPolicy policies[] = {NodeProcessingPolicy::kEven,
                                           NodeProcessingPolicy::kBasic,
                                           NodeProcessingPolicy::kSimultaneous};
  options.node_policy = policies[rng.NextBounded(3)];
  options.tie_break = rng.NextDouble() < 0.5 ? TieBreakPolicy::kDepthFirst
                                             : TieBreakPolicy::kBreadthFirst;
  auto reference = BruteForcePairs(a, b, options.metric);
  if (rng.NextDouble() < 0.4) {
    options.min_distance =
        reference[rng.NextBounded(reference.size() / 2)].distance;
  }
  if (rng.NextDouble() < 0.4) {
    options.max_distance =
        reference[reference.size() / 2 +
                  rng.NextBounded(reference.size() / 2)].distance;
  }
  if (options.min_distance > options.max_distance) {
    std::swap(options.min_distance, options.max_distance);
  }
  const bool use_budget = rng.NextDouble() < 0.6;
  if (use_budget) {
    options.max_pairs = 1 + rng.NextBounded(500);
    options.estimate_max_distance = rng.NextDouble() < 0.6;
    options.aggressive_estimation =
        options.estimate_max_distance && rng.NextDouble() < 0.4;
  }
  if (rng.NextDouble() < 0.3) {
    options.use_hybrid_queue = true;
    options.hybrid.tier_width =
        std::max(1e-3, reference[reference.size() / 4].distance);
  }

  // Expected: the in-range prefix, capped by the budget.
  std::vector<double> expected;
  for (const RefPair& p : reference) {
    if (p.distance >= options.min_distance &&
        p.distance <= options.max_distance) {
      expected.push_back(p.distance);
    }
  }
  if (options.max_pairs > 0 && expected.size() > options.max_pairs) {
    expected.resize(options.max_pairs);
  }

  RTree<2> ta = BuildPointTree(a, 512, rng.NextDouble() < 0.5);
  RTree<2> tb = BuildPointTree(b, 512, rng.NextDouble() < 0.5);
  DistanceJoin<2> join(ta, tb, options);
  JoinResult<2> pair;
  std::vector<double> got;
  while (join.Next(&pair)) {
    got.push_back(pair.distance);
    // Reported distances are always the true distances.
    ASSERT_NEAR(pair.distance,
                Dist(a[pair.id1], b[pair.id2], options.metric), 1e-9);
  }
  ASSERT_EQ(got.size(), expected.size())
      << "min=" << options.min_distance << " max=" << options.max_distance
      << " k=" << options.max_pairs;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], expected[i], 1e-9) << i;
  }
}

TEST(JoinEdgeCases, WildlyUnevenTreeSizes) {
  const auto a = data::GenerateUniform(5, Rect<2>({0, 0}, {1000, 1000}), 881);
  const auto b =
      data::GenerateUniform(8000, Rect<2>({0, 0}, {1000, 1000}), 882);
  RTree<2> ta = BuildPointTree(a);
  RTree<2> tb = BuildPointTree(b);
  ASSERT_LT(ta.height(), tb.height());
  const auto reference = BruteForcePairs(a, b);
  DistanceJoinOptions options;
  DistanceJoin<2> join(ta, tb, options);
  JoinResult<2> pair;
  for (size_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(join.Next(&pair)) << k;
    ASSERT_NEAR(pair.distance, reference[k].distance, 1e-9) << k;
  }
  // And with the sides swapped (taller tree first).
  DistanceJoin<2> swapped(tb, ta, options);
  for (size_t k = 0; k < 200; ++k) {
    ASSERT_TRUE(swapped.Next(&pair)) << k;
    ASSERT_NEAR(pair.distance, reference[k].distance, 1e-9) << k;
  }
}

TEST(JoinEdgeCases, SingleObjectPerTree) {
  RTree<2> ta;
  RTree<2> tb;
  ta.Insert(Rect<2>::FromPoint({0, 0}), 11);
  tb.Insert(Rect<2>::FromPoint({3, 4}), 22);
  DistanceJoinOptions options;
  DistanceJoin<2> join(ta, tb, options);
  JoinResult<2> pair;
  ASSERT_TRUE(join.Next(&pair));
  EXPECT_EQ(pair.id1, 11u);
  EXPECT_EQ(pair.id2, 22u);
  EXPECT_DOUBLE_EQ(pair.distance, 5.0);
  EXPECT_FALSE(join.Next(&pair));
}

TEST(JoinEdgeCases, NonDenseObjectIds) {
  // Plain joins carry ids opaquely; nothing may assume density.
  const auto a = data::GenerateUniform(80, Rect<2>({0, 0}, {100, 100}), 883);
  const auto b = data::GenerateUniform(90, Rect<2>({0, 0}, {100, 100}), 884);
  RTree<2> ta;
  RTree<2> tb;
  for (size_t i = 0; i < a.size(); ++i) {
    ta.Insert(Rect<2>::FromPoint(a[i]), i * 7 + 13);
  }
  for (size_t i = 0; i < b.size(); ++i) {
    tb.Insert(Rect<2>::FromPoint(b[i]), i * 1000 + 1);
  }
  const auto reference = BruteForcePairs(a, b);
  DistanceJoinOptions options;
  DistanceJoin<2> join(ta, tb, options);
  JoinResult<2> pair;
  for (size_t k = 0; k < 300; ++k) {
    ASSERT_TRUE(join.Next(&pair)) << k;
    ASSERT_NEAR(pair.distance, reference[k].distance, 1e-9) << k;
    EXPECT_EQ((pair.id1 - 13) % 7, 0u);
    EXPECT_EQ(pair.id2 % 1000, 1u);
  }
}

TEST(JoinEdgeCases, ThreeDimensionalJoin) {
  Rng rng(885);
  std::vector<Point<3>> a;
  std::vector<Point<3>> b;
  RTreeOptions topts;
  topts.page_size = 512;
  RTree<3> ta(topts);
  RTree<3> tb(topts);
  for (int i = 0; i < 300; ++i) {
    a.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100),
                 rng.Uniform(0, 100)});
    ta.Insert(Rect<3>::FromPoint(a.back()), i);
  }
  for (int i = 0; i < 350; ++i) {
    b.push_back({rng.Uniform(0, 100), rng.Uniform(0, 100),
                 rng.Uniform(0, 100)});
    tb.Insert(Rect<3>::FromPoint(b.back()), i);
  }
  std::vector<double> reference;
  for (const auto& p : a) {
    for (const auto& q : b) reference.push_back(Dist(p, q));
  }
  std::sort(reference.begin(), reference.end());

  DistanceJoinOptions options;
  DistanceJoin<3> join(ta, tb, options);
  JoinResult<3> pair;
  for (size_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(join.Next(&pair)) << k;
    ASSERT_NEAR(pair.distance, reference[k], 1e-9) << k;
  }
}

// ---- parallel expansion determinism (DESIGN.md §10) ----
//
// The acceptance gate for num_threads > 1 is bit-identity with the serial
// engine: the same pair sequence (ids AND exact distance doubles), the same
// counters, the same terminal status. Every comparison below is exact.

struct JoinTrace {
  std::vector<JoinResult<2>> pairs;
  JoinStatus status = JoinStatus::kOk;
  JoinStats stats;
};

template <typename JoinT>
JoinTrace DrainJoin(JoinT& join) {
  JoinTrace trace;
  JoinResult<2> pair;
  while (join.Next(&pair)) trace.pairs.push_back(pair);
  trace.status = join.status();
  trace.stats = join.stats();
  return trace;
}

// Asserts two traces are identical. `parallel_expansions` is the one counter
// allowed to differ (it reports how the work was done, not what was done).
void ExpectTracesIdentical(const JoinTrace& serial, const JoinTrace& other,
                           int threads) {
  ASSERT_EQ(serial.pairs.size(), other.pairs.size()) << threads << " threads";
  for (size_t i = 0; i < serial.pairs.size(); ++i) {
    ASSERT_EQ(serial.pairs[i].id1, other.pairs[i].id1) << i;
    ASSERT_EQ(serial.pairs[i].id2, other.pairs[i].id2) << i;
    ASSERT_EQ(serial.pairs[i].distance, other.pairs[i].distance) << i;
    ASSERT_EQ(serial.pairs[i].rect1, other.pairs[i].rect1) << i;
    ASSERT_EQ(serial.pairs[i].rect2, other.pairs[i].rect2) << i;
  }
  EXPECT_EQ(serial.status, other.status) << threads << " threads";
  test::ExpectStatsEqual(serial.stats, other.stats, {"parallel_expansions"});
}

class ParallelJoinFuzz : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelJoinFuzz,
                         ::testing::Range<uint64_t>(1, 9));

TEST_P(ParallelJoinFuzz, ThreadCountNeverChangesTheOutputStream) {
  Rng rng(GetParam() * 6151);
  const size_t na = 200 + rng.NextBounded(600);
  const size_t nb = 200 + rng.NextBounded(600);
  const Rect<2> extent({0, 0}, {1000, 1000});
  const auto a = data::GenerateUniform(na, extent, rng.NextUint64());
  const auto b = data::GenerateUniform(nb, extent, rng.NextUint64());

  DistanceJoinOptions options;
  const Metric metrics[] = {Metric::kEuclidean, Metric::kManhattan,
                            Metric::kChessboard};
  options.metric = metrics[rng.NextBounded(3)];
  const NodeProcessingPolicy policies[] = {NodeProcessingPolicy::kEven,
                                           NodeProcessingPolicy::kBasic,
                                           NodeProcessingPolicy::kSimultaneous};
  options.node_policy = policies[rng.NextBounded(3)];
  options.tie_break = rng.NextDouble() < 0.5 ? TieBreakPolicy::kDepthFirst
                                             : TieBreakPolicy::kBreadthFirst;
  if (rng.NextDouble() < 0.3) options.max_distance = rng.Uniform(50, 400);
  if (rng.NextDouble() < 0.2) options.min_distance = rng.Uniform(0, 40);
  options.max_pairs = 1 + rng.NextBounded(4000);
  JoinFilters<2> filters;
  if (rng.NextDouble() < 0.3) {
    // Windows are pure per-item predicates, so they stay on the fast path.
    filters.window1 = Rect<2>({0, 0}, {rng.Uniform(300, 1000), 1000});
  }
  const bool bulk = rng.NextDouble() < 0.5;

  std::optional<JoinTrace> serial;
  for (const int threads : {1, 2, 4, 7}) {
    // Fresh trees per run so buffer-pool state (node_io) starts cold.
    RTree<2> ta = BuildPointTree(a, 512, bulk);
    RTree<2> tb = BuildPointTree(b, 512, bulk);
    options.num_threads = threads;
    DistanceJoin<2> join(ta, tb, options, filters);
    JoinTrace trace = DrainJoin(join);
    if (!serial.has_value()) {
      serial = std::move(trace);
      continue;
    }
    ExpectTracesIdentical(*serial, trace, threads);
  }
}

TEST(ParallelJoin, GeneralPathConfigsAreUnaffectedByThreadCount) {
  // Estimation engages the non-parallel general path; the option must still
  // be accepted and produce the serial stream.
  Rng rng(4099);
  const Rect<2> extent({0, 0}, {1000, 1000});
  const auto a = data::GenerateUniform(400, extent, 11);
  const auto b = data::GenerateUniform(500, extent, 12);
  DistanceJoinOptions options;
  options.max_pairs = 300;
  options.estimate_max_distance = true;
  std::optional<JoinTrace> serial;
  for (const int threads : {1, 4}) {
    RTree<2> ta = BuildPointTree(a);
    RTree<2> tb = BuildPointTree(b);
    options.num_threads = threads;
    DistanceJoin<2> join(ta, tb, options);
    JoinTrace trace = DrainJoin(join);
    if (threads > 1) {
      EXPECT_EQ(trace.stats.parallel_expansions, 0u);
    }
    if (!serial.has_value()) {
      serial = std::move(trace);
      continue;
    }
    ExpectTracesIdentical(*serial, trace, threads);
  }
}

TEST(ParallelJoin, IoErrorPrefixesMatchAcrossThreadCounts) {
  // Under a dead-disk fault schedule the join degrades to a correct prefix
  // and stops with kIoError. Worker threads never touch the buffer pool, so
  // the page-read order — and therefore the surviving prefix — must be
  // identical for every thread count.
  const Rect<2> extent({0, 0}, {1000, 1000});
  const auto a = data::GenerateUniform(600, extent, 21);
  const auto b = data::GenerateUniform(700, extent, 22);
  const std::string path_a = ::testing::TempDir() + "/par_fault_a.pages";
  const std::string path_b = ::testing::TempDir() + "/par_fault_b.pages";
  const auto file_options = [](const std::string& path) {
    RTreeOptions topts;
    topts.page_size = 512;
    topts.file_path = path;
    return topts;
  };
  // Build both trees to disk healthy, then reopen each run under a fault
  // schedule so the dead-disk point falls inside the join, never inside
  // construction.
  {
    RTree<2> ta(file_options(path_a));
    for (size_t i = 0; i < a.size(); ++i) {
      ta.Insert(Rect<2>::FromPoint(a[i]), i);
    }
    ASSERT_TRUE(ta.Flush());
    RTree<2> tb(file_options(path_b));
    for (size_t i = 0; i < b.size(); ++i) {
      tb.Insert(Rect<2>::FromPoint(b[i]), i);
    }
    ASSERT_TRUE(tb.Flush());
  }
  std::optional<JoinTrace> serial;
  for (const int threads : {1, 2, 4, 7}) {
    storage::FaultInjectionOptions faults;
    faults.seed = 33;
    faults.hard_read_after = 150;
    RTreeOptions topts_a = file_options(path_a);
    topts_a.buffer_pages = 8;  // small pool: the join keeps re-reading
    topts_a.retry.max_attempts = 2;
    topts_a.retry.backoff_us = 0;
    topts_a.fault_injection = faults;
    RTreeOptions topts_b = topts_a;
    topts_b.file_path = path_b;
    auto ta = RTree<2>::Open(topts_a);
    auto tb = RTree<2>::Open(topts_b);
    ASSERT_NE(ta, nullptr);
    ASSERT_NE(tb, nullptr);
    DistanceJoinOptions options;
    options.node_policy = NodeProcessingPolicy::kSimultaneous;
    options.num_threads = threads;
    DistanceJoin<2> join(*ta, *tb, options);
    JoinTrace trace = DrainJoin(join);
    if (!serial.has_value()) {
      EXPECT_EQ(trace.status, JoinStatus::kIoError);
      EXPECT_GT(trace.pairs.size(), 0u);
      serial = std::move(trace);
      continue;
    }
    ExpectTracesIdentical(*serial, trace, threads);
  }
}

// ---- the sharded build must actually run ----
//
// With 512-byte pages no expansion reaches kParallelGrain candidates, so
// the tests above (and every golden *_t4 fixture) only prove that the
// one-shard inline path ignores num_threads. With 2 KB pages a Simultaneous
// node/node expansion offers thousands of candidates: these configs assert
// that the sharded classify and per-shard in-place build engaged
// (parallel_expansions > 0) and still reproduce the serial trace. The
// relation sizes are odd, so candidate counts rarely divide by the thread
// count.

constexpr uint32_t kWidePage = 2048;

std::vector<Point<2>> WideSetA() {
  return data::GenerateUniform(1501, Rect<2>({0, 0}, {1000, 1000}), 71);
}
std::vector<Point<2>> WideSetB() {
  return data::GenerateUniform(1703, Rect<2>({0, 0}, {1000, 1000}), 72);
}

// Points snapped to a coarse integer lattice: many pairs tie exactly on
// distance, so the pop order — and with it the stream — depends on every
// entry's seq, not just on its key.
std::vector<Point<2>> Lattice(std::vector<Point<2>> points) {
  for (Point<2>& p : points) {
    p[0] = std::floor(p[0] / 25.0);
    p[1] = std::floor(p[1] / 25.0);
  }
  return points;
}

JoinTrace RunWideSimultaneous(DistanceJoinOptions options,
                              const JoinFilters<2>& filters, int threads,
                              bool lattice = false) {
  // Fresh trees per run so buffer-pool state (node_io) starts cold.
  RTree<2> ta = BuildPointTree(lattice ? Lattice(WideSetA()) : WideSetA(),
                               kWidePage);
  RTree<2> tb = BuildPointTree(lattice ? Lattice(WideSetB()) : WideSetB(),
                               kWidePage);
  options.node_policy = NodeProcessingPolicy::kSimultaneous;
  options.num_threads = threads;
  DistanceJoin<2> join(ta, tb, options, filters);
  return DrainJoin(join);
}

void ExpectShardedBuildMatchesSerial(const DistanceJoinOptions& options,
                                     const JoinFilters<2>& filters,
                                     std::initializer_list<int> threads) {
  const JoinTrace serial = RunWideSimultaneous(options, filters, 1);
  ASSERT_GT(serial.pairs.size(), 0u);
  EXPECT_EQ(serial.stats.parallel_expansions, 0u);
  for (const int t : threads) {
    const JoinTrace trace = RunWideSimultaneous(options, filters, t);
    EXPECT_GT(trace.stats.parallel_expansions, 0u) << t << " threads";
    ExpectTracesIdentical(serial, trace, t);
  }
}

TEST(ParallelJoin, ShardedBuildEngagesAndMatchesSerial) {
  DistanceJoinOptions options;
  options.max_pairs = 3000;
  ExpectShardedBuildMatchesSerial(options, {}, {2, 3, 4, 7});
}

TEST(ParallelJoin, ShardedBuildKeepsSerialOrderAmongExactTies) {
  DistanceJoinOptions options;
  options.max_pairs = 20000;
  const JoinTrace serial = RunWideSimultaneous(options, {}, 1, true);
  for (const int t : {2, 3, 4, 7}) {
    const JoinTrace trace = RunWideSimultaneous(options, {}, t, true);
    EXPECT_GT(trace.stats.parallel_expansions, 0u) << t << " threads";
    ExpectTracesIdentical(serial, trace, t);
  }
}

TEST(ParallelJoin, ShardedBuildMinDistanceRung) {
  // min_distance > 0 makes every candidate compute its join d_max, and
  // pairs wholly closer than Dmin fall off the kSlotRangeMin rung.
  DistanceJoinOptions options;
  options.min_distance = 15.0;
  options.max_distance = 120.0;
  options.max_pairs = 3000;
  ExpectShardedBuildMatchesSerial(options, {}, {2, 3, 4, 7});
}

TEST(ParallelJoin, ShardedBuildReverseOrder) {
  // Farthest-first: keys are negated join d_max values.
  DistanceJoinOptions options;
  options.reverse_order = true;
  options.max_pairs = 2000;
  ExpectShardedBuildMatchesSerial(options, {}, {2, 3, 4, 7});
}

TEST(ParallelJoin, ShardedBuildWindows) {
  DistanceJoinOptions options;
  options.max_pairs = 3000;
  JoinFilters<2> filters;
  filters.window1 = Rect<2>({0, 0}, {700, 1000});
  filters.window2 = Rect<2>({150, 100}, {1000, 900});
  ExpectShardedBuildMatchesSerial(options, filters, {2, 3, 4, 7});
}

TEST(ParallelJoin, ShardedBuildHybridQueue) {
  // The hybrid queue stages each batch and pushes it in seq order, so its
  // tier routing and spill traffic match the serial engine's.
  DistanceJoinOptions options;
  options.max_pairs = 1000;
  options.use_hybrid_queue = true;
  options.hybrid.tier_width = 25.0;
  ExpectShardedBuildMatchesSerial(options, {}, {4});
}

TEST(ParallelJoin, SuspendAndResumeAcrossThreadCounts) {
  // Save after a prefix at one thread count, restore into a fresh engine at
  // another: the combined stream must be the uninterrupted serial stream,
  // and the whole trace must equal the same split run serially.
  DistanceJoinOptions options;
  options.node_policy = NodeProcessingPolicy::kSimultaneous;
  options.max_pairs = 4000;
  constexpr size_t kPrefix = 1500;
  const JoinTrace uninterrupted = RunWideSimultaneous(options, {}, 1);
  ASSERT_EQ(uninterrupted.pairs.size(), options.max_pairs);

  const auto split_run = [&](int save_threads, int restore_threads) {
    RTree<2> ta = BuildPointTree(WideSetA(), kWidePage);
    RTree<2> tb = BuildPointTree(WideSetB(), kWidePage);
    JoinTrace trace;
    snapshot::Blob blob;
    uint64_t parallel_before_save = 0;
    {
      DistanceJoinOptions first = options;
      first.num_threads = save_threads;
      DistanceJoin<2> join(ta, tb, first);
      JoinResult<2> pair;
      while (trace.pairs.size() < kPrefix && join.Next(&pair)) {
        trace.pairs.push_back(pair);
      }
      EXPECT_TRUE(join.SaveState(&blob));
      parallel_before_save = join.stats().parallel_expansions;
    }
    DistanceJoinOptions second = options;
    second.num_threads = restore_threads;
    DistanceJoin<2> resumed(ta, tb, second);
    snapshot::BlobReader reader(blob.data(), blob.size());
    EXPECT_TRUE(resumed.RestoreState(&reader));
    JoinTrace rest = DrainJoin(resumed);
    trace.pairs.insert(trace.pairs.end(), rest.pairs.begin(),
                       rest.pairs.end());
    trace.status = rest.status;
    trace.stats = rest.stats;
    if (save_threads > 1) {
      EXPECT_GT(parallel_before_save, 0u);
    }
    if (restore_threads > 1) {
      EXPECT_GT(trace.stats.parallel_expansions, parallel_before_save);
    }
    return trace;
  };

  const JoinTrace serial_split = split_run(1, 1);
  ASSERT_EQ(serial_split.pairs.size(), uninterrupted.pairs.size());
  for (size_t i = 0; i < serial_split.pairs.size(); ++i) {
    ASSERT_EQ(serial_split.pairs[i].id1, uninterrupted.pairs[i].id1) << i;
    ASSERT_EQ(serial_split.pairs[i].id2, uninterrupted.pairs[i].id2) << i;
    ASSERT_EQ(serial_split.pairs[i].distance,
              uninterrupted.pairs[i].distance) << i;
  }
  ExpectTracesIdentical(serial_split, split_run(4, 1), 4);
  ExpectTracesIdentical(serial_split, split_run(1, 4), 4);
}

TEST(JoinEdgeCases, BoxObjectsWithOverlap) {
  // Extended objects stored directly: overlapping boxes yield zero-distance
  // pairs first, then positive gaps in order.
  Rng rng(886);
  std::vector<Rect<2>> a;
  std::vector<Rect<2>> b;
  RTreeOptions topts;
  topts.page_size = 512;
  RTree<2> ta(topts);
  RTree<2> tb(topts);
  for (int i = 0; i < 120; ++i) {
    const double x = rng.Uniform(0, 950);
    const double y = rng.Uniform(0, 950);
    a.push_back({{x, y}, {x + rng.Uniform(1, 50), y + rng.Uniform(1, 50)}});
    ta.Insert(a.back(), i);
  }
  for (int i = 0; i < 120; ++i) {
    const double x = rng.Uniform(0, 950);
    const double y = rng.Uniform(0, 950);
    b.push_back({{x, y}, {x + rng.Uniform(1, 50), y + rng.Uniform(1, 50)}});
    tb.Insert(b.back(), i);
  }
  std::vector<double> reference;
  for (const auto& r : a) {
    for (const auto& s : b) reference.push_back(MinDist(r, s));
  }
  std::sort(reference.begin(), reference.end());

  DistanceJoinOptions options;
  DistanceJoin<2> join(ta, tb, options);
  JoinResult<2> pair;
  for (size_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(join.Next(&pair)) << k;
    ASSERT_NEAR(pair.distance, reference[k], 1e-9) << k;
  }
}

}  // namespace
}  // namespace sdj
