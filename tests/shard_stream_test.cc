// Sharded best-first execution (DESIGN.md §18): the sharded wrappers must be
// stream- AND stats-identical to the serial engines at every shard count, for
// all five policies, on raw and quantized trees. Also covers the k-way merge
// under a dead shard (kIoError with a valid serial prefix), merge-level
// suspend/resume, the max_pairs cap, and JoinStats::MergeFrom (the one
// sanctioned stats aggregation).
//
// Test names contain "ParallelJoin" so scripts/check.sh's TSan pass picks
// them up (the shard producers exercise concurrent engine execution over
// shared buffer pools).
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance_join.h"
#include "core/env_knobs.h"
#include "core/join_stats.h"
#include "core/semi_join.h"
#include "core/shard_merge.h"
#include "core/within_join.h"
#include "data/generators.h"
#include "join_test_util.h"
#include "nn/inc_farthest.h"
#include "nn/inc_nearest.h"
#include "nn/sharded_neighbor.h"
#include "rtree/rtree.h"
#include "storage/fault_injection.h"
#include "util/stop_token.h"

namespace sdj {
namespace {

const std::vector<Point<2>>& SetA() {
  static const auto* points = new std::vector<Point<2>>(
      data::GenerateUniform(600, Rect<2>({0, 0}, {100, 100}), 4201));
  return *points;
}

const std::vector<Point<2>>& SetB() {
  static const auto* points = new std::vector<Point<2>>(
      data::GenerateUniform(600, Rect<2>({0, 0}, {100, 100}), 4202));
  return *points;
}

template <typename Engine>
std::vector<JoinResult<2>> DrainPairs(Engine* join, uint64_t cap = 0) {
  std::vector<JoinResult<2>> out;
  JoinResult<2> pair;
  while ((cap == 0 || out.size() < cap) && join->Next(&pair)) {
    out.push_back(pair);
  }
  return out;
}

void ExpectSamePairs(const std::vector<JoinResult<2>>& expected,
                     const std::vector<JoinResult<2>>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].id1, actual[i].id1) << "pair " << i;
    ASSERT_EQ(expected[i].id2, actual[i].id2) << "pair " << i;
    ASSERT_EQ(expected[i].distance, actual[i].distance) << "pair " << i;
  }
}

// Every counter must match the serial engine's at exhaustion except
// max_queue_size (disjoint per-shard peaks; the merge reports their max) and
// parallel_expansions (an execution-strategy counter, already excluded from
// golden fixtures).
void ExpectStatsIdentical(const JoinStats& serial, const JoinStats& sharded) {
  test::ExpectStatsEqual(serial, sharded,
                         {"max_queue_size", "parallel_expansions"});
}

constexpr int kShardCounts[] = {1, 2, 4, 7};

TEST(ShardedParallelJoin, DistanceJoinMatchesSerialAllShardCounts) {
  for (const NodeEncoding encoding :
       {NodeEncoding::kRaw, NodeEncoding::kQuantized}) {
    SCOPED_TRACE(encoding == NodeEncoding::kRaw ? "raw" : "quantized");
    DistanceJoinOptions serial_options;
    std::vector<JoinResult<2>> serial;
    JoinStats serial_stats;
    {
      // Fresh trees per run: node_io counts buffer misses, so reusing a
      // warmed pool would skew the pool-derived counters.
      RTree<2> tree1 = test::BuildPointTree(SetA(), 512, true, encoding);
      RTree<2> tree2 = test::BuildPointTree(SetB(), 512, true, encoding);
      DistanceJoin<2> join(tree1, tree2, serial_options);
      serial = DrainPairs(&join);
      ASSERT_EQ(join.status(), JoinStatus::kExhausted);
      serial_stats = join.stats();
    }
    for (const int shards : kShardCounts) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      RTree<2> tree1 = test::BuildPointTree(SetA(), 512, true, encoding);
      RTree<2> tree2 = test::BuildPointTree(SetB(), 512, true, encoding);
      DistanceJoinOptions options;
      options.shards = shards;
      ShardedDistanceJoin<2> join(tree1, tree2, options);
      if (shards >= 2) {
        EXPECT_EQ(join.effective_shards(), shards);
      } else {
        EXPECT_EQ(join.effective_shards(), 1);
      }
      const auto sharded = DrainPairs(&join);
      EXPECT_EQ(join.status(), JoinStatus::kExhausted);
      ExpectSamePairs(serial, sharded);
      ExpectStatsIdentical(serial_stats, join.stats());
      if (shards >= 2) {
        EXPECT_EQ(join.shard_merge_pops(), sharded.size());
        EXPECT_EQ(join.shard_stats().size(),
                  static_cast<size_t>(join.effective_shards()));
      }
    }
  }
}

TEST(ShardedParallelJoin, HybridQueueAndRangeConfigsMatchSerial) {
  struct Config {
    const char* name;
    bool hybrid;
    double max_distance;
    int num_threads;
  };
  const Config configs[] = {
      {"hybrid", true, std::numeric_limits<double>::infinity(), 1},
      {"range", false, 5.0, 1},
      {"range_threads", false, 5.0, 2},
  };
  for (const Config& config : configs) {
    SCOPED_TRACE(config.name);
    DistanceJoinOptions base;
    base.use_hybrid_queue = config.hybrid;
    base.max_distance = config.max_distance;
    base.num_threads = config.num_threads;
    std::vector<JoinResult<2>> serial;
    JoinStats serial_stats;
    {
      RTree<2> tree1 = test::BuildPointTree(SetA());
      RTree<2> tree2 = test::BuildPointTree(SetB());
      DistanceJoin<2> join(tree1, tree2, base);
      serial = DrainPairs(&join);
      ASSERT_EQ(join.status(), JoinStatus::kExhausted);
      serial_stats = join.stats();
    }
    for (const int shards : {2, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      RTree<2> tree1 = test::BuildPointTree(SetA());
      RTree<2> tree2 = test::BuildPointTree(SetB());
      DistanceJoinOptions options = base;
      options.shards = shards;
      ShardedDistanceJoin<2> join(tree1, tree2, options);
      const auto sharded = DrainPairs(&join);
      EXPECT_EQ(join.status(), JoinStatus::kExhausted);
      ExpectSamePairs(serial, sharded);
      ExpectStatsIdentical(serial_stats, join.stats());
    }
  }
}

TEST(ShardedParallelJoin, MaxPairsCapMatchesSerial) {
  DistanceJoinOptions base;
  base.max_pairs = 500;
  std::vector<JoinResult<2>> serial;
  {
    RTree<2> tree1 = test::BuildPointTree(SetA());
    RTree<2> tree2 = test::BuildPointTree(SetB());
    DistanceJoin<2> join(tree1, tree2, base);
    serial = DrainPairs(&join);
    ASSERT_EQ(join.status(), JoinStatus::kExhausted);
    ASSERT_EQ(serial.size(), 500u);
  }
  for (const int shards : {2, 7}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RTree<2> tree1 = test::BuildPointTree(SetA());
    RTree<2> tree2 = test::BuildPointTree(SetB());
    DistanceJoinOptions options = base;
    options.shards = shards;
    ShardedDistanceJoin<2> join(tree1, tree2, options);
    const auto sharded = DrainPairs(&join);
    EXPECT_EQ(join.status(), JoinStatus::kExhausted);
    ExpectSamePairs(serial, sharded);
  }
}

// Ineligible configurations (estimator, reverse order, exact distances,
// object predicates) must degrade to one ordinary engine, not silently
// change the stream.
TEST(ShardedParallelJoin, IneligibleConfigsFallBackToPassthrough) {
  RTree<2> tree1 = test::BuildPointTree(SetA());
  RTree<2> tree2 = test::BuildPointTree(SetB());
  {
    DistanceJoinOptions options;
    options.shards = 4;
    options.reverse_order = true;
    ShardedDistanceJoin<2> join(tree1, tree2, options);
    EXPECT_EQ(join.effective_shards(), 1);
  }
  {
    DistanceJoinOptions options;
    options.shards = 4;
    options.max_pairs = 100;
    options.estimate_max_distance = true;
    ShardedDistanceJoin<2> join(tree1, tree2, options);
    EXPECT_EQ(join.effective_shards(), 1);
  }
  {
    DistanceJoinOptions options;
    options.shards = 4;
    options.exact_object_distance = [](ObjectId a, ObjectId b) {
      return Dist(SetA()[a], SetB()[b], Metric::kEuclidean);
    };
    ShardedDistanceJoin<2> join(tree1, tree2, options);
    EXPECT_EQ(join.effective_shards(), 1);
  }
  {
    DistanceJoinOptions options;
    options.shards = 4;
    JoinFilters<2> filters;
    filters.object_filter1 = [](ObjectId) { return true; };
    ShardedDistanceJoin<2> join(tree1, tree2, options, filters);
    EXPECT_EQ(join.effective_shards(), 1);
  }
}

// shards == 0 resolves through SDJ_SHARDS; whatever the environment
// selects, the stream is the serial one (this test runs under check.sh's
// SDJ_SHARDS=4 ctest pass too).
TEST(ShardedParallelJoin, ZeroShardsResolvesFromEnvironment) {
  std::vector<JoinResult<2>> serial;
  {
    RTree<2> tree1 = test::BuildPointTree(SetA());
    RTree<2> tree2 = test::BuildPointTree(SetB());
    DistanceJoin<2> join(tree1, tree2, DistanceJoinOptions{});
    serial = DrainPairs(&join);
  }
  RTree<2> tree1 = test::BuildPointTree(SetA());
  RTree<2> tree2 = test::BuildPointTree(SetB());
  DistanceJoinOptions options;
  options.shards = 0;
  ShardedDistanceJoin<2> join(tree1, tree2, options);
  EXPECT_EQ(join.effective_shards(), env_knobs::ResolveShards(0) >= 2
                                         ? env_knobs::ResolveShards(0)
                                         : 1);
  ExpectSamePairs(serial, DrainPairs(&join));
  EXPECT_EQ(join.status(), JoinStatus::kExhausted);
}

TEST(ShardedParallelJoin, WithinJoinMatchesSerialAllShardCounts) {
  for (const NodeEncoding encoding :
       {NodeEncoding::kRaw, NodeEncoding::kQuantized}) {
    SCOPED_TRACE(encoding == NodeEncoding::kRaw ? "raw" : "quantized");
    WithinJoinOptions base;
    base.epsilon = 2.0;
    std::vector<JoinResult<2>> serial;
    JoinStats serial_stats;
    {
      RTree<2> tree1 = test::BuildPointTree(SetA(), 512, true, encoding);
      RTree<2> tree2 = test::BuildPointTree(SetB(), 512, true, encoding);
      IncWithinJoin<2> join(tree1, tree2, base);
      serial = DrainPairs(&join);
      ASSERT_EQ(join.status(), JoinStatus::kExhausted);
      serial_stats = join.stats();
    }
    for (const int shards : kShardCounts) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      RTree<2> tree1 = test::BuildPointTree(SetA(), 512, true, encoding);
      RTree<2> tree2 = test::BuildPointTree(SetB(), 512, true, encoding);
      WithinJoinOptions options = base;
      options.shards = shards;
      ShardedWithinJoin<2> join(tree1, tree2, options);
      const auto sharded = DrainPairs(&join);
      EXPECT_EQ(join.status(), JoinStatus::kExhausted);
      ExpectSamePairs(serial, sharded);
      ExpectStatsIdentical(serial_stats, join.stats());
    }
  }
}

struct SemiConfig {
  const char* name;
  SemiJoinFilter filter;
  SemiJoinBound bound;
};
constexpr SemiConfig kSemiConfigs[] = {
    {"outside", SemiJoinFilter::kOutside, SemiJoinBound::kNone},
    {"inside1", SemiJoinFilter::kInside1, SemiJoinBound::kNone},
    {"inside2_globalall", SemiJoinFilter::kInside2, SemiJoinBound::kGlobalAll},
};

TEST(ShardedParallelJoin, SemiJoinMatchesSerialAllFilters) {
  for (const SemiConfig& config : kSemiConfigs) {
    SCOPED_TRACE(config.name);
    SemiJoinOptions base;
    base.filter = config.filter;
    base.bound = config.bound;
    std::vector<JoinResult<2>> serial;
    JoinStats serial_stats;
    {
      RTree<2> tree1 = test::BuildPointTree(SetA());
      RTree<2> tree2 = test::BuildPointTree(SetB());
      DistanceSemiJoin<2> semi(tree1, tree2, base);
      serial = DrainPairs(&semi);
      ASSERT_EQ(semi.status(), JoinStatus::kExhausted);
      ASSERT_EQ(serial.size(), SetA().size());
      serial_stats = semi.stats();
    }
    for (const int shards : {2, 4, 7}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      RTree<2> tree1 = test::BuildPointTree(SetA());
      RTree<2> tree2 = test::BuildPointTree(SetB());
      SemiJoinOptions options = base;
      options.join.shards = shards;
      ShardedDistanceSemiJoin<2> semi(tree1, tree2, options);
      const auto sharded = DrainPairs(&semi);
      EXPECT_EQ(semi.status(), JoinStatus::kExhausted);
      ExpectSamePairs(serial, sharded);
      ExpectStatsIdentical(serial_stats, semi.stats());
    }
  }
}

// max_pairs counts distinct first objects, and the merge enforces it: the
// capped sharded stream is the serial one, ending kExhausted.
TEST(ShardedParallelJoin, SemiJoinMaxPairsCapMatchesSerial) {
  for (const SemiConfig& config : kSemiConfigs) {
    SCOPED_TRACE(config.name);
    SemiJoinOptions base;
    base.filter = config.filter;
    base.bound = config.bound;
    base.join.max_pairs = 250;
    std::vector<JoinResult<2>> serial;
    {
      RTree<2> tree1 = test::BuildPointTree(SetA());
      RTree<2> tree2 = test::BuildPointTree(SetB());
      DistanceSemiJoin<2> semi(tree1, tree2, base);
      serial = DrainPairs(&semi);
      ASSERT_EQ(semi.status(), JoinStatus::kExhausted);
      ASSERT_EQ(serial.size(), 250u);
    }
    for (const int shards : {2, 4, 7}) {
      SCOPED_TRACE("shards=" + std::to_string(shards));
      RTree<2> tree1 = test::BuildPointTree(SetA());
      RTree<2> tree2 = test::BuildPointTree(SetB());
      SemiJoinOptions options = base;
      options.join.shards = shards;
      ShardedDistanceSemiJoin<2> semi(tree1, tree2, options);
      EXPECT_GE(semi.effective_shards(), 2);
      const auto sharded = DrainPairs(&semi);
      EXPECT_EQ(semi.status(), JoinStatus::kExhausted);
      ExpectSamePairs(serial, sharded);
    }
  }
}

template <typename Engine>
std::vector<NeighborResult<2>> DrainNeighbors(Engine* nn, uint64_t cap = 0) {
  std::vector<NeighborResult<2>> out;
  NeighborResult<2> hit;
  while ((cap == 0 || out.size() < cap) && nn->Next(&hit)) {
    out.push_back(hit);
  }
  return out;
}

void ExpectSameNeighbors(const std::vector<NeighborResult<2>>& expected,
                         const std::vector<NeighborResult<2>>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].id, actual[i].id) << "hit " << i;
    ASSERT_EQ(expected[i].distance, actual[i].distance) << "hit " << i;
  }
}

void ExpectNnStatsIdentical(const IncNearestStats& serial,
                            const IncNearestStats& sharded) {
  EXPECT_EQ(serial.distance_calcs, sharded.distance_calcs);
  EXPECT_EQ(serial.queue_pushes, sharded.queue_pushes);
  EXPECT_EQ(serial.nodes_expanded, sharded.nodes_expanded);
  EXPECT_EQ(serial.neighbors_reported, sharded.neighbors_reported);
  // max_queue_size deliberately excluded (per-shard peaks).
}

TEST(ShardedParallelJoin, NearestNeighborMatchesSerialAllShardCounts) {
  const Point<2> query{37.0, 61.0};
  std::vector<NeighborResult<2>> serial;
  IncNearestStats serial_stats;
  {
    RTree<2> tree = test::BuildPointTree(SetA());
    IncNearestNeighbor<2> nn(tree, query);
    serial = DrainNeighbors(&nn);
    ASSERT_EQ(nn.status(), JoinStatus::kExhausted);
    ASSERT_EQ(serial.size(), SetA().size());
    serial_stats = nn.stats();
  }
  for (const int shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RTree<2> tree = test::BuildPointTree(SetA());
    IncNeighborOptions options;
    options.shards = shards;
    ShardedIncNearest<2> nn(tree, query, options);
    const auto sharded = DrainNeighbors(&nn);
    EXPECT_EQ(nn.status(), JoinStatus::kExhausted);
    ExpectSameNeighbors(serial, sharded);
    ExpectNnStatsIdentical(serial_stats, nn.stats());
  }
}

TEST(ShardedParallelJoin, BoundedQuantizedNearestMatchesSerial) {
  const Point<2> query{37.0, 61.0};
  IncNeighborOptions base;
  base.max_distance = 15.0;
  std::vector<NeighborResult<2>> serial;
  {
    RTree<2> tree =
        test::BuildPointTree(SetA(), 512, true, NodeEncoding::kQuantized);
    IncNearestNeighbor<2> nn(tree, query, base);
    serial = DrainNeighbors(&nn);
    ASSERT_EQ(nn.status(), JoinStatus::kExhausted);
  }
  for (const int shards : {2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RTree<2> tree =
        test::BuildPointTree(SetA(), 512, true, NodeEncoding::kQuantized);
    IncNeighborOptions options = base;
    options.shards = shards;
    ShardedIncNearest<2> nn(tree, query, options);
    const auto sharded = DrainNeighbors(&nn);
    EXPECT_EQ(nn.status(), JoinStatus::kExhausted);
    ExpectSameNeighbors(serial, sharded);
  }
}

// Farthest-first: the merge runs with the descending comparator — each
// shard's head upper-bounds its remainder.
TEST(ShardedParallelJoin, FarthestNeighborMatchesSerialAllShardCounts) {
  const Point<2> query{37.0, 61.0};
  std::vector<NeighborResult<2>> serial;
  IncNearestStats serial_stats;
  {
    RTree<2> tree = test::BuildPointTree(SetA());
    IncFarthestNeighbor<2> nn(tree, query);
    serial = DrainNeighbors(&nn);
    ASSERT_EQ(nn.status(), JoinStatus::kExhausted);
    ASSERT_EQ(serial.size(), SetA().size());
    serial_stats = nn.stats();
  }
  for (const int shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RTree<2> tree = test::BuildPointTree(SetA());
    IncNeighborOptions options;
    options.shards = shards;
    ShardedIncFarthest<2> nn(tree, query, options);
    const auto sharded = DrainNeighbors(&nn);
    EXPECT_EQ(nn.status(), JoinStatus::kExhausted);
    ExpectSameNeighbors(serial, sharded);
    ExpectNnStatsIdentical(serial_stats, nn.stats());
  }
}

// ---- dead-shard semantics ---------------------------------------------------

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void BuildTreeFile(const std::string& path,
                   const std::vector<Point<2>>& points) {
  RTreeOptions options;
  options.page_size = 512;
  options.file_path = path;
  RTree<2> tree(options);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(Rect<2>::FromPoint(points[i]), i);
  }
  ASSERT_TRUE(tree.Flush());
}

std::unique_ptr<RTree<2>> OpenFaulty(
    const std::string& path,
    const std::optional<storage::FaultInjectionOptions>& faults) {
  RTreeOptions options;
  options.page_size = 512;
  options.file_path = path;
  options.buffer_pages = 8;
  options.fault_injection = faults;
  options.retry = storage::RetryPolicy{};
  options.retry.backoff_us = 0;
  options.retry.max_attempts = 2;
  return RTree<2>::Open(options);
}

// One dead disk under a sharded join: the merge must emit a correctly
// ordered prefix of the serial stream (everything strictly below the failed
// shards' last produced keys) and then surface kIoError, exactly like a
// serial engine's I/O stop. SaveState must refuse the dead cursor.
TEST(ShardedParallelJoin, DeadShardYieldsSerialPrefixThenIoError) {
  const std::string path_a = TempPath("shard_dead_a.pages");
  const std::string path_b = TempPath("shard_dead_b.pages");
  BuildTreeFile(path_a, SetA());
  BuildTreeFile(path_b, SetB());

  std::vector<JoinResult<2>> clean;
  {
    auto ta = OpenFaulty(path_a, std::nullopt);
    auto tb = OpenFaulty(path_b, std::nullopt);
    ASSERT_NE(ta, nullptr);
    ASSERT_NE(tb, nullptr);
    DistanceJoinOptions options;
    options.max_pairs = 2000;
    DistanceJoin<2> join(*ta, *tb, options);
    clean = DrainPairs(&join);
    ASSERT_EQ(join.status(), JoinStatus::kExhausted);
  }

  storage::FaultInjectionOptions faults;
  faults.hard_read_after = 60;  // survives Open and the plan, dies mid-join
  auto ta = OpenFaulty(path_a, faults);
  auto tb = OpenFaulty(path_b, std::nullopt);
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  DistanceJoinOptions options;
  options.max_pairs = 2000;
  options.shards = 4;
  ShardedDistanceJoin<2> join(*ta, *tb, options);
  ASSERT_EQ(join.effective_shards(), 4);
  const auto partial = DrainPairs(&join);

  EXPECT_EQ(join.status(), JoinStatus::kIoError);
  ASSERT_LT(partial.size(), clean.size());
  ExpectSamePairs(
      std::vector<JoinResult<2>>(clean.begin(),
                                 clean.begin() +
                                     static_cast<ptrdiff_t>(partial.size())),
      partial);

  snapshot::Blob blob;
  EXPECT_FALSE(join.SaveState(&blob));
}

// ---- merge-level suspend/resume ---------------------------------------------

TEST(ShardedParallelJoin, SuspendSaveRestoreResumeIsIdentical) {
  // No max_pairs cap: stats identity holds at exhaustion (mid-stream, shard
  // lookahead legitimately runs a few expansions ahead of the serial stop).
  DistanceJoinOptions base;
  std::vector<JoinResult<2>> serial;
  JoinStats serial_stats;
  {
    RTree<2> tree1 = test::BuildPointTree(SetA());
    RTree<2> tree2 = test::BuildPointTree(SetB());
    DistanceJoin<2> join(tree1, tree2, base);
    serial = DrainPairs(&join);
    ASSERT_EQ(join.status(), JoinStatus::kExhausted);
    serial_stats = join.stats();
  }

  RTree<2> tree1 = test::BuildPointTree(SetA());
  RTree<2> tree2 = test::BuildPointTree(SetB());
  util::StopSource source;
  DistanceJoinOptions options = base;
  options.shards = 4;
  options.stop_token = source.token();
  ShardedDistanceJoin<2> join(tree1, tree2, options);
  ASSERT_EQ(join.effective_shards(), 4);

  std::vector<JoinResult<2>> stream = DrainPairs(&join, 100);
  ASSERT_EQ(stream.size(), 100u);
  source.RequestStop();
  JoinResult<2> pair;
  ASSERT_FALSE(join.Next(&pair));
  ASSERT_EQ(join.status(), JoinStatus::kSuspended);

  snapshot::Blob blob;
  ASSERT_TRUE(join.SaveState(&blob));

  // A freshly planned wrapper over the same trees adopts the snapshot; its
  // continuation must be stream- and stats-identical to an uninterrupted
  // run.
  DistanceJoinOptions resumed_options = base;
  resumed_options.shards = 4;
  ShardedDistanceJoin<2> resumed(tree1, tree2, resumed_options);
  ASSERT_EQ(resumed.effective_shards(), 4);
  snapshot::BlobReader reader(blob.data(), blob.size());
  ASSERT_TRUE(resumed.RestoreState(&reader));
  ASSERT_EQ(resumed.status(), JoinStatus::kSuspended);
  resumed.ResumeSuspended();
  ASSERT_EQ(resumed.status(), JoinStatus::kOk);

  for (const JoinResult<2>& rest : DrainPairs(&resumed)) {
    stream.push_back(rest);
  }
  EXPECT_EQ(resumed.status(), JoinStatus::kExhausted);
  ExpectSamePairs(serial, stream);
  // pairs_reported is wrapper-level and the snapshot carries the merge
  // cursor, so the resumed totals match the uninterrupted serial run except
  // node_io/node_accesses: the resumed wrapper re-reads pages the first
  // wrapper had already paid for (its buffer pool does not roll back), so
  // those two are compared as >= instead.
  EXPECT_EQ(serial_stats.pairs_reported, resumed.stats().pairs_reported);
  EXPECT_EQ(serial_stats.queue_pops, resumed.stats().queue_pops);
  EXPECT_EQ(serial_stats.nodes_expanded, resumed.stats().nodes_expanded);
  EXPECT_EQ(serial_stats.object_distance_calcs,
            resumed.stats().object_distance_calcs);
  EXPECT_GE(resumed.stats().node_accesses, serial_stats.node_accesses);
}

// Sharded NN wrappers keep the historical NN semantics: a suspended stream
// self-clears at the next Next().
TEST(ShardedParallelJoin, NearestAutoResumesAfterSuspension) {
  RTree<2> tree = test::BuildPointTree(SetA());
  util::StopSource source;
  IncNeighborOptions options;
  options.shards = 4;
  options.stop_token = source.token();
  ShardedIncNearest<2> nn(tree, {37.0, 61.0}, options);
  ASSERT_EQ(nn.effective_shards(), 4);

  std::vector<NeighborResult<2>> stream = DrainNeighbors(&nn, 50);
  ASSERT_EQ(stream.size(), 50u);
  source.RequestStop();
  NeighborResult<2> hit;
  ASSERT_FALSE(nn.Next(&hit));
  ASSERT_EQ(nn.status(), JoinStatus::kSuspended);
  EXPECT_TRUE(nn.suspended());
  source.Clear();
  for (const NeighborResult<2>& rest : DrainNeighbors(&nn)) {
    stream.push_back(rest);
  }
  EXPECT_EQ(nn.status(), JoinStatus::kExhausted);

  RTree<2> fresh = test::BuildPointTree(SetA());
  IncNearestNeighbor<2> serial(fresh, {37.0, 61.0});
  ExpectSameNeighbors(DrainNeighbors(&serial), stream);
}

// ---- JoinStats::MergeFrom ---------------------------------------------------

// MergeFrom is the one sanctioned stats aggregation (shard merge, bench
// reporting): every counter sums, max_queue_size takes the max. An ad-hoc
// field-by-field sum that treated the peak as additive would fail here.
TEST(JoinStatsMergeFrom, SumsCountersAndMaxesPeak) {
  JoinStats a;
  a.pairs_reported = 1;
  a.object_distance_calcs = 2;
  a.total_distance_calcs = 3;
  a.queue_pushes = 4;
  a.queue_pops = 5;
  a.max_queue_size = 600;
  a.node_io = 7;
  a.node_accesses = 8;
  a.nodes_expanded = 9;
  a.pruned_by_range = 10;
  a.pruned_by_estimate = 11;
  a.pruned_by_bound = 12;
  a.pruned_by_filter = 13;
  a.filtered_reported = 14;
  a.restarts = 15;
  a.io_retries = 16;
  a.checksum_failures = 17;
  a.spill_fallbacks = 18;
  a.batch_kernel_invocations = 19;
  a.parallel_expansions = 20;
  a.screened_candidates = 21;
  a.screen_survivors = 22;

  JoinStats b;
  b.pairs_reported = 100;
  b.object_distance_calcs = 101;
  b.total_distance_calcs = 102;
  b.queue_pushes = 103;
  b.queue_pops = 104;
  b.max_queue_size = 105;
  b.node_io = 106;
  b.node_accesses = 107;
  b.nodes_expanded = 108;
  b.pruned_by_range = 109;
  b.pruned_by_estimate = 110;
  b.pruned_by_bound = 111;
  b.pruned_by_filter = 112;
  b.filtered_reported = 113;
  b.restarts = 114;
  b.io_retries = 115;
  b.checksum_failures = 116;
  b.spill_fallbacks = 117;
  b.batch_kernel_invocations = 118;
  b.parallel_expansions = 119;
  b.screened_candidates = 120;
  b.screen_survivors = 121;

  a.MergeFrom(b);
  EXPECT_EQ(a.pairs_reported, 101u);
  EXPECT_EQ(a.object_distance_calcs, 103u);
  EXPECT_EQ(a.total_distance_calcs, 105u);
  EXPECT_EQ(a.queue_pushes, 107u);
  EXPECT_EQ(a.queue_pops, 109u);
  EXPECT_EQ(a.max_queue_size, 600u);  // max, not sum
  EXPECT_EQ(a.node_io, 113u);
  EXPECT_EQ(a.node_accesses, 115u);
  EXPECT_EQ(a.nodes_expanded, 117u);
  EXPECT_EQ(a.pruned_by_range, 119u);
  EXPECT_EQ(a.pruned_by_estimate, 121u);
  EXPECT_EQ(a.pruned_by_bound, 123u);
  EXPECT_EQ(a.pruned_by_filter, 125u);
  EXPECT_EQ(a.filtered_reported, 127u);
  EXPECT_EQ(a.restarts, 129u);
  EXPECT_EQ(a.io_retries, 131u);
  EXPECT_EQ(a.checksum_failures, 133u);
  EXPECT_EQ(a.spill_fallbacks, 135u);
  EXPECT_EQ(a.batch_kernel_invocations, 137u);
  EXPECT_EQ(a.parallel_expansions, 139u);
  EXPECT_EQ(a.screened_candidates, 141u);
  EXPECT_EQ(a.screen_survivors, 143u);

  // Merging a default (all-zero) stats must be the identity.
  const JoinStats snapshot = a;
  a.MergeFrom(JoinStats{});
  EXPECT_EQ(a.max_queue_size, snapshot.max_queue_size);
  EXPECT_EQ(a.pairs_reported, snapshot.pairs_reported);
}

}  // namespace
}  // namespace sdj
