// Incremental within-distance join (core/within_join.h): randomized
// cross-validation against the synchronized-traversal baseline
// (baseline/within_join.h) on raw and quantized pages, with and without
// exact distance ties; snapshot interchange with the DistanceJoin it
// adapts; and the cross-cutting behavior of the best-first core —
// serial/parallel/hybrid stream identity, suspend/resume, snapshots.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/within_join.h"
#include "core/distance_join.h"
#include "core/within_join.h"
#include "data/generators.h"
#include "join_test_util.h"
#include "rtree/rtree.h"
#include "util/stop_token.h"

namespace sdj {
namespace {

template <typename Engine>
std::vector<JoinResult<2>> Drain(Engine* join, uint64_t cap = ~0ull) {
  std::vector<JoinResult<2>> out;
  JoinResult<2> pair;
  while (out.size() < cap && join->Next(&pair)) out.push_back(pair);
  return out;
}

// Canonical order for set comparison: distances are bit-identical between
// engines (same MinDist kernel on the same rects), so exact sort + exact
// compare is valid; only the ordering of equal-distance pairs may differ.
void SortCanonical(std::vector<JoinResult<2>>* v) {
  std::sort(v->begin(), v->end(),
            [](const JoinResult<2>& a, const JoinResult<2>& b) {
              return std::tie(a.distance, a.id1, a.id2) <
                     std::tie(b.distance, b.id1, b.id2);
            });
}

void ExpectSameSet(std::vector<JoinResult<2>> a, std::vector<JoinResult<2>> b) {
  SortCanonical(&a);
  SortCanonical(&b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id1, b[i].id1) << i;
    EXPECT_EQ(a[i].id2, b[i].id2) << i;
    EXPECT_EQ(a[i].distance, b[i].distance) << i;
  }
}

void ExpectSameStream(const std::vector<JoinResult<2>>& a,
                      const std::vector<JoinResult<2>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id1, b[i].id1) << i;
    EXPECT_EQ(a[i].id2, b[i].id2) << i;
    EXPECT_EQ(a[i].distance, b[i].distance) << i;
  }
}

// Points snapped to the unit lattice: coincident points and many pairs at
// exactly equal distances, including pairs at exactly eps.
std::vector<Point<2>> Lattice(std::vector<Point<2>> points) {
  for (Point<2>& p : points) {
    p[0] = std::floor(p[0]);
    p[1] = std::floor(p[1]);
  }
  return points;
}

TEST(IncWithinJoin, MatchesBaselineOnRandomizedWorkloads) {
  for (const NodeEncoding encoding :
       {NodeEncoding::kRaw, NodeEncoding::kQuantized}) {
    for (const bool ties : {false, true}) {
      for (const uint32_t seed : {101u, 202u, 303u}) {
        auto pa = data::GenerateUniform(400, Rect<2>({0, 0}, {100, 100}), seed);
        auto pb =
            data::GenerateUniform(400, Rect<2>({0, 0}, {100, 100}), seed + 7);
        if (ties) {
          pa = Lattice(std::move(pa));
          pb = Lattice(std::move(pb));
        }
        RTree<2> tree1 = test::BuildPointTree(pa, 512, /*bulk=*/true, encoding);
        RTree<2> tree2 = test::BuildPointTree(pb, 512, /*bulk=*/true, encoding);
        for (const double eps : {0.5, 2.0, 8.0}) {
          for (const Metric metric :
               {Metric::kEuclidean, Metric::kManhattan, Metric::kChessboard}) {
            SCOPED_TRACE(testing::Message()
                         << (encoding == NodeEncoding::kRaw ? "raw" : "quant")
                         << (ties ? " lattice" : " uniform") << " seed "
                         << seed << " eps " << eps << " metric "
                         << static_cast<int>(metric));
            WithinJoinOptions options;
            options.epsilon = eps;
            options.metric = metric;
            IncWithinJoin<2> join(tree1, tree2, options);
            const auto incremental = Drain(&join);
            EXPECT_EQ(join.status(), JoinStatus::kExhausted);

            // The stream ascends and respects eps (inclusive).
            for (size_t i = 0; i < incremental.size(); ++i) {
              EXPECT_LE(incremental[i].distance, eps);
              if (i > 0) {
                EXPECT_GE(incremental[i].distance,
                          incremental[i - 1].distance);
              }
            }
            const auto reference =
                baseline::WithinJoinSorted(tree1, tree2, eps, metric);
            ExpectSameSet(incremental, reference);
          }
        }
      }
    }
  }
}

// A within snapshot is a DistanceJoin{Even, [0, eps]} snapshot: it restores
// into that join, and the join's restores into a within join, and either
// way the resumed engine finishes the uninterrupted stream with the same
// statistics.
TEST(IncWithinJoin, SnapshotsCrossRestoreWithDistanceJoinRestrictedToEps) {
  const auto pa = data::GenerateUniform(500, Rect<2>({0, 0}, {100, 100}), 41);
  const auto pb = data::GenerateUniform(500, Rect<2>({0, 0}, {100, 100}), 42);
  const double eps = 3.0;
  WithinJoinOptions within_options;
  within_options.epsilon = eps;
  within_options.num_threads = 1;
  DistanceJoinOptions join_options;
  join_options.node_policy = NodeProcessingPolicy::kEven;
  join_options.max_distance = eps;
  join_options.num_threads = 1;

  // Fresh trees per engine, so pool-derived counters start cold each time.
  const auto trees = [&] {
    return std::make_pair(test::BuildPointTree(pa), test::BuildPointTree(pb));
  };
  auto ref_trees = trees();
  IncWithinJoin<2> reference(ref_trees.first, ref_trees.second,
                             within_options);
  const auto expected = Drain(&reference);
  ASSERT_GT(expected.size(), 60u);

  const auto cross = [&](auto* saver, auto* restorer) {
    auto first = Drain(saver, 40);
    snapshot::Blob blob;
    ASSERT_TRUE(saver->SaveState(&blob));
    snapshot::BlobReader reader(blob.data(), blob.size());
    ASSERT_TRUE(restorer->RestoreState(&reader));
    const auto rest = Drain(restorer);
    first.insert(first.end(), rest.begin(), rest.end());
    ExpectSameStream(expected, first);
    EXPECT_EQ(restorer->status(), JoinStatus::kExhausted);
    test::ExpectStatsEqual(restorer->stats(), reference.stats());
  };
  {
    SCOPED_TRACE("within -> distance join");
    auto save_trees = trees();
    auto restore_trees = trees();
    IncWithinJoin<2> within(save_trees.first, save_trees.second,
                            within_options);
    DistanceJoin<2> join(restore_trees.first, restore_trees.second,
                         join_options);
    cross(&within, &join);
  }
  {
    SCOPED_TRACE("distance join -> within");
    auto save_trees = trees();
    auto restore_trees = trees();
    DistanceJoin<2> join(save_trees.first, save_trees.second, join_options);
    IncWithinJoin<2> within(restore_trees.first, restore_trees.second,
                            within_options);
    cross(&join, &within);
  }
}

TEST(IncWithinJoin, ParallelAndHybridStreamsAreIdentical) {
  const auto pa = data::GenerateUniform(600, Rect<2>({0, 0}, {100, 100}), 51);
  const auto pb = data::GenerateUniform(600, Rect<2>({0, 0}, {100, 100}), 52);
  RTree<2> tree1 = test::BuildPointTree(pa);
  RTree<2> tree2 = test::BuildPointTree(pb);

  WithinJoinOptions serial;
  serial.epsilon = 4.0;
  IncWithinJoin<2> reference(tree1, tree2, serial);
  const auto expected = Drain(&reference);
  const JoinStats expected_stats = reference.stats();
  ASSERT_GT(expected.size(), 0u);

  for (const bool hybrid : {false, true}) {
    for (const int threads : {1, 4}) {
      WithinJoinOptions options = serial;
      options.use_hybrid_queue = hybrid;
      options.num_threads = threads;
      IncWithinJoin<2> join(tree1, tree2, options);
      ExpectSameStream(expected, Drain(&join));
      const JoinStats& stats = join.stats();
      EXPECT_EQ(stats.pairs_reported, expected_stats.pairs_reported);
      EXPECT_EQ(stats.queue_pushes, expected_stats.queue_pushes);
      EXPECT_EQ(stats.total_distance_calcs,
                expected_stats.total_distance_calcs);
      EXPECT_EQ(stats.nodes_expanded, expected_stats.nodes_expanded);
    }
  }
}

TEST(IncWithinJoin, SuspendResumeAndSnapshotMatchUninterruptedRun) {
  const auto pa = data::GenerateUniform(500, Rect<2>({0, 0}, {100, 100}), 61);
  const auto pb = data::GenerateUniform(500, Rect<2>({0, 0}, {100, 100}), 62);
  RTree<2> tree1 = test::BuildPointTree(pa);
  RTree<2> tree2 = test::BuildPointTree(pb);

  WithinJoinOptions options;
  options.epsilon = 5.0;
  IncWithinJoin<2> reference(tree1, tree2, options);
  const auto expected = Drain(&reference);
  ASSERT_GT(expected.size(), 40u);

  // Cooperative suspension at a safe point, then resume.
  util::StopSource source;
  WithinJoinOptions stoppable = options;
  stoppable.stop_token = source.token();
  IncWithinJoin<2> join(tree1, tree2, stoppable);
  auto first = Drain(&join, 20);
  source.RequestStop();
  JoinResult<2> pair;
  EXPECT_FALSE(join.Next(&pair));
  EXPECT_EQ(join.status(), JoinStatus::kSuspended);

  // Snapshot the suspended engine and restore into a fresh one.
  snapshot::Blob blob;
  ASSERT_TRUE(join.SaveState(&blob));
  IncWithinJoin<2> resumed(tree1, tree2, options);
  snapshot::BlobReader reader(blob.data(), blob.size());
  ASSERT_TRUE(resumed.RestoreState(&reader));
  resumed.ResumeSuspended();
  auto rest = Drain(&resumed);

  first.insert(first.end(), rest.begin(), rest.end());
  ExpectSameStream(expected, first);
  EXPECT_EQ(resumed.status(), JoinStatus::kExhausted);
  const JoinStats& stats = resumed.stats();
  const JoinStats& ref_stats = reference.stats();
  EXPECT_EQ(stats.pairs_reported, ref_stats.pairs_reported);
  EXPECT_EQ(stats.queue_pushes, ref_stats.queue_pushes);
  EXPECT_EQ(stats.queue_pops, ref_stats.queue_pops);
  EXPECT_EQ(stats.total_distance_calcs, ref_stats.total_distance_calcs);
}

TEST(IncWithinJoin, RestoreRejectsMismatchedFingerprint) {
  const auto pa = data::GenerateUniform(100, Rect<2>({0, 0}, {100, 100}), 71);
  const auto pb = data::GenerateUniform(100, Rect<2>({0, 0}, {100, 100}), 72);
  RTree<2> tree1 = test::BuildPointTree(pa);
  RTree<2> tree2 = test::BuildPointTree(pb);

  WithinJoinOptions options;
  options.epsilon = 2.0;
  IncWithinJoin<2> join(tree1, tree2, options);
  snapshot::Blob blob;
  ASSERT_TRUE(join.SaveState(&blob));

  WithinJoinOptions other = options;
  other.epsilon = 3.0;  // different query → fingerprint mismatch
  IncWithinJoin<2> mismatched(tree1, tree2, other);
  snapshot::BlobReader reader(blob.data(), blob.size());
  EXPECT_FALSE(mismatched.RestoreState(&reader));
}

TEST(IncWithinJoin, EmptyTreeYieldsNothing) {
  RTree<2> empty = test::BuildPointTree({});
  const auto pb = data::GenerateUniform(50, Rect<2>({0, 0}, {100, 100}), 81);
  RTree<2> tree2 = test::BuildPointTree(pb);
  WithinJoinOptions options;
  options.epsilon = 10.0;
  IncWithinJoin<2> join(empty, tree2, options);
  JoinResult<2> pair;
  EXPECT_FALSE(join.Next(&pair));
  EXPECT_EQ(join.status(), JoinStatus::kExhausted);
}

}  // namespace
}  // namespace sdj
