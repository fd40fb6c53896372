// Golden-stream fixtures: the exact pair/neighbor streams and final
// statistics of every traversal engine, recorded from the pre-refactor
// implementations and committed under tests/golden/. Any engine change that
// alters a stream or a statistic fails here with a diff — the contract the
// best-first core refactor (DESIGN.md §13) is held to.
//
// Regenerate (after an INTENTIONAL stream/stat change only):
//   SDJ_UPDATE_GOLDEN=1 build/tests/sdjoin_tests --gtest_filter=GoldenStream*
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance_join.h"
#include "core/join_stats.h"
#include "core/semi_join.h"
#include "core/within_join.h"
#include "data/generators.h"
#include "geometry/distance.h"
#include "join_test_util.h"
#include "core/shard_merge.h"
#include "nn/inc_farthest.h"
#include "nn/inc_nearest.h"
#include "nn/sharded_neighbor.h"
#include "quadtree/quadtree.h"
#include "rtree/rtree.h"

namespace sdj {
namespace {

// Streams are capped so fixtures stay small; stats are taken after the cap
// (or exhaustion, whichever comes first).
constexpr uint64_t kPairCap = 300;
constexpr uint64_t kNeighborCap = 250;

bool UpdateMode() { return std::getenv("SDJ_UPDATE_GOLDEN") != nullptr; }

std::string GoldenPath(const std::string& name) {
  return std::string(SDJ_GOLDEN_DIR) + "/" + name + ".golden";
}

void AppendLine(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
  out->push_back('\n');
}

// Every JoinStats counter in table order, except the ones the fixtures
// never pinned: I/O retries and checksum failures (fault-dependent) and the
// two screening counters (screening on/off must share one fixture).
void AppendStats(std::string* out, const JoinStats& s) {
  for (const JoinStatField& f : kJoinStatFields) {
    const std::string_view name = f.name;
    if (name == "io_retries" || name == "checksum_failures" ||
        name == "screened_candidates" || name == "screen_survivors") {
      continue;
    }
    AppendLine(out, "stat %s %llu", f.name,
               static_cast<unsigned long long>(s.*f.member));
  }
}

// Compares `actual` against the committed fixture (or rewrites it in update
// mode). On mismatch, reports the first differing line.
void CheckGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (UpdateMode()) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing fixture " << path
                         << " (run with SDJ_UPDATE_GOLDEN=1 to record)";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();
  if (expected == actual) return;
  std::istringstream e(expected);
  std::istringstream a(actual);
  std::string el;
  std::string al;
  int line = 0;
  while (true) {
    ++line;
    const bool eok = static_cast<bool>(std::getline(e, el));
    const bool aok = static_cast<bool>(std::getline(a, al));
    if (!eok && !aok) break;
    if (el != al || eok != aok) {
      FAIL() << name << " diverges at line " << line << "\n  golden: "
             << (eok ? el : "<eof>") << "\n  actual: " << (aok ? al : "<eof>");
    }
    if (!eok || !aok) break;
  }
  FAIL() << name << ": content differs (lengths " << expected.size() << " vs "
         << actual.size() << ")";
}

const std::vector<Point<2>>& SetA() {
  static const auto* points = new std::vector<Point<2>>(
      data::GenerateUniform(600, Rect<2>({0, 0}, {100, 100}), 7001));
  return *points;
}

const std::vector<Point<2>>& SetB() {
  static const auto* points = new std::vector<Point<2>>(
      data::GenerateUniform(600, Rect<2>({0, 0}, {100, 100}), 7002));
  return *points;
}

const char* MetricName(Metric m) {
  switch (m) {
    case Metric::kEuclidean:
      return "l2";
    case Metric::kManhattan:
      return "l1";
    case Metric::kChessboard:
      return "linf";
  }
  return "?";
}

template <typename Engine>
std::string DrainJoin(Engine* join, uint64_t cap) {
  std::string out;
  JoinResult<2> pair;
  uint64_t produced = 0;
  while (produced < cap && join->Next(&pair)) {
    AppendLine(&out, "pair %llu %llu %.17g",
               static_cast<unsigned long long>(pair.id1),
               static_cast<unsigned long long>(pair.id2), pair.distance);
    ++produced;
  }
  AppendLine(&out, "status %s", JoinStatusName(join->status()));
  AppendStats(&out, join->stats());
  return out;
}

void RunJoinConfig(const std::string& name, const DistanceJoinOptions& options) {
  RTree<2> tree1 = test::BuildPointTree(SetA());
  RTree<2> tree2 = test::BuildPointTree(SetB());
  DistanceJoin<2> join(tree1, tree2, options);
  CheckGolden(name, DrainJoin(&join, kPairCap));
}

TEST(GoldenStream, DistanceJoinMatrix) {
  // Metrics x queue types x thread counts on the Simultaneous policy (the
  // one with the sharded classify), plus each remaining node policy and the
  // reverse ordering once.
  for (const Metric metric :
       {Metric::kEuclidean, Metric::kManhattan, Metric::kChessboard}) {
    for (const bool hybrid : {false, true}) {
      for (const int threads : {1, 4}) {
        DistanceJoinOptions options;
        options.metric = metric;
        options.node_policy = NodeProcessingPolicy::kSimultaneous;
        options.use_hybrid_queue = hybrid;
        options.num_threads = threads;
        RunJoinConfig(std::string("join_") + MetricName(metric) + "_" +
                          (hybrid ? "hybrid" : "mem") + "_t" +
                          std::to_string(threads),
                      options);
      }
    }
  }
  for (const NodeProcessingPolicy policy :
       {NodeProcessingPolicy::kBasic, NodeProcessingPolicy::kEven,
        NodeProcessingPolicy::kDeferredLeaf}) {
    DistanceJoinOptions options;
    options.node_policy = policy;
    RunJoinConfig("join_policy" +
                      std::to_string(static_cast<int>(policy)) + "_mem_t1",
                  options);
  }
  {
    DistanceJoinOptions options;
    options.reverse_order = true;
    RunJoinConfig("join_reverse_mem_t1", options);
  }
}

TEST(GoldenStream, DistanceJoinObjectRects) {
  // Object-bounding-rectangle mode: exact distances via callback.
  DistanceJoinOptions options;
  options.exact_object_distance = [](ObjectId a, ObjectId b) {
    return Dist(SetA()[a], SetB()[b], Metric::kEuclidean);
  };
  RunJoinConfig("join_obr_mem_t1", options);
}

TEST(GoldenStream, SemiJoinMatrix) {
  struct Config {
    const char* name;
    SemiJoinFilter filter;
    SemiJoinBound bound;
    bool hybrid;
  };
  const Config configs[] = {
      {"semi_outside_mem", SemiJoinFilter::kOutside, SemiJoinBound::kNone,
       false},
      {"semi_inside1_mem", SemiJoinFilter::kInside1, SemiJoinBound::kNone,
       false},
      {"semi_inside2_globalall_mem", SemiJoinFilter::kInside2,
       SemiJoinBound::kGlobalAll, false},
      {"semi_inside2_globalall_hybrid", SemiJoinFilter::kInside2,
       SemiJoinBound::kGlobalAll, true},
  };
  for (const Config& config : configs) {
    RTree<2> tree1 = test::BuildPointTree(SetA());
    RTree<2> tree2 = test::BuildPointTree(SetB());
    SemiJoinOptions options;
    options.filter = config.filter;
    options.bound = config.bound;
    options.join.use_hybrid_queue = config.hybrid;
    DistanceSemiJoin<2> semi(tree1, tree2, options);
    CheckGolden(config.name, DrainJoin(&semi, kPairCap));
  }
}

// Quantized trees + a finite cutoff engage the integer code screen
// (DESIGN.md §17). One fixture per metric pins the screened stream AND
// stats; screening off and every SIMD dispatch tier must then reproduce the
// fixture byte-for-byte — the screen may only skip decode/kernel work,
// never change what the engine reports.
TEST(GoldenStream, QuantizedScreenedJoin) {
  for (const Metric metric :
       {Metric::kEuclidean, Metric::kManhattan, Metric::kChessboard}) {
    const std::string name =
        std::string("join_quant_screen_") + MetricName(metric);
    std::string reference;
    for (const bool screen : {true, false}) {
      for (const simd::Isa isa : simd::SupportedIsas()) {
        SCOPED_TRACE(std::string(MetricName(metric)) +
                     (screen ? " screen=on " : " screen=off ") +
                     simd::IsaName(isa));
        RTree<2> tree1 = test::BuildPointTree(SetA(), 512, /*bulk=*/true,
                                              NodeEncoding::kQuantized);
        RTree<2> tree2 = test::BuildPointTree(SetB(), 512, /*bulk=*/true,
                                              NodeEncoding::kQuantized);
        DistanceJoinOptions options;
        options.metric = metric;
        options.max_distance = 3.0;
        options.screen_codes = screen;
        options.kernel_isa = isa;
        DistanceJoin<2> join(tree1, tree2, options);
        const std::string actual = DrainJoin(&join, kPairCap);
        if (reference.empty()) {
          reference = actual;
          CheckGolden(name, reference);
        } else {
          ASSERT_EQ(actual, reference);
        }
      }
    }
  }
}

TEST(GoldenStream, QuantizedScreenedWithinJoin) {
  const std::string name = "within_quant_screen_l2";
  std::string reference;
  for (const bool screen : {true, false}) {
    for (const simd::Isa isa : simd::SupportedIsas()) {
      SCOPED_TRACE(std::string(screen ? "screen=on " : "screen=off ") +
                   simd::IsaName(isa));
      RTree<2> tree1 = test::BuildPointTree(SetA(), 512, /*bulk=*/true,
                                            NodeEncoding::kQuantized);
      RTree<2> tree2 = test::BuildPointTree(SetB(), 512, /*bulk=*/true,
                                            NodeEncoding::kQuantized);
      WithinJoinOptions options;
      options.epsilon = 2.0;
      options.screen_codes = screen;
      options.kernel_isa = isa;
      IncWithinJoin<2> join(tree1, tree2, options);
      const std::string actual = DrainJoin(&join, kPairCap);
      if (reference.empty()) {
        reference = actual;
        CheckGolden(name, reference);
      } else {
        ASSERT_EQ(actual, reference);
      }
    }
  }
}

// ---- the stateful acceptance ladder ------------------------------------------
//
// Configurations whose candidate classification consults engine state —
// estimation, Dmin, windows, object predicates, semi-join filters and
// bounds, restarts — each pinned as one "config" section of a group
// fixture, so a change to any rung of the ladder or to who charges which
// counter fails here.

template <typename Engine>
std::string Section(const std::string& name, Engine* join) {
  return "config " + name + "\n" + DrainJoin(join, kPairCap);
}

TEST(GoldenStream, LadderEstimation) {
  // Guaranteed, aggressive and reverse (rising-minimum) estimation, under
  // the serial-expansion Even policy and the plane-sweep Simultaneous one.
  struct Mode {
    const char* name;
    bool aggressive;
    bool reverse;
  };
  const Mode modes[] = {{"guaranteed", false, false},
                        {"aggressive", true, false},
                        {"reverse", false, true}};
  std::string actual;
  for (const Mode& mode : modes) {
    for (const NodeProcessingPolicy policy :
         {NodeProcessingPolicy::kEven, NodeProcessingPolicy::kSimultaneous}) {
      RTree<2> tree1 = test::BuildPointTree(SetA());
      RTree<2> tree2 = test::BuildPointTree(SetB());
      DistanceJoinOptions options;
      options.node_policy = policy;
      options.max_pairs = 150;
      options.estimate_max_distance = true;
      options.aggressive_estimation = mode.aggressive;
      options.reverse_order = mode.reverse;
      DistanceJoin<2> join(tree1, tree2, options);
      actual += Section(std::string(mode.name) + "_policy" +
                            std::to_string(static_cast<int>(policy)),
                        &join);
    }
  }
  CheckGolden("ladder_estimation", actual);
}

TEST(GoldenStream, LadderRangeAndWindows) {
  // A [2, 4] range with spatial windows on both relations. 8 KB pages give
  // expansions of more than a hundred candidates, so the 4-thread runs
  // classify on the pool (parallel_expansions > 0); every other line must
  // match the serial run's.
  std::string actual;
  for (const NodeProcessingPolicy policy :
       {NodeProcessingPolicy::kEven, NodeProcessingPolicy::kSimultaneous}) {
    for (const int threads : {1, 4}) {
      RTree<2> tree1 = test::BuildPointTree(SetA(), 8192);
      RTree<2> tree2 = test::BuildPointTree(SetB(), 8192);
      DistanceJoinOptions options;
      options.node_policy = policy;
      options.min_distance = 2.0;
      options.max_distance = 4.0;
      options.num_threads = threads;
      JoinFilters<2> filters;
      filters.window1 = Rect<2>({10, 10}, {70, 80});
      filters.window2 = Rect<2>({20, 0}, {90, 60});
      DistanceJoin<2> join(tree1, tree2, options, filters);
      actual += Section("policy" + std::to_string(static_cast<int>(policy)) +
                            "_t" + std::to_string(threads),
                        &join);
      if (threads > 1) {
        EXPECT_GT(join.stats().parallel_expansions, 0u);
      }
    }
  }
  CheckGolden("ladder_range_windows", actual);
}

TEST(GoldenStream, LadderObjectFilters) {
  // Attribute predicates on both relations (a plain join), and on the first
  // relation of a bounded semi-join (the only side bounds allow).
  const auto keep1 = [](ObjectId id) { return id % 3 != 0; };
  const auto keep2 = [](ObjectId id) { return id % 2 == 0; };
  std::string actual;
  for (const NodeProcessingPolicy policy :
       {NodeProcessingPolicy::kEven, NodeProcessingPolicy::kSimultaneous}) {
    RTree<2> tree1 = test::BuildPointTree(SetA());
    RTree<2> tree2 = test::BuildPointTree(SetB());
    DistanceJoinOptions options;
    options.node_policy = policy;
    JoinFilters<2> filters;
    filters.object_filter1 = keep1;
    filters.object_filter2 = keep2;
    DistanceJoin<2> join(tree1, tree2, options, filters);
    actual += Section(
        "join_policy" + std::to_string(static_cast<int>(policy)), &join);
  }
  {
    RTree<2> tree1 = test::BuildPointTree(SetA());
    RTree<2> tree2 = test::BuildPointTree(SetB());
    SemiJoinOptions options;
    options.bound = SemiJoinBound::kGlobalAll;
    JoinFilters<2> filters;
    filters.object_filter1 = keep1;
    DistanceSemiJoin<2> semi(tree1, tree2, options, filters);
    actual += Section("semi_globalall", &semi);
  }
  CheckGolden("ladder_object_filters", actual);
}

const char* BoundName(SemiJoinBound bound) {
  switch (bound) {
    case SemiJoinBound::kNone:
      return "none";
    case SemiJoinBound::kLocal:
      return "local";
    case SemiJoinBound::kGlobalNodes:
      return "globalnodes";
    case SemiJoinBound::kGlobalAll:
      return "globalall";
  }
  return "?";
}

TEST(GoldenStream, LadderSemiBounds) {
  // Inside2 under every d_max bound strategy and both expansion shapes,
  // then semi-join estimation (Section 2.3's variant) with either Inside
  // filter.
  std::string actual;
  for (const SemiJoinBound bound :
       {SemiJoinBound::kNone, SemiJoinBound::kLocal,
        SemiJoinBound::kGlobalNodes, SemiJoinBound::kGlobalAll}) {
    for (const NodeProcessingPolicy policy :
         {NodeProcessingPolicy::kEven, NodeProcessingPolicy::kSimultaneous}) {
      RTree<2> tree1 = test::BuildPointTree(SetA());
      RTree<2> tree2 = test::BuildPointTree(SetB());
      SemiJoinOptions options;
      options.filter = SemiJoinFilter::kInside2;
      options.bound = bound;
      options.join.node_policy = policy;
      DistanceSemiJoin<2> semi(tree1, tree2, options);
      actual += Section(std::string("inside2_") + BoundName(bound) +
                            "_policy" +
                            std::to_string(static_cast<int>(policy)),
                        &semi);
    }
  }
  for (const SemiJoinFilter filter :
       {SemiJoinFilter::kInside1, SemiJoinFilter::kInside2}) {
    RTree<2> tree1 = test::BuildPointTree(SetA());
    RTree<2> tree2 = test::BuildPointTree(SetB());
    SemiJoinOptions options;
    options.filter = filter;
    options.join.max_pairs = 150;
    options.join.estimate_max_distance = true;
    DistanceSemiJoin<2> semi(tree1, tree2, options);
    actual += Section(std::string("estimate_") +
                          (filter == SemiJoinFilter::kInside1 ? "inside1"
                                                              : "inside2"),
                      &semi);
  }
  CheckGolden("ladder_semi", actual);
}

TEST(GoldenStream, LadderQuadtree) {
  // Quadtree regions are not minimal, so the semi-join bounds take the
  // containment-only d_max; Deferred is the policy the paper recommends
  // for such structures (Section 2.2.2).
  const Rect<2> world({0, 0}, {100, 100});
  QuadtreeOptions tree_options;
  tree_options.page_size = 512;
  const auto build = [&](const std::vector<Point<2>>& points) {
    auto tree = std::make_unique<PointQuadtree<2>>(world, tree_options);
    for (size_t i = 0; i < points.size(); ++i) tree->Insert(points[i], i);
    return tree;
  };
  std::string actual;
  {
    const auto tree1 = build(SetA());
    const auto tree2 = build(SetB());
    DistanceJoinOptions options;
    options.node_policy = NodeProcessingPolicy::kDeferredLeaf;
    DistanceJoin<2, PointQuadtree<2>> join(*tree1, *tree2, options);
    actual += Section("join_deferred", &join);
  }
  for (const SemiJoinBound bound :
       {SemiJoinBound::kLocal, SemiJoinBound::kGlobalAll}) {
    const auto tree1 = build(SetA());
    const auto tree2 = build(SetB());
    SemiJoinOptions options;
    options.bound = bound;
    options.join.node_policy = NodeProcessingPolicy::kDeferredLeaf;
    DistanceSemiJoin<2, PointQuadtree<2>> semi(*tree1, *tree2, options);
    actual += Section(std::string("semi_deferred_") + BoundName(bound), &semi);
  }
  CheckGolden("ladder_quadtree", actual);
}

// Four points near the origin per side, 600 more far away in one shared
// square: aggressive estimation credits the near leaf pair with an average
// leaf's worth of results, tightens Dmax to that pair's d_max, runs out of
// results before the cap and must restart once without estimation
// (Section 2.2.4).
std::vector<Point<2>> RestartSet(double near_offset, uint64_t seed) {
  std::vector<Point<2>> points;
  for (const double dx : {0.0, 1.0}) {
    for (const double dy : {0.0, 1.0}) {
      points.push_back({dx + near_offset, dy + near_offset});
    }
  }
  for (const Point<2>& p : data::GenerateUniform(
           600, Rect<2>({1000, 1000}, {2000, 2000}), seed)) {
    points.push_back(p);
  }
  return points;
}

TEST(GoldenStream, LadderRestart) {
  const std::vector<Point<2>> a = RestartSet(0.0, 7003);
  const std::vector<Point<2>> b = RestartSet(0.5, 7004);
  std::string actual;
  {
    RTree<2> tree1 = test::BuildPointTree(a, 512, /*bulk=*/false);
    RTree<2> tree2 = test::BuildPointTree(b, 512, /*bulk=*/false);
    DistanceJoinOptions options;
    options.max_pairs = 17;
    options.estimate_max_distance = true;
    options.aggressive_estimation = true;
    DistanceJoin<2> join(tree1, tree2, options);
    actual += Section("join", &join);
    EXPECT_EQ(join.stats().restarts, 1u);
  }
  {
    RTree<2> tree1 = test::BuildPointTree(a, 512, /*bulk=*/false);
    RTree<2> tree2 = test::BuildPointTree(b, 512, /*bulk=*/false);
    SemiJoinOptions options;
    options.join.max_pairs = 6;
    options.join.estimate_max_distance = true;
    options.join.aggressive_estimation = true;
    DistanceSemiJoin<2> semi(tree1, tree2, options);
    actual += Section("semi", &semi);
    EXPECT_EQ(semi.stats().restarts, 1u);
  }
  CheckGolden("ladder_restart", actual);
}

void AppendNnStats(std::string* out, const IncNearestStats& s) {
  AppendLine(out, "stat distance_calcs %llu",
             static_cast<unsigned long long>(s.distance_calcs));
  AppendLine(out, "stat queue_pushes %llu",
             static_cast<unsigned long long>(s.queue_pushes));
  AppendLine(out, "stat max_queue_size %llu",
             static_cast<unsigned long long>(s.max_queue_size));
  AppendLine(out, "stat nodes_expanded %llu",
             static_cast<unsigned long long>(s.nodes_expanded));
  AppendLine(out, "stat neighbors_reported %llu",
             static_cast<unsigned long long>(s.neighbors_reported));
}

template <typename Engine>
std::string DrainNeighbors(Engine* nn, uint64_t cap) {
  std::string out;
  typename Engine::Result hit;
  uint64_t produced = 0;
  while (produced < cap && nn->Next(&hit)) {
    AppendLine(&out, "hit %llu %.17g", static_cast<unsigned long long>(hit.id),
               hit.distance);
    ++produced;
  }
  AppendNnStats(&out, nn->stats());
  return out;
}

TEST(GoldenStream, IncNearest) {
  for (const Metric metric :
       {Metric::kEuclidean, Metric::kManhattan, Metric::kChessboard}) {
    RTree<2> tree = test::BuildPointTree(SetA());
    IncNearestNeighbor<2> nn(tree, {37.0, 61.0}, metric);
    CheckGolden(std::string("nn_nearest_") + MetricName(metric),
                DrainNeighbors(&nn, kNeighborCap));
  }
}

// Bounded nearest search on a quantized tree: the enqueue-time radius prune
// plus the code screen. As above, one fixture; screening off and every ISA
// tier must match it exactly.
TEST(GoldenStream, QuantizedScreenedNearest) {
  const std::string name = "nn_quant_screen_l2";
  std::string reference;
  for (const bool screen : {true, false}) {
    for (const simd::Isa isa : simd::SupportedIsas()) {
      SCOPED_TRACE(std::string(screen ? "screen=on " : "screen=off ") +
                   simd::IsaName(isa));
      RTree<2> tree = test::BuildPointTree(SetA(), 512, /*bulk=*/true,
                                           NodeEncoding::kQuantized);
      IncNeighborOptions options;
      options.max_distance = 15.0;
      options.screen_codes = screen;
      options.kernel_isa = isa;
      IncNearestNeighbor<2> nn(tree, {37.0, 61.0}, options);
      const std::string actual = DrainNeighbors(&nn, kNeighborCap);
      if (reference.empty()) {
        reference = actual;
        CheckGolden(name, reference);
      } else {
        ASSERT_EQ(actual, reference);
      }
    }
  }
}

TEST(GoldenStream, IncFarthest) {
  for (const Metric metric :
       {Metric::kEuclidean, Metric::kManhattan, Metric::kChessboard}) {
    RTree<2> tree = test::BuildPointTree(SetA());
    IncFarthestNeighbor<2> nn(tree, {37.0, 61.0}, metric);
    CheckGolden(std::string("nn_farthest_") + MetricName(metric),
                DrainNeighbors(&nn, kNeighborCap));
  }
}

// ---- sharded execution (DESIGN.md §18) --------------------------------------
//
// One fixture per policy x encoding, recorded from the SERIAL engine; every
// tested shard count must reproduce it byte-for-byte. Streams only (plus the
// terminal status): mid-stream statistics depend on how far the bounded
// shard lookahead ran ahead, which is scheduling-dependent by design — the
// stats identity at exhaustion is pinned by tests/shard_stream_test.cc.

template <typename Engine>
std::string DrainJoinStream(Engine* join, uint64_t cap) {
  std::string out;
  JoinResult<2> pair;
  uint64_t produced = 0;
  while (produced < cap && join->Next(&pair)) {
    AppendLine(&out, "pair %llu %llu %.17g",
               static_cast<unsigned long long>(pair.id1),
               static_cast<unsigned long long>(pair.id2), pair.distance);
    ++produced;
  }
  AppendLine(&out, "status %s", JoinStatusName(join->status()));
  return out;
}

template <typename Engine>
std::string DrainNeighborStream(Engine* nn, uint64_t cap) {
  std::string out;
  typename Engine::Result hit;
  uint64_t produced = 0;
  while (produced < cap && nn->Next(&hit)) {
    AppendLine(&out, "hit %llu %.17g", static_cast<unsigned long long>(hit.id),
               hit.distance);
    ++produced;
  }
  return out;
}

constexpr int kGoldenShardCounts[] = {1, 2, 4, 7};

const char* EncodingName(NodeEncoding encoding) {
  return encoding == NodeEncoding::kRaw ? "raw" : "quant";
}

TEST(GoldenStream, ShardedJoinMatrix) {
  for (const NodeEncoding encoding :
       {NodeEncoding::kRaw, NodeEncoding::kQuantized}) {
    const std::string name = std::string("shard_join_") + EncodingName(encoding);
    std::string reference;
    {
      RTree<2> tree1 = test::BuildPointTree(SetA(), 512, true, encoding);
      RTree<2> tree2 = test::BuildPointTree(SetB(), 512, true, encoding);
      DistanceJoin<2> join(tree1, tree2, DistanceJoinOptions{});
      reference = DrainJoinStream(&join, kPairCap);
      CheckGolden(name, reference);
    }
    for (const int shards : kGoldenShardCounts) {
      SCOPED_TRACE(name + " shards=" + std::to_string(shards));
      RTree<2> tree1 = test::BuildPointTree(SetA(), 512, true, encoding);
      RTree<2> tree2 = test::BuildPointTree(SetB(), 512, true, encoding);
      DistanceJoinOptions options;
      options.shards = shards;
      ShardedDistanceJoin<2> join(tree1, tree2, options);
      ASSERT_EQ(DrainJoinStream(&join, kPairCap), reference);
    }
  }
}

TEST(GoldenStream, ShardedWithinMatrix) {
  for (const NodeEncoding encoding :
       {NodeEncoding::kRaw, NodeEncoding::kQuantized}) {
    const std::string name =
        std::string("shard_within_") + EncodingName(encoding);
    std::string reference;
    WithinJoinOptions base;
    base.epsilon = 2.0;
    {
      RTree<2> tree1 = test::BuildPointTree(SetA(), 512, true, encoding);
      RTree<2> tree2 = test::BuildPointTree(SetB(), 512, true, encoding);
      IncWithinJoin<2> join(tree1, tree2, base);
      reference = DrainJoinStream(&join, kPairCap);
      CheckGolden(name, reference);
    }
    for (const int shards : kGoldenShardCounts) {
      SCOPED_TRACE(name + " shards=" + std::to_string(shards));
      RTree<2> tree1 = test::BuildPointTree(SetA(), 512, true, encoding);
      RTree<2> tree2 = test::BuildPointTree(SetB(), 512, true, encoding);
      WithinJoinOptions options = base;
      options.shards = shards;
      ShardedWithinJoin<2> join(tree1, tree2, options);
      ASSERT_EQ(DrainJoinStream(&join, kPairCap), reference);
    }
  }
}

TEST(GoldenStream, ShardedSemiMatrix) {
  for (const NodeEncoding encoding :
       {NodeEncoding::kRaw, NodeEncoding::kQuantized}) {
    const std::string name = std::string("shard_semi_") + EncodingName(encoding);
    std::string reference;
    SemiJoinOptions base;
    base.filter = SemiJoinFilter::kInside2;
    base.bound = SemiJoinBound::kGlobalAll;
    {
      RTree<2> tree1 = test::BuildPointTree(SetA(), 512, true, encoding);
      RTree<2> tree2 = test::BuildPointTree(SetB(), 512, true, encoding);
      DistanceSemiJoin<2> semi(tree1, tree2, base);
      reference = DrainJoinStream(&semi, kPairCap);
      CheckGolden(name, reference);
    }
    for (const int shards : kGoldenShardCounts) {
      SCOPED_TRACE(name + " shards=" + std::to_string(shards));
      RTree<2> tree1 = test::BuildPointTree(SetA(), 512, true, encoding);
      RTree<2> tree2 = test::BuildPointTree(SetB(), 512, true, encoding);
      SemiJoinOptions options = base;
      options.join.shards = shards;
      ShardedDistanceSemiJoin<2> semi(tree1, tree2, options);
      ASSERT_EQ(DrainJoinStream(&semi, kPairCap), reference);
    }
  }
}

TEST(GoldenStream, ShardedNeighborMatrix) {
  const Point<2> query{37.0, 61.0};
  for (const NodeEncoding encoding :
       {NodeEncoding::kRaw, NodeEncoding::kQuantized}) {
    {
      const std::string name = std::string("shard_nn_") + EncodingName(encoding);
      std::string reference;
      {
        RTree<2> tree = test::BuildPointTree(SetA(), 512, true, encoding);
        IncNearestNeighbor<2> nn(tree, query);
        reference = DrainNeighborStream(&nn, kNeighborCap);
        CheckGolden(name, reference);
      }
      for (const int shards : kGoldenShardCounts) {
        SCOPED_TRACE(name + " shards=" + std::to_string(shards));
        RTree<2> tree = test::BuildPointTree(SetA(), 512, true, encoding);
        IncNeighborOptions options;
        options.shards = shards;
        ShardedIncNearest<2> nn(tree, query, options);
        ASSERT_EQ(DrainNeighborStream(&nn, kNeighborCap), reference);
      }
    }
    {
      const std::string name =
          std::string("shard_far_") + EncodingName(encoding);
      std::string reference;
      {
        RTree<2> tree = test::BuildPointTree(SetA(), 512, true, encoding);
        IncFarthestNeighbor<2> nn(tree, query);
        reference = DrainNeighborStream(&nn, kNeighborCap);
        CheckGolden(name, reference);
      }
      for (const int shards : kGoldenShardCounts) {
        SCOPED_TRACE(name + " shards=" + std::to_string(shards));
        RTree<2> tree = test::BuildPointTree(SetA(), 512, true, encoding);
        IncNeighborOptions options;
        options.shards = shards;
        ShardedIncFarthest<2> nn(tree, query, options);
        ASSERT_EQ(DrainNeighborStream(&nn, kNeighborCap), reference);
      }
    }
  }
}

}  // namespace
}  // namespace sdj
