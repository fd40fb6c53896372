// Self-test of the harness itself: the percentile math, that the oracle
// checks reject perturbed streams, and that a query over storage that stops
// serving reads counts as failed.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/distance_join.h"
#include "core/semi_join.h"
#include "nn/inc_nearest.h"
#include "oracle.h"
#include "workload.h"

namespace perfbench {

namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted on purpose
  Check(Near(Percentile(hundred, 0.5), 50.5), "p50 of 1..100 is 50.5");
  Check(Near(Percentile(hundred, 0.99), 99.01), "p99 of 1..100 is 99.01");
  Check(Near(Percentile(hundred, 0.0), 1.0) && Near(Percentile(hundred, 1.0), 100.0),
        "p0 and p100 are the extremes");
  Check(Near(Percentile({1, 2, 3, 4}, 0.9), 3.7), "p90 of {1,2,3,4} is 3.7");
  Check(Near(Percentile({7}, 0.99), 7.0), "a single sample is every percentile");
  Check(Percentile({}, 0.5) == 0.0, "no samples give 0");
  Check(Near(Median({3, 1, 2}), 2.0), "median of three");
  Check(Near(GeoMean({1, 10, 100}), 10.0), "geometric mean of 1, 10, 100 is 10");
  Check(GeoMean({}) == 0.0 && GeoMean({2, 0}) == 0.0,
        "the geometric mean of nothing, or of a zero, is 0");
}

void TestInputs() {
  const Relations a = MakeRelations(7, 0.05);
  const Relations b = MakeRelations(7, 0.05);
  Check(std::memcmp(a.roads.data(), b.roads.data(),
                    a.roads.size() * sizeof(a.roads[0])) == 0,
        "the same seed gives the same inputs");
}

std::unique_ptr<sdj::RTree<2>> Tree(const std::vector<sdj::Point<2>>& points,
                                    sdj::RTreeOptions options) {
  auto tree = std::make_unique<sdj::RTree<2>>(options);
  for (size_t i = 0; i < points.size(); ++i) {
    tree->Insert(sdj::Rect<2>::FromPoint(points[i]), i);
  }
  return tree;
}

template <typename Engine>
std::vector<StreamItem> Drain(Engine* engine, size_t limit) {
  std::vector<StreamItem> out;
  typename Engine::Result r;
  while (out.size() < limit && engine->Next(&r)) out.push_back(ToItem(r));
  return out;
}

void TestOracles() {
  const Relations rel = MakeRelations(3, 0.02);
  const auto a = Tree(rel.water, sdj::RTreeOptions{});
  const auto b = Tree(rel.roads, sdj::RTreeOptions{});

  sdj::DistanceJoin<2> join(*a, *b, sdj::DistanceJoinOptions{});
  const std::vector<StreamItem> got = Drain(&join, 500);
  const std::vector<StreamItem> want =
      WithinOracle(*a, *b, got.back().distance, sdj::Metric::kEuclidean);
  Check(got.size() == 500 && CompareByTieGroups(got, want, true).empty(),
        "a 500-pair join prefix matches WithinJoinSorted");
  std::vector<StreamItem> bad = got;
  std::swap(bad[10], bad[400]);
  Check(!CompareByTieGroups(bad, want, true).empty(), "reordered pairs are caught");
  bad = got;
  bad[200].id2 ^= 1;
  Check(!CompareByTieGroups(bad, want, true).empty(), "a wrong partner is caught");
  bad = got;
  bad[300].distance = std::nextafter(bad[300].distance, 1e300);
  Check(!CompareByTieGroups(bad, want, true).empty(),
        "a distance one ulp off is caught");
  bad = got;
  bad.erase(bad.begin() + 100);
  Check(!CompareByTieGroups(bad, want, true).empty(), "a dropped pair is caught");
  Check(!CompareExact(bad, got).empty(), "exact comparison catches a drop");

  sdj::SemiJoinOptions semi_options;
  sdj::DistanceSemiJoin<2> semi(*a, *b, semi_options);
  const std::vector<StreamItem> semi_got = Drain(&semi, ~size_t{0});
  const std::vector<StreamItem> semi_want = NnSemiOracle(*a, *b, sdj::Metric::kEuclidean);
  Check(CompareByTieGroups(semi_got, semi_want, false).empty(),
        "the full semi-join matches NnSemiJoin");
  const double eps = semi_got[semi_got.size() / 2].distance;
  const SemiOracle bounded = SemiWithinOracle(*a, *b, eps, sdj::Metric::kEuclidean);
  std::vector<StreamItem> prefix;
  for (const StreamItem& item : semi_got) {
    if (item.distance <= eps) prefix.push_back(item);
  }
  Check(CompareSemi(prefix, bounded).empty(),
        "the semi-join within eps matches the within-join-derived oracle");
  bad = prefix;
  bad[5].id2 ^= 1;
  Check(!CompareSemi(bad, bounded).empty() &&
            !CompareByTieGroups(bad, semi_want, true).empty(),
        "a non-nearest semi-join partner is caught");

  std::vector<std::pair<sdj::Rect<2>, sdj::ObjectId>> objects;
  b->ForEachObject([&](const sdj::Rect<2>& r, sdj::ObjectId id) {
    objects.emplace_back(r, id);
  });
  sdj::IncNeighborOptions nn_options;
  nn_options.max_distance = 5000.0;
  sdj::IncNearestNeighbor<2> nn(*b, rel.roads[0], nn_options);
  const std::vector<StreamItem> nn_got = Drain(&nn, 10);
  const std::vector<StreamItem> nn_want =
      KnnOracle(objects, rel.roads[0], 10, 5000.0, sdj::Metric::kEuclidean);
  Check(nn_got.size() == 10 &&
            CompareByTieGroups(nn_got, nn_want, true).empty(),
        "bounded 10-NN matches the brute-force scan");
  if (nn_got.size() < 10) return;
  bad = nn_got;
  std::swap(bad[0], bad[9]);
  Check(!CompareByTieGroups(bad, nn_want, bad.size() == 10).empty(),
        "swapped neighbours are caught");
}

void TestFailureCounting(const std::string& out_dir) {
  const Relations rel = MakeRelations(5, 0.02);
  const std::string path_a = out_dir + "/selftest_water.pages";
  const std::string path_b = out_dir + "/selftest_roads.pages";
  sdj::RTreeOptions options;
  options.buffer_pages = 16;  // small, so the join keeps reading pages
  for (const auto& [path, points] :
       {std::pair{path_a, &rel.water}, std::pair{path_b, &rel.roads}}) {
    options.file_path = path;
    auto tree = Tree(*points, options);
    Check(tree->Flush(), "flush " + path);
  }
  options.file_path = path_a;
  sdj::storage::FaultInjectionOptions faults;
  faults.hard_read_after = 30;  // survives Open, dies mid-join
  options.fault_injection = faults;
  auto a = sdj::RTree<2>::Open(options);
  options.file_path = path_b;
  options.fault_injection.reset();
  auto b = sdj::RTree<2>::Open(options);
  Check(a != nullptr && b != nullptr, "reopen the flushed trees");
  if (a == nullptr || b == nullptr) return;

  QueryLog log;
  std::vector<StreamItem> items;
  const bool healthy = RunQuery(
      [&] {
        return std::make_unique<sdj::DistanceJoin<2>>(*a, *b,
                                                      sdj::DistanceJoinOptions{});
      },
      20000, &items, &log);
  if (!healthy) Expect("engine stopped early", "join", &log);
  Check(!healthy && log.queries == 1 && log.failed == 1,
        "a query over a tree that stops serving reads counts as failed "
        "(failed_frac " +
            std::to_string(static_cast<double>(log.failed) /
                           static_cast<double>(log.queries)) +
            ", " + std::to_string(items.size()) + " pairs before the fault)");
  a.reset();
  b.reset();
  std::filesystem::remove(path_a);
  std::filesystem::remove(path_b);
}

}  // namespace

int RunSelfTest(const std::string& out_dir) {
  TestPercentiles();
  TestInputs();
  TestOracles();
  TestFailureCounting(out_dir);
  std::printf("%s: %d check(s) failed\n", g_failures == 0 ? "selftest passed" : "selftest FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
