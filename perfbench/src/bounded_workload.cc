// bounded_quantized: distance-bounded queries over quantized-page trees held
// entirely in a warm buffer, so node decode, code screening and the batch
// kernels carry the work instead of I/O or a huge queue. Each unit runs the
// within-join, the GlobalAll semi-join and bounded 10-NN searches at three
// radii: the distances of the 1k-th, 10k-th and 100k-th closest pairs.
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/distance_join.h"
#include "core/semi_join.h"
#include "core/within_join.h"
#include "geometry/simd.h"
#include "nn/inc_nearest.h"
#include "oracle.h"
#include "workload.h"

namespace perfbench {

namespace {

// Holds both quantized trees (~2.3k pages) with room to spare.
constexpr uint32_t kBufferPages = 8192;
constexpr uint64_t kRadiusRanks[] = {1000, 10000, 100000};
constexpr uint64_t kNeighbors = 10;
// A 10-NN search takes ~10 us, ten thousand times less than a join at the
// same radius: several per unit give its kind enough samples for a steady
// median at no visible cost to the unit.
constexpr int kKnnPerRadius = 8;

enum class Kind { kWithin, kSemi, kKnn };

class BoundedWorkload : public Workload {
 public:
  BoundedWorkload(const RunConfig& cfg, Instance inst)
      : inst_(std::move(inst)), rng_(cfg.seed ^ 0x626f756eULL) {
    // Warm the buffer with every node page of both trees.
    inst_.water->ForEachObject([](const sdj::Rect<2>&, sdj::ObjectId) {});
    inst_.roads->ForEachObject([&](const sdj::Rect<2>& r, sdj::ObjectId id) {
      roads_objects_.emplace_back(r, id);
    });
    // The radii: distances of the k-th closest Water x Roads pairs. STOP
    // AFTER estimation keeps this join's queue near the workload's own.
    sdj::DistanceJoinOptions options = JoinOptions(nullptr);
    options.max_pairs = kRadiusRanks[2];
    options.estimate_max_distance = true;
    sdj::DistanceJoin<2> join(*inst_.water, *inst_.roads, options);
    sdj::JoinResult<2> pair;
    uint64_t n = 0;
    size_t next = 0;
    while (next < 3 && join.Next(&pair)) {
      if (++n == kRadiusRanks[next]) radius_[next++] = pair.distance;
    }
    std::printf("# radii: d(1k)=%.6g d(10k)=%.6g d(100k)=%.6g\n", radius_[0],
                radius_[1], radius_[2]);
  }

  void RunUnit(QueryLog* log, sdj::obs::Metrics* metrics) override {
    std::vector<std::pair<Kind, int>> plan;
    for (const Kind kind : {Kind::kWithin, Kind::kSemi, Kind::kKnn}) {
      for (int r = 0; r < 3; ++r) {
        const int copies = kind == Kind::kKnn ? kKnnPerRadius : 1;
        for (int i = 0; i < copies; ++i) plan.emplace_back(kind, r);
      }
    }
    // The same order in every unit, whatever the seed, so what a query
    // inherits from the allocator does not vary by seed.
    ScopedPoolMetrics attach({inst_.water.get(), inst_.roads.get()}, metrics);
    // Result buffers are reused unit to unit, so the allocator sees the same
    // requests in every unit (and peak RSS does not depend on query order).
    pending_.resize(plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
      const auto [kind, r] = plan[i];
      Pending& p = pending_[i];
      p.kind = kind;
      p.radius = r;
      log->kind = static_cast<int>(kind) * 3 + r;
      const double eps = radius_[r];
      if (kind == Kind::kWithin) {
        const sdj::WithinJoinOptions options = WithinOptions(eps, metrics);
        p.healthy = RunQuery(
            [&] {
              return std::make_unique<sdj::IncWithinJoin<2>>(
                  *inst_.water, *inst_.roads, options);
            },
            0, &p.items, log);
      } else if (kind == Kind::kSemi) {
        sdj::SemiJoinOptions options;
        options.join = JoinOptions(metrics);
        options.join.max_distance = eps;
        options.filter = sdj::SemiJoinFilter::kInside2;
        options.bound = sdj::SemiJoinBound::kGlobalAll;
        p.healthy = RunQuery(
            [&] {
              return std::make_unique<sdj::DistanceSemiJoin<2>>(
                  *inst_.water, *inst_.roads, options);
            },
            0, &p.items, log);
      } else {
        // From a seed-drawn Roads location, so every search finds a
        // neighbour (the point's own object) within any radius.
        const sdj::Point<2>& q =
            inst_.rel.roads[rng_.Below(inst_.rel.roads.size())];
        p.query = q;
        sdj::IncNeighborOptions options;
        options.metric = sdj::Metric::kEuclidean;
        options.tie_break = sdj::TieBreakPolicy::kDepthFirst;
        options.max_distance = eps;
        options.shards = 1;
        options.kernel_isa = sdj::simd::DetectIsa();
        options.screen_codes = true;
        options.metrics = metrics;
        p.healthy = RunQuery(
            [&] {
              return std::make_unique<sdj::IncNearestNeighbor<2>>(*inst_.roads,
                                                                  q, options);
            },
            kNeighbors, &p.items, log);
      }
    }
  }

  void CheckUnit(QueryLog* log) override {
    for (const Pending& p : pending_) {
      if (!p.healthy) {
        Expect("engine stopped early", "bounded", log);
        continue;
      }
      const double eps = radius_[p.radius];
      switch (p.kind) {
        case Kind::kWithin:
          if (!within_oracle_[p.radius]) {
            within_oracle_[p.radius] = WithinOracle(
                *inst_.water, *inst_.roads, eps, sdj::Metric::kEuclidean);
          }
          Expect(CompareByTieGroups(p.items, *within_oracle_[p.radius], false),
                 "within", log);
          break;
        case Kind::kSemi:
          if (!semi_oracle_[p.radius]) {
            semi_oracle_[p.radius] = SemiWithinOracle(
                *inst_.water, *inst_.roads, eps, sdj::Metric::kEuclidean);
          }
          Expect(CompareSemi(p.items, *semi_oracle_[p.radius]), "semi", log);
          break;
        case Kind::kKnn:
          Expect(CompareByTieGroups(
                     p.items,
                     KnnOracle(roads_objects_, p.query, kNeighbors, eps,
                               sdj::Metric::kEuclidean),
                     p.items.size() == kNeighbors),
                 "knn", log);
          break;
      }
    }
  }

  void CollectLayers(const QueryLog& log, LayerInputs* in,
                     Report* report) override {
    CollectEngineLayers(log, in, report);
  }

 private:
  struct Pending {
    Kind kind = Kind::kWithin;
    int radius = 0;
    sdj::Point<2> query;
    bool healthy = false;
    std::vector<StreamItem> items;
  };


  Instance inst_;
  SplitMix rng_;
  double radius_[3] = {0.0, 0.0, 0.0};
  std::vector<std::pair<sdj::Rect<2>, sdj::ObjectId>> roads_objects_;
  std::optional<std::vector<StreamItem>> within_oracle_[3];
  std::optional<SemiOracle> semi_oracle_[3];
  std::vector<Pending> pending_;
};

}  // namespace

SetupParams BoundedQuantizedSetup(const RunConfig&) {
  // Quantized trees are bulk-loaded: R* insertion re-quantizes a node on
  // every insert and takes ~40 s at this size, far beyond any set-up budget.
  // STR packing is not symmetric, so the seed's mirrored variants would get
  // trees whose first results cost up to 100x more than the paper-shaped
  // instance's; the data stays MakeWater / MakeRoads and the seed draws the
  // queries only.
  SetupParams params;
  params.seed = kDefaultSeed;
  params.spec.encoding = sdj::NodeEncoding::kQuantized;
  params.spec.buffer_pages = kBufferPages;
  params.spec.bulk_load = true;
  return params;
}

std::unique_ptr<Workload> MakeBoundedQuantized(const RunConfig& cfg,
                                               Instance inst) {
  return std::make_unique<BoundedWorkload>(cfg, std::move(inst));
}

}  // namespace perfbench
