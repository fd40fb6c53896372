// join_topk and simultaneous_par: unbounded distance joins over the
// Water x Roads relations with a cold 256 KB buffer per query; each unit
// pulls k pairs for every k in {1, 100, 1k, 10k, 100k}.
#include <array>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "core/distance_join.h"
#include "oracle.h"
#include "workload.h"

namespace perfbench {

namespace {

// Five sizes, an odd count, so the median query is one size's median rather
// than the gap between two sizes.
constexpr std::array<uint64_t, 5> kKs = {1, 100, 1000, 10000, 100000};

class TopkJoinWorkload : public Workload {
 public:
  TopkJoinWorkload(Instance inst, sdj::NodeProcessingPolicy policy,
                   int threads)
      : inst_(std::move(inst)), policy_(policy), threads_(threads) {
    // Untimed warm-up: the first query of a process pays one-time costs
    // (first heap growth, the allocator settling its thresholds) that later
    // queries do not.
    QueryLog scratch;
    std::vector<StreamItem> items;
    RunOne(100, &scratch, nullptr, &items);
  }

  void RunUnit(QueryLog* log, sdj::obs::Metrics* metrics) override {
    // Every unit runs the sizes in the same order, whatever the seed: a
    // query's cost depends on what the allocator kept from the query before
    // it (glibc trims a freed heap top), so an order that changed with the
    // seed would move per-size latencies too. Result buffers are reused unit
    // to unit, so the allocator sees the same requests in every unit.
    pending_.resize(kKs.size());
    for (size_t i = 0; i < kKs.size(); ++i) {
      pending_[i].k = kKs[i];
      log->kind = static_cast<int>(kKs[i]);
      pending_[i].healthy = RunOne(kKs[i], log, metrics, &pending_[i].items);
    }
  }

  void CheckUnit(QueryLog* log) override {
    for (const Pending& p : pending_) {
      if (!p.healthy || p.items.size() != p.k) {
        Expect("engine stopped early", "join", log);
        continue;
      }
      // The k-prefix must be the first k pairs of every pair within the
      // k-th distance.
      const std::vector<StreamItem> want =
          WithinOracle(*inst_.water, *inst_.roads, p.items.back().distance,
                       sdj::Metric::kEuclidean);
      Expect(CompareByTieGroups(p.items, want, /*prefix=*/true), "join", log);
    }
  }

  void CollectLayers(const QueryLog& log, LayerInputs* in,
                     Report* report) override {
    CollectEngineLayers(log, in, report);
  }

 private:
  struct Pending {
    uint64_t k = 0;
    bool healthy = false;
    std::vector<StreamItem> items;
  };

  bool RunOne(uint64_t k, QueryLog* log, sdj::obs::Metrics* metrics,
              std::vector<StreamItem>* items) {
    // Cold buffer per query, as in the paper's Table 1.
    inst_.water->pool().Invalidate();
    inst_.roads->pool().Invalidate();
    sdj::DistanceJoinOptions options = JoinOptions(metrics);
    options.node_policy = policy_;
    options.num_threads = threads_;
    ScopedPoolMetrics attach({inst_.water.get(), inst_.roads.get()}, metrics);
    return RunQuery(
        [&] {
          return std::make_unique<sdj::DistanceJoin<2>>(*inst_.water,
                                                        *inst_.roads, options);
        },
        k, items, log);
  }

  Instance inst_;
  const sdj::NodeProcessingPolicy policy_;
  const int threads_;
  std::vector<Pending> pending_;
};

}  // namespace

SetupParams JoinTopkSetup(const RunConfig& cfg) {
  return {cfg.seed, 1.0, TreeSpec{}};
}

std::unique_ptr<Workload> MakeJoinTopk(const RunConfig&, Instance inst) {
  return std::make_unique<TopkJoinWorkload>(
      std::move(inst), sdj::NodeProcessingPolicy::kEven, 1);
}

SetupParams SimultaneousParSetup(const RunConfig& cfg) {
  return {cfg.seed, 0.25, TreeSpec{}};
}

std::unique_ptr<Workload> MakeSimultaneousPar(const RunConfig&, Instance inst) {
  // 3 pool workers plus the calling thread: never more than the box's 4.
  return std::make_unique<TopkJoinWorkload>(
      std::move(inst), sdj::NodeProcessingPolicy::kSimultaneous, 4);
}

}  // namespace perfbench
