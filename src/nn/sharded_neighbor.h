// Sharded incremental neighbor search (DESIGN.md §18): the single-tree
// instantiation of the sharded best-first stack. The shard plan runs one
// serial root expansion, scatters the resulting frontier by subtree ref, and
// each group seeds an independent NeighborEngine behind the k-way frontier
// merge of core/shard_merge.h.
//
// The nearest engine's reported distances are nondecreasing, the farthest
// engine's nonincreasing (its reported distance IS the traversal key,
// negated), so both satisfy the merge-frontier invariant — the farthest
// wrapper simply runs the merge with the descending comparator. Every
// IncNeighborOptions configuration is eligible; with fewer than two root
// children the wrapper degrades to one ordinary engine.
#ifndef SDJOIN_NN_SHARDED_NEIGHBOR_H_
#define SDJOIN_NN_SHARDED_NEIGHBOR_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/join_stats.h"
#include "core/shard_merge.h"
#include "geometry/metrics.h"
#include "geometry/point.h"
#include "nn/inc_farthest.h"
#include "nn/inc_nearest.h"
#include "nn/neighbor_core.h"
#include "rtree/rtree.h"

namespace sdj::shard {

// Common wrapper for both neighbor directions; EngineT is the serial
// iterator (IncNearestNeighbor / IncFarthestNeighbor) and kDescending
// selects the merge comparator (true for farthest-first).
template <int Dim, typename Index, typename EngineT, bool kDescending>
class ShardedNeighbor
    : public ShardedEngine<Dim, EngineT, NeighborResult<Dim>> {
  using BaseT = ShardedEngine<Dim, EngineT, NeighborResult<Dim>>;

 public:
  using Result = NeighborResult<Dim>;

  ShardedNeighbor(const Index& tree, const Point<Dim>& query,
                  const IncNeighborOptions& options)
      : BaseT({&tree.pool()}) {
    // The query side is a pseudo-item (every entry's item2 coincides), so
    // only the item1 scatter can ever partition.
    this->BuildShards(options, /*eligible=*/true,
                      /*allow_item2_fallback=*/false, kDescending,
                      /*max_results=*/0, /*auto_resume=*/true,
                      [&](const IncNeighborOptions& o) {
                        return std::make_unique<EngineT>(tree, query, o);
                      });
  }

  // Traversal counters in the historical NN shape (mirrors
  // NeighborEngine::stats(); engine_stats() exposes the merged full set).
  const IncNearestStats& stats() const {
    nn_stats_ = IncNearestStats::From(BaseT::stats());
    return nn_stats_;
  }
  const JoinStats& engine_stats() const { return BaseT::stats(); }

  bool suspended() const {
    return this->status() == JoinStatus::kSuspended;
  }

 private:
  mutable IncNearestStats nn_stats_;
};

}  // namespace sdj::shard

namespace sdj {

// Sharded nearest-neighbor iterator; drop-in for IncNearestNeighbor.
template <int Dim, typename Index = RTree<Dim>>
class ShardedIncNearest
    : public shard::ShardedNeighbor<Dim, Index, IncNearestNeighbor<Dim, Index>,
                                    /*kDescending=*/false> {
  using BaseT = shard::ShardedNeighbor<Dim, Index,
                                       IncNearestNeighbor<Dim, Index>,
                                       /*kDescending=*/false>;

 public:
  ShardedIncNearest(const Index& tree, const Point<Dim>& query,
                    const IncNeighborOptions& options)
      : BaseT(tree, query, options) {}
  ShardedIncNearest(const Index& tree, const Point<Dim>& query,
                    Metric metric = Metric::kEuclidean)
      : BaseT(tree, query, IncNeighborOptions::WithMetric(metric)) {}
};

// Sharded farthest-neighbor iterator; drop-in for IncFarthestNeighbor. The
// merge runs descending: each shard's head upper-bounds its remainder.
template <int Dim, typename Index = RTree<Dim>>
class ShardedIncFarthest
    : public shard::ShardedNeighbor<Dim, Index,
                                    IncFarthestNeighbor<Dim, Index>,
                                    /*kDescending=*/true> {
  using BaseT = shard::ShardedNeighbor<Dim, Index,
                                       IncFarthestNeighbor<Dim, Index>,
                                       /*kDescending=*/true>;

 public:
  ShardedIncFarthest(const Index& tree, const Point<Dim>& query,
                     const IncNeighborOptions& options)
      : BaseT(tree, query, options) {}
  ShardedIncFarthest(const Index& tree, const Point<Dim>& query,
                     Metric metric = Metric::kEuclidean)
      : BaseT(tree, query, IncNeighborOptions::WithMetric(metric)) {}
};

}  // namespace sdj

#endif  // SDJOIN_NN_SHARDED_NEIGHBOR_H_
