// Incremental farthest-neighbor search: the single-tree analogue of the
// join's reverse ordering (Section 2.2.5). Objects stream out by
// non-increasing distance from the query point.
//
// Nodes are keyed by MAXDIST(query, node MBR) — an upper bound on the
// distance of any object beneath, monotone under containment — and objects
// by their exact distance; popping the maximum key therefore yields the
// farthest remaining object as soon as it surfaces. Like the join's reverse
// mode, the queue key is the negated bound, so the hybrid tiered queue is
// unavailable (it buckets by ascending key == distance).
//
// Implemented as a policy over the shared best-first core (nn/neighbor_core.h
// + core/best_first.h, DESIGN.md §13); see IncNearestNeighbor for the
// cross-cutting behavior (status(), suspension, snapshots).
#ifndef SDJOIN_NN_INC_FARTHEST_H_
#define SDJOIN_NN_INC_FARTHEST_H_

#include "geometry/metrics.h"
#include "geometry/point.h"
#include "nn/inc_nearest.h"
#include "nn/neighbor_core.h"
#include "rtree/rtree.h"

namespace sdj {

// Pull-based farthest-neighbor iterator; mirrors IncNearestNeighbor. For
// extended objects, the reported distance is the maximal distance from the
// query to the object's rectangle (consistent with the node bound).
template <int Dim, typename Index = RTree<Dim>>
class IncFarthestNeighbor
    : public NeighborEngine<Dim, IncFarthestNeighbor<Dim, Index>, Index,
                            /*kFarthest=*/true> {
  using Engine = NeighborEngine<Dim, IncFarthestNeighbor<Dim, Index>, Index,
                                /*kFarthest=*/true>;

 public:
  using Result = typename Engine::Result;

  IncFarthestNeighbor(const Index& tree, const Point<Dim>& query,
                      Metric metric = Metric::kEuclidean)
      : Engine(tree, query, IncNeighborOptions::WithMetric(metric)) {}

  IncFarthestNeighbor(const Index& tree, const Point<Dim>& query,
                      const IncNeighborOptions& options)
      : Engine(tree, query, options) {}
};

}  // namespace sdj

#endif  // SDJOIN_NN_INC_FARTHEST_H_
