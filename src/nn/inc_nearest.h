// Incremental nearest-neighbor search over an R-tree.
//
// This is the Hjaltason–Samet algorithm the paper builds on (its reference
// [18]): a single priority queue holds both nodes (keyed by MINDIST to the
// query) and objects (keyed by their distance); whenever an object surfaces
// at the head of the queue it is the next nearest neighbor. Used standalone,
// as the inner loop of the paper's distance-join (conceptually "two of these
// run simultaneously", Section 2.2), and as the non-incremental semi-join
// baseline of Section 4.2.3.
//
// Implemented as a policy over the shared best-first core (nn/neighbor_core.h
// + core/best_first.h, DESIGN.md §13), which supplies kIoError propagation on
// node reads, the optional hybrid queue, StopToken suspension, and
// SaveState/RestoreState (JoinCursor-compatible).
#ifndef SDJOIN_NN_INC_NEAREST_H_
#define SDJOIN_NN_INC_NEAREST_H_

#include <cstdint>
#include <vector>

#include "core/join_result.h"
#include "geometry/metrics.h"
#include "geometry/point.h"
#include "nn/neighbor_core.h"
#include "rtree/rtree.h"

namespace sdj {

// Pull-based nearest-neighbor iterator: each Next() yields the next closest
// object, in non-decreasing distance. The referenced tree must outlive the
// iterator and must not be modified while iterating.
//
//   IncNearestNeighbor<2> nn(tree, {3.0, 4.0});
//   IncNearestNeighbor<2>::Result hit;
//   while (nn.Next(&hit) && hit.distance <= radius) Use(hit);
//
// Next() returns false when the tree is exhausted, the stop token fired, or
// a node page was unreadable — status() (and suspended()) disambiguate.
template <int Dim, typename Index = RTree<Dim>>
class IncNearestNeighbor
    : public NeighborEngine<Dim, IncNearestNeighbor<Dim, Index>, Index,
                            /*kFarthest=*/false> {
  using Engine = NeighborEngine<Dim, IncNearestNeighbor<Dim, Index>, Index,
                                /*kFarthest=*/false>;

 public:
  using Result = typename Engine::Result;

  IncNearestNeighbor(const Index& tree, const Point<Dim>& query,
                     Metric metric = Metric::kEuclidean)
      : Engine(tree, query, IncNeighborOptions::WithMetric(metric)) {}

  IncNearestNeighbor(const Index& tree, const Point<Dim>& query,
                     const IncNeighborOptions& options)
      : Engine(tree, query, options) {}
};

// Convenience: the k nearest objects to `query`, closest first (fewer if the
// tree holds fewer than k objects). Swallows the traversal status — use the
// status-returning overload below when stop tokens, metrics, or I/O failures
// matter.
template <int Dim, typename Index = RTree<Dim>>
std::vector<typename IncNearestNeighbor<Dim, Index>::Result> KNearest(
    const Index& tree, const Point<Dim>& query, size_t k,
    Metric metric = Metric::kEuclidean) {
  IncNearestNeighbor<Dim, Index> nn(tree, query, metric);
  std::vector<typename IncNearestNeighbor<Dim, Index>::Result> results;
  typename IncNearestNeighbor<Dim, Index>::Result hit;
  while (results.size() < k && nn.Next(&hit)) results.push_back(hit);
  return results;
}

// Status-returning KNearest: honors every IncNeighborOptions knob and
// reports how the traversal ended. Returns kOk when k neighbors were found,
// kExhausted when the tree ran out first (*out then holds all objects),
// kSuspended when the stop token fired, and kIoError on an unreadable node
// page — in the latter two cases *out holds the valid prefix found so far.
template <int Dim, typename Index = RTree<Dim>>
JoinStatus KNearest(
    const Index& tree, const Point<Dim>& query, size_t k,
    const IncNeighborOptions& options,
    std::vector<typename IncNearestNeighbor<Dim, Index>::Result>* out) {
  out->clear();
  IncNearestNeighbor<Dim, Index> nn(tree, query, options);
  typename IncNearestNeighbor<Dim, Index>::Result hit;
  while (out->size() < k && nn.Next(&hit)) out->push_back(hit);
  if (out->size() == k) return JoinStatus::kOk;
  return nn.status();
}

}  // namespace sdj

#endif  // SDJOIN_NN_INC_NEAREST_H_
