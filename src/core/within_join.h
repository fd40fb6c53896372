// Incremental within-distance (epsilon) join: every object pair with
// distance <= eps, streamed by non-decreasing distance — the incremental
// counterpart of baseline/within_join.h.
//
// In the paper this is not a separate algorithm: it is the incremental
// distance join with its range set to [0, eps] (Section 2.2.3, the
// `WHERE d <= Dmax` clause of Figure 1). IncWithinJoin is therefore an
// option adapter, not a traversal policy: its only member is a constructor
// that maps WithinJoinOptions onto DistanceJoinOptions{node_policy = kEven,
// min_distance = 0, max_distance = eps}. Pair stream, statistics and
// snapshot bytes are exactly DistanceJoin's for that configuration, so a
// within snapshot restores into the equivalent DistanceJoin and vice versa.
// ShardedWithinJoin (core/shard_merge.h) is the same adapter over
// ShardedDistanceJoin.
#ifndef SDJOIN_CORE_WITHIN_JOIN_H_
#define SDJOIN_CORE_WITHIN_JOIN_H_

#include "core/distance_join.h"
#include "core/hybrid_queue.h"
#include "geometry/code_screen.h"
#include "geometry/metrics.h"
#include "geometry/simd.h"
#include "obs/metrics.h"
#include "rtree/rtree.h"
#include "util/stop_token.h"

namespace sdj {

struct WithinJoinOptions {
  double epsilon = 0.0;  // report pairs with distance <= epsilon (inclusive)
  Metric metric = Metric::kEuclidean;
  TieBreakPolicy tie_break = TieBreakPolicy::kDepthFirst;
  bool use_hybrid_queue = false;  // Section 3.2 tiered queue
  HybridQueueOptions hybrid;
  // Sharded classify, output-identical to serial; below 1 is
  // kInvalidArgument.
  int num_threads = 1;
  // Shard count for the ShardedWithinJoin wrapper (DESIGN.md §18); a raw
  // IncWithinJoin ignores it. 0 = SDJ_SHARDS default (1 when unset).
  int shards = 0;
  util::StopToken stop_token;    // cooperative suspension (DESIGN.md §11)
  obs::Metrics* metrics = nullptr;  // observability sink (DESIGN.md §12)
  // SIMD path for the batched kernels (DESIGN.md §15); bit-identical to
  // scalar on every path, so it can never change the pair stream.
  simd::Isa kernel_isa = simd::Isa::kAuto;
  // Integer code screening on quantized pages (DESIGN.md §17). A finite
  // epsilon is a fixed bound on the fast classify ladder, so screening
  // engages whenever the tree is quantized; the pair stream and
  // pre-existing stats stay byte-identical either way.
  bool screen_codes = code_screen::DefaultEnabled();
};

// The distance-join configuration a within join runs as. A negative or NaN
// epsilon fails DistanceJoin's min_distance <= max_distance check, so it is
// reported as kInvalidArgument like any other bad range.
inline DistanceJoinOptions AsDistanceJoinOptions(
    const WithinJoinOptions& options) {
  DistanceJoinOptions out;
  out.metric = options.metric;
  out.node_policy = NodeProcessingPolicy::kEven;
  out.tie_break = options.tie_break;
  out.min_distance = 0.0;
  out.max_distance = options.epsilon;
  out.use_hybrid_queue = options.use_hybrid_queue;
  out.hybrid = options.hybrid;
  out.num_threads = options.num_threads;
  out.shards = options.shards;
  out.stop_token = options.stop_token;
  out.metrics = options.metrics;
  out.kernel_isa = options.kernel_isa;
  out.screen_codes = options.screen_codes;
  return out;
}

// Usage mirrors DistanceJoin:
//
//   IncWithinJoin<2> join(roads, rivers, {.epsilon = 2.5});
//   JoinResult<2> pair;
//   while (join.Next(&pair)) Use(pair);   // distances ascend, all <= eps
template <int Dim, typename Index = RTree<Dim>>
class IncWithinJoin : public DistanceJoin<Dim, Index> {
 public:
  IncWithinJoin(const Index& tree1, const Index& tree2,
                const WithinJoinOptions& options)
      : DistanceJoin<Dim, Index>(tree1, tree2,
                                 AsDistanceJoinOptions(options)) {}
};

}  // namespace sdj

#endif  // SDJOIN_CORE_WITHIN_JOIN_H_
