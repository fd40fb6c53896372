// The incremental distance semi-join (Section 2.3).
//
// For each object o1 of the first relation, reports the pair (o1, o2) with
// the nearest o2 from the second relation — pairs stream out in order of
// distance, so the complete result is the discrete-Voronoi clustering of
// Section 1, while a prefix answers "which o1 have a neighbor within d".
//
// In the paper the semi-join is the incremental distance join plus one bit
// string S_o of first objects already reported; the Outside / Inside1 /
// Inside2 strategies of Figure 9 differ only in where S_o is checked, and
// the d_max bound strategies of Section 4.2.1 (Local / GlobalNodes /
// GlobalAll) imply Inside2. DistanceJoin (core/distance_join.h) implements
// all of it, so DistanceSemiJoin is an option adapter, not a traversal
// policy: its only member is a constructor that hands the filter and bound
// to the engine. Pair stream, statistics and snapshot bytes are exactly
// DistanceJoin's for that configuration. ShardedDistanceSemiJoin
// (core/shard_merge.h) is the same adapter over ShardedDistanceJoin.
#ifndef SDJOIN_CORE_SEMI_JOIN_H_
#define SDJOIN_CORE_SEMI_JOIN_H_

#include <utility>

#include "core/distance_join.h"
#include "rtree/rtree.h"

namespace sdj {

// Query options for DistanceSemiJoin.
struct SemiJoinOptions {
  // Shared knobs (metric, traversal, range, STOP AFTER, queue, estimation).
  // max_pairs counts distinct first objects. Maximum-distance estimation uses
  // the semi-join variant of Section 2.3 and requires an Inside filter.
  // join.metrics (DESIGN.md §12) instruments the semi-join like any join.
  DistanceJoinOptions join;
  // Where duplicate first objects are filtered out (Figure 9). kNone is no
  // semi-join at all and is reported as kInvalidArgument.
  SemiJoinFilter filter = SemiJoinFilter::kInside2;
  // d_max bound exploitation (Section 4.2.1). Any setting other than kNone
  // implies Inside2 filtering, as in the paper's experiments.
  SemiJoinBound bound = SemiJoinBound::kNone;

  // False only for {filter = kNone, bound = kNone}, a plain join.
  bool IsSemiJoin() const {
    return filter != SemiJoinFilter::kNone || bound != SemiJoinBound::kNone;
  }
};

// The engine options a semi-join runs with. Without a filter or bound the
// query is no semi-join: its engine is built unseeded on one shard, so the
// adapter rejects it before any page is read.
inline DistanceJoinOptions SemiEngineOptions(const SemiJoinOptions& options) {
  DistanceJoinOptions join = options.join;
  if (!options.IsSemiJoin()) {
    join.defer_seed = true;
    join.shards = 1;
  }
  return join;
}

// Incremental distance semi-join iterator. Usage mirrors DistanceJoin:
//
//   DistanceSemiJoin<2> semi(stores, warehouses, options);
//   JoinResult<2> pair;
//   while (semi.Next(&pair)) Assign(pair.id1, pair.id2);
template <int Dim, typename Index = RTree<Dim>>
class DistanceSemiJoin : public DistanceJoin<Dim, Index> {
 public:
  DistanceSemiJoin(const Index& tree1, const Index& tree2,
                   const SemiJoinOptions& options,
                   JoinFilters<Dim> filters = JoinFilters<Dim>{})
      : DistanceJoin<Dim, Index>(tree1, tree2, SemiEngineOptions(options),
                                 std::move(filters), options.filter,
                                 options.bound) {
    if (!options.IsSemiJoin()) this->RejectOptions();
  }
};

}  // namespace sdj

#endif  // SDJOIN_CORE_SEMI_JOIN_H_
