// The incremental distance semi-join (Section 2.3).
//
// For each object o1 of the first relation, reports the pair (o1, o2) with
// the nearest o2 from the second relation — pairs stream out in order of
// distance, so the complete result is the discrete-Voronoi clustering of
// Section 1, while a prefix answers "which o1 have a neighbor within d".
//
// The implementation is the incremental distance join with duplicate-first
// filtering layered in at selectable depths (the Outside / Inside1 / Inside2
// strategies of Figure 9) and optional d_max-bound pruning (Local /
// GlobalNodes / GlobalAll, Section 4.2.1).
#ifndef SDJOIN_CORE_SEMI_JOIN_H_
#define SDJOIN_CORE_SEMI_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/distance_join.h"
#include "core/join_stats.h"
#include "core/snapshot.h"
#include "rtree/rtree.h"
#include "util/check.h"
#include "util/dynamic_bitset.h"

namespace sdj {

// Query options for DistanceSemiJoin.
struct SemiJoinOptions {
  // Shared knobs (metric, traversal, range, STOP AFTER, queue, estimation).
  // max_pairs counts distinct first objects. Maximum-distance estimation uses
  // the semi-join variant of Section 2.3 and requires an Inside filter.
  // join.metrics (DESIGN.md §12) instruments the semi-join too: the wrapped
  // engine owns every timed phase (expansion, refill, spill), so one sink
  // covers both.
  DistanceJoinOptions join;
  // Where duplicate first objects are filtered out (Figure 9).
  SemiJoinFilter filter = SemiJoinFilter::kInside2;
  // d_max bound exploitation (Section 4.2.1). Any setting other than kNone
  // implies Inside2 filtering, as in the paper's experiments.
  SemiJoinBound bound = SemiJoinBound::kNone;
};

// Incremental distance semi-join iterator. Usage mirrors DistanceJoin:
//
//   DistanceSemiJoin<2> semi(stores, warehouses, options);
//   JoinResult<2> pair;
//   while (semi.Next(&pair)) Assign(pair.id1, pair.id2);
// EngineT is the underlying join engine: DistanceJoin by default, or a
// ShardedDistanceJoin (core/shard_merge.h) for shard-parallel execution.
// It must accept DistanceJoin's 7-argument constructor shape.
template <int Dim, typename Index = RTree<Dim>,
          typename EngineT = DistanceJoin<Dim, Index>>
class DistanceSemiJoin {
 public:
  using Result = JoinResult<Dim>;

  DistanceSemiJoin(const Index& tree1, const Index& tree2,
                   const SemiJoinOptions& options,
                   JoinFilters<Dim> filters = JoinFilters<Dim>{})
      : options_(Normalize(options)),
        // User input must not abort — surface through status() instead.
        // Estimation requires an Inside filter (the engine must see
        // distinct-first reports). The wrapper's own S_o has the engine's
        // dense-object-id precondition.
        invalid_(options_.filter == SemiJoinFilter::kNone ||
                 (options_.join.estimate_max_distance &&
                  options_.filter == SemiJoinFilter::kOutside) ||
                 (options_.filter == SemiJoinFilter::kOutside &&
                  tree1.size() > 0 &&
                  tree1.max_object_id() >= tree1.size())),
        outside_(options_.filter == SemiJoinFilter::kOutside ? tree1.size()
                                                             : 0),
        engine_(tree1, tree2, EngineJoinOptions(options_), std::move(filters),
                EngineFilter(options_), options_.bound,
                options_.join.estimate_max_distance) {}

  // Produces the next (o1, nearest o2) pair by non-decreasing distance.
  bool Next(JoinResult<Dim>* out) {
    if (invalid_) return false;
    if (options_.join.max_pairs > 0 &&
        reported_ >= options_.join.max_pairs) {
      return false;
    }
    if (options_.filter == SemiJoinFilter::kOutside) {
      JoinResult<Dim> candidate;
      while (engine_.Next(&candidate)) {
        SDJ_CHECK(candidate.id1 < outside_.size());
        if (outside_.TestAndSet(candidate.id1)) {
          *out = candidate;
          ++reported_;
          return true;
        }
        ++outside_filtered_;
      }
      return false;
    }
    if (engine_.Next(out)) {
      ++reported_;
      return true;
    }
    return false;
  }

  // Cumulative statistics; filtered_reported includes pairs dropped by the
  // Outside filter when that strategy is selected.
  JoinStats stats() const {
    JoinStats s = engine_.stats();
    s.filtered_reported += outside_filtered_;
    s.pairs_reported = reported_;
    return s;
  }

  size_t max_memory_queue_size() const {
    return engine_.max_memory_queue_size();
  }
  // Live pair-queue entries — the serving layer's memory-cost proxy
  // (DESIGN.md §14).
  size_t queue_size() const { return engine_.queue_size(); }

  // Why iteration stopped (kOk while Next() still returns pairs); kIoError
  // means the engine stopped early with a valid partial prefix, kSuspended
  // that a StopToken halted it at a resumable safe point.
  JoinStatus status() const {
    if (invalid_) return JoinStatus::kInvalidArgument;
    // The wrapper's own max_pairs cap is normal exhaustion.
    if (options_.join.max_pairs > 0 && reported_ >= options_.join.max_pairs &&
        engine_.status() != JoinStatus::kIoError) {
      return JoinStatus::kExhausted;
    }
    return engine_.status();
  }

  // Clears a kSuspended engine status so iteration can continue.
  void ResumeSuspended() { engine_.ResumeSuspended(); }

  // ---- snapshot support (DESIGN.md §11) ----

  // Serializes the wrapper state (Outside-filter S_o and counters) followed
  // by the full engine state. Same safe-point contract as the engine's
  // SaveState.
  bool SaveState(snapshot::Blob* out) {
    if (invalid_) return false;
    out->Append(Fingerprint());
    out->PutU64(reported_);
    out->PutU64(outside_filtered_);
    out->PutU64(outside_.size());
    out->PutU64(outside_.WordCount());
    for (size_t i = 0; i < outside_.WordCount(); ++i) {
      out->PutU64(outside_.Word(i));
    }
    return engine_.SaveState(out);
  }

  // Counterpart of SaveState; the wrapper must have been constructed with
  // the same options over the same trees (fingerprint-checked). The
  // wrapper's own state is applied only once the engine accepted its
  // section, so an engine fingerprint mismatch leaves both untouched.
  bool RestoreState(snapshot::BlobReader* in) {
    if (invalid_ || !in->Expect(Fingerprint())) return false;
    const uint64_t reported = in->GetU64();
    const uint64_t outside_filtered = in->GetU64();
    if (in->GetU64() != outside_.size()) return false;
    if (in->GetCount(8) != outside_.WordCount()) return false;
    std::vector<uint64_t> words(outside_.WordCount());
    for (uint64_t& w : words) w = in->GetU64();
    if (!in->ok() || !engine_.RestoreState(in)) return false;
    for (size_t i = 0; i < words.size(); ++i) outside_.SetWord(i, words[i]);
    reported_ = reported;
    outside_filtered_ = outside_filtered;
    return true;
  }

 private:
  // The wrapper's fingerprint; the engine section carries its own.
  snapshot::Blob Fingerprint() const {
    snapshot::Blob fp;
    fp.PutU8(static_cast<uint8_t>(options_.filter));
    fp.PutU8(static_cast<uint8_t>(options_.bound));
    return fp;
  }

  // Applies the paper's coupling rule: bounds imply Inside2.
  static SemiJoinOptions Normalize(SemiJoinOptions options) {
    if (options.bound != SemiJoinBound::kNone) {
      options.filter = SemiJoinFilter::kInside2;
    }
    return options;
  }

  static DistanceJoinOptions EngineJoinOptions(const SemiJoinOptions& options) {
    DistanceJoinOptions join = options.join;
    if (options.filter == SemiJoinFilter::kOutside) {
      // The engine emits raw pairs; this wrapper dedupes and caps.
      join.max_pairs = 0;
      join.estimate_max_distance = false;
    }
    return join;
  }

  static SemiJoinFilter EngineFilter(const SemiJoinOptions& options) {
    return options.filter == SemiJoinFilter::kOutside ? SemiJoinFilter::kNone
                                                      : options.filter;
  }

  const SemiJoinOptions options_;
  const bool invalid_;     // dense-id precondition failed at construction
  DynamicBitset outside_;  // S_o for the Outside strategy
  EngineT engine_;
  uint64_t reported_ = 0;
  uint64_t outside_filtered_ = 0;
};

}  // namespace sdj

#endif  // SDJOIN_CORE_SEMI_JOIN_H_
