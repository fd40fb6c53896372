// The incremental distance join (Section 2.2) — the paper's primary
// contribution — together with every policy knob its evaluation exercises:
//
//   * node-processing policies (Section 2.2.2): Basic (always expand item 1),
//     Even (expand the shallower node, the paper's recommended default), and
//     Simultaneous (expand both nodes of a node/node pair with the within-
//     filter + plane-sweep optimizations of traditional spatial joins);
//   * tie-break policies: depth-first vs. breadth-first (Section 2.2.2);
//   * a [Dmin, Dmax] distance range with MAXDIST/MINMAXDIST pruning
//     (Section 2.2.3, Figure 5);
//   * maximum-distance estimation from a STOP AFTER budget (Section 2.2.4),
//     in guaranteed (minimum fan-out) and aggressive (expected occupancy,
//     restart-on-failure) flavors;
//   * farthest-first ("reverse") ordering (Section 2.2.5);
//   * the hybrid memory/disk priority queue (Section 3.2);
//   * object-bounding-rectangle mode for objects stored outside the tree
//     (Figure 3, lines 7-14), via a user exact-distance callback;
//   * the distance semi-join (Section 2.3): one bit string S_o of first
//     objects already reported, checked where the Outside / Inside1 /
//     Inside2 filter says, plus the d_max bound strategies of Section 4.2.1.
//     DistanceSemiJoin (core/semi_join.h) is the option adapter that sets
//     them.
//
// The iterator is pipelined: each Next() call reports the next pair by
// non-decreasing distance, and the entire state lives in the priority queue,
// so a caller may stop at any time ("fast first", Section 1).
//
// Structurally, DistanceJoin is a policy over the shared best-first core
// (core/best_first.h, DESIGN.md §13): the core owns the pop loop, queue,
// safe points, I/O-status propagation, serialization plumbing, and the
// parallel classify; this class supplies pair classification, the node-
// processing policies, estimation, and the semi-join machinery.
#ifndef SDJOIN_CORE_DISTANCE_JOIN_H_
#define SDJOIN_CORE_DISTANCE_JOIN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/best_first.h"
#include "core/hybrid_queue.h"
#include "core/join_result.h"
#include "core/join_stats.h"
#include "core/max_dist_estimator.h"
#include "core/pair_entry.h"
#include "core/pair_queue.h"
#include "core/snapshot.h"
#include "geometry/code_screen.h"
#include "geometry/distance.h"
#include "geometry/metrics.h"
#include "geometry/rect_batch.h"
#include "obs/metrics.h"
#include "rtree/rtree.h"
#include "util/check.h"
#include "util/dynamic_bitset.h"
#include "util/stop_token.h"
#include "util/thread_pool.h"

namespace sdj {

// How node/node pairs are expanded (Section 2.2.2).
enum class NodeProcessingPolicy {
  kBasic,         // always process item 1 (Figure 3 as printed)
  kEven,          // process the node at the shallower level (the default)
  kSimultaneous,  // process both nodes at once with filter + plane sweep
  // Defer leaf expansion until BOTH items are leaf nodes, then process the
  // two leaves simultaneously — the strategy Section 2.2.2 recommends for
  // unbalanced structures without leaf bounding rectangles (quadtrees),
  // reducing per-object accesses.
  kDeferredLeaf,
};

// Semi-join duplicate filtering (Section 2.3 / Figure 9). kNone = plain join.
enum class SemiJoinFilter {
  kNone,
  kOutside,  // filter reportable pairs only, as they leave the queue
  kInside1,  // filter dequeued pairs inside the main loop
  kInside2,  // additionally filter pairs when nodes are expanded
};

// Semi-join d_max-bound exploitation (Section 4.2.1). All bound strategies
// imply Inside2 filtering, as in the paper's experiments.
enum class SemiJoinBound {
  kNone,
  kLocal,        // prune siblings within one ProcessNode call only
  kGlobalNodes,  // plus a global smallest-d_max table for R1 nodes
  kGlobalAll,    // plus a global table for R1 objects as well
};

// Query options for DistanceJoin (and, via SemiJoinOptions, the semi-join).
struct DistanceJoinOptions {
  Metric metric = Metric::kEuclidean;
  NodeProcessingPolicy node_policy = NodeProcessingPolicy::kEven;
  TieBreakPolicy tie_break = TieBreakPolicy::kDepthFirst;

  // Report only pairs with min_distance <= distance <= max_distance
  // (the WHERE clause of Figure 1; Section 2.2.3).
  double min_distance = 0.0;
  double max_distance = std::numeric_limits<double>::infinity();

  // Stop after this many result pairs (0 = unlimited); the STOP AFTER clause.
  uint64_t max_pairs = 0;
  // Use max_pairs to estimate and tighten max_distance while running
  // (Section 2.2.4). Requires max_pairs > 0.
  bool estimate_max_distance = false;
  // Estimate subtree cardinalities from average occupancy instead of the
  // guaranteed minimum; tighter but may force a restart (Section 2.2.4).
  bool aggressive_estimation = false;

  // Report pairs farthest-first instead (Section 2.2.5). With max_pairs and
  // estimate_max_distance set, the engine estimates a rising *minimum*
  // distance instead of a falling maximum (the symmetric construction the
  // paper describes at the end of Section 2.2.5).
  bool reverse_order = false;

  // Use the hybrid memory/disk priority queue (Section 3.2).
  bool use_hybrid_queue = false;
  HybridQueueOptions hybrid;

  // Worker threads for the expansion step (1 = serial; below 1 is
  // kInvalidArgument). Child-pair scoring is sharded across threads and
  // merged in slot order, so the output pair stream — and every statistic
  // — is identical to the serial engine's (DESIGN.md §10). Only expansions
  // with enough candidates to amortize the handoff are sharded;
  // configurations that consult shared mutable state per candidate
  // (estimation, semi-join bounds, Inside2 filtering, object predicates)
  // always classify serially, though still scored by batch kernels.
  int num_threads = 1;

  // Partition the pair space across this many independent engines merged
  // nearest-first by a k-way frontier merge (core/shard_plan.h +
  // core/shard_merge.h, DESIGN.md §18). Consumed by the Sharded* wrapper
  // types — a raw DistanceJoin ignores it. 0 = take the SDJ_SHARDS
  // environment default (1 when unset); explicit values >= 1 win. The
  // merged stream is bit-identical to the serial engine at any shard count.
  int shards = 0;

  // Internal (core/shard_plan.h): construct the engine without seeding the
  // root pair; the shard plan adopts externally planned entries instead.
  // Not for direct use — an engine built with this and never adopted
  // reports an empty result.
  bool defer_seed = false;

  // If set, leaf entries are treated as object bounding rectangles and this
  // callback supplies the exact object distance (Figure 3, lines 7-14).
  // If unset, objects are stored directly in the leaves (the paper's
  // experimental configuration) and entry MBRs are exact geometry.
  std::function<double(ObjectId, ObjectId)> exact_object_distance;

  // Cooperative suspension (DESIGN.md §11): once the token requests a stop
  // (cancellation or deadline), Next() halts at the next safe point — the
  // top of its pop/expand loop — with status() == kSuspended. The engine's
  // state is then self-consistent and serializable (SaveState), and the join
  // continues after ResumeSuspended(). Checked only in the serial loop, so
  // parallel mode stays output-identical to serial.
  util::StopToken stop_token;

  // Optional observability sink (DESIGN.md §12). When set, the engine
  // records expansion-phase latency, the hybrid queue (if used) adds refill
  // stalls, spill latency, and its page I/O, and trace events flow to the
  // sink's TraceSink if one is attached. Null disables everything; every
  // instrumentation point then costs one pointer test. Like num_threads,
  // the pointer is not part of the snapshot fingerprint — durations are
  // observations, never engine state, so metrics on/off cannot change the
  // pair stream or JoinStats.
  obs::Metrics* metrics = nullptr;

  // Which SIMD path the batched distance kernels take (DESIGN.md §15).
  // kAuto detects the best supported ISA once per process; explicit requests
  // degrade to the nearest supported path, never upgrade. Every path is
  // bit-identical to scalar, so — like num_threads — the choice cannot
  // change the pair stream, any statistic, or the snapshot fingerprint.
  // Overridable per process with SDJ_KERNEL and per CLI run with --kernel=.
  simd::Isa kernel_isa = simd::Isa::kAuto;

  // Integer-domain candidate screening on quantized node pages (DESIGN.md
  // §17): screen entry codes against the query in u16 arithmetic and decode
  // only possible survivors. Screening removes only entries the classify
  // ladder would prune as out-of-range, so the pair stream and every
  // pre-existing statistic are byte-identical with it on or off (only the
  // screened_candidates/screen_survivors counters differ); it engages only
  // in configurations where that equivalence is provable (quantized pages,
  // finite max_distance, forward order, fast-path classify, no windows).
  // Defaults on; SDJ_SCREEN=off disables per process, --screen= per CLI
  // run. Unlike kernel_isa this IS part of the snapshot fingerprint, since
  // the screening counters persist in saved stats.
  bool screen_codes = code_screen::DefaultEnabled();
};

// Optional selection criteria on the joined relations (Section 2.2.5's first
// extension / Section 5's option 1): spatial windows prune whole subtrees,
// attribute predicates filter objects as the pipeline produces them.
template <int Dim>
struct JoinFilters {
  // Only objects whose geometry intersects the window participate. Nodes
  // whose MBR misses the window are pruned wholesale.
  std::optional<Rect<Dim>> window1;
  std::optional<Rect<Dim>> window2;
  // Arbitrary per-object predicates (e.g., "population > 5 million").
  // Applied to objects only — subtrees cannot be pruned by attributes.
  std::function<bool(ObjectId)> object_filter1;
  std::function<bool(ObjectId)> object_filter2;

  bool Empty() const {
    return !window1.has_value() && !window2.has_value() &&
           object_filter1 == nullptr && object_filter2 == nullptr;
  }
};

// Incremental distance join iterator over two R-trees. The trees must
// outlive the iterator and must not be modified while iterating.
//
//   DistanceJoin<2> join(water, roads, options);
//   JoinResult<2> pair;
//   while (join.Next(&pair)) Use(pair);   // pairs by non-decreasing distance
//
// The two trailing constructor parameters select the semi-join variants;
// DistanceSemiJoin (core/semi_join.h) is the adapter that sets them.
//
// `Index` is the spatial index type; any hierarchical structure exposing the
// RTree<Dim> read interface works (the paper's "large class of hierarchical
// spatial data structures"). Indexes whose node regions do not minimally
// bound their contents (minimal_bounding_regions() == false, e.g., the
// PointQuadtree or a quantized R-tree) automatically get the
// containment-only d_max bounds.
//
// Next(), status(), ResumeSuspended(), stats(), and
// max_memory_queue_size() are inherited from the best-first core.
template <int Dim, typename Index = RTree<Dim>>
class DistanceJoin
    : public BestFirstEngine<Dim, DistanceJoin<Dim, Index>, Index,
                             JoinResult<Dim>> {
  using Base =
      BestFirstEngine<Dim, DistanceJoin<Dim, Index>, Index, JoinResult<Dim>>;
  // The core invokes the policy hooks below, which stay private.
  friend Base;

 public:
  DistanceJoin(const Index& tree1, const Index& tree2,
               const DistanceJoinOptions& options,
               JoinFilters<Dim> filters = JoinFilters<Dim>{},
               SemiJoinFilter semi_filter = SemiJoinFilter::kNone,
               SemiJoinBound semi_bound = SemiJoinBound::kNone)
      : Base({&tree1.pool(), &tree2.pool()}, MakeConfig(options)),
        tree1_(tree1),
        tree2_(tree2),
        options_(options),
        filters_(std::move(filters)),
        // The paper's coupling rule (Section 4.2.1): bounds imply Inside2.
        semi_filter_(semi_bound == SemiJoinBound::kNone
                         ? semi_filter
                         : SemiJoinFilter::kInside2),
        semi_bound_(semi_bound),
        // A semi-join estimates with the variant of Section 2.3.
        semi_estimation_(options.estimate_max_distance &&
                         semi_filter_ != SemiJoinFilter::kNone),
        minimal_regions_(tree1.minimal_bounding_regions() &&
                         tree2.minimal_bounding_regions()),
        isa_(simd::Resolve(options.kernel_isa)) {
    // Query configuration is user input: a violated precondition is
    // reported through status() (kInvalidArgument), never an abort.
    const bool valid =
        // A well-formed range (NaN bounds fail the comparisons too).
        options.min_distance >= 0.0 &&
        options.min_distance <= options.max_distance &&
        options.num_threads >= 1 &&
        (!options.estimate_max_distance || options.max_pairs > 0) &&
        // The tiered queue buckets nondecreasing keys; reverse keys are
        // negated upper bounds.
        !(options.use_hybrid_queue && options.reverse_order) &&
        // Reverse semi-join estimation would estimate the wrong bound (the
        // paper's Section 2.3 discussion); plain reverse semi-joins are fine.
        !(semi_estimation_ && options.reverse_order) &&
        // Estimation counts distinct first objects as they are reported,
        // which Outside filtering (at report time only) cannot supply.
        !(semi_filter_ == SemiJoinFilter::kOutside &&
          options.estimate_max_distance) &&
        // Selection filters remove result pairs, so subtree-cardinality-
        // based estimation would overcount and over-prune.
        (!options.estimate_max_distance || filters_.Empty()) &&
        // Filters on the second relation break the SemiPairMaxDist bounds:
        // the nearest *qualifying* partner can be farther than the bound.
        (semi_bound == SemiJoinBound::kNone ||
         (!filters_.window2.has_value() &&
          filters_.object_filter2 == nullptr)) &&
        // Dense-object-id precondition (CLAUDE.md): the semi-join bit
        // string S_o and the bound tables index by object id, so ids must
        // lie in [0, size).
        !(semi_filter_ != SemiJoinFilter::kNone && tree1.size() > 0 &&
          tree1.max_object_id() >= tree1.size());
    if (!valid) {
      RejectOptions();
      return;
    }
    if (semi_filter_ != SemiJoinFilter::kNone) reported_.Resize(tree1.size());
    if (semi_bound_ == SemiJoinBound::kGlobalNodes ||
        semi_bound_ == SemiJoinBound::kGlobalAll) {
      node_bounds_.assign(tree1.pool().num_pages(),
                          std::numeric_limits<double>::infinity());
    }
    if (semi_bound_ == SemiJoinBound::kGlobalAll) {
      object_bounds_.assign(tree1.size(),
                            std::numeric_limits<double>::infinity());
    }
    ResetEstimator();
    if (!options.defer_seed) Seed();
  }

  // The currently effective maximum distance (query bound or estimate).
  double effective_max_distance() const { return EffectiveMax(); }

  // ---- snapshot support (DESIGN.md §11) ----

  // Serializes the complete engine state — queue entries and tier frontier,
  // estimator, S_o bit string, bound tables, statistics, and sequence
  // counters — into `out`. Must be called at a safe point: before the first
  // Next(), between Next() calls, or after Next() returned false (notably
  // with status kSuspended). Returns false if the state cannot be captured
  // completely (an unreadable hybrid-queue disk page, or an engine already
  // failed with kIoError); `out` must then be discarded.
  bool SaveState(snapshot::Blob* out) {
    if (!this->SaveAllowed()) return false;
    out->Append(Fingerprint());
    // Policy cursor scalars, then the core section (seq counter, status,
    // statistics, queue frontier + entries).
    out->PutU64(reported_count_);
    out->PutU64(replay_);
    out->PutBool(estimation_disabled_);
    // The policy tail follows the core section on the wire; it is encoded
    // first so SaveCore can reserve room for it too, and the snapshot is
    // built in one allocation.
    snapshot::Blob tail;
    tail.PutBool(estimator_.has_value());
    if (estimator_.has_value()) estimator_->SaveTo(&tail);
    tail.PutU64(reported_.size());
    tail.PutU64(reported_.WordCount());
    for (size_t i = 0; i < reported_.WordCount(); ++i) {
      tail.PutU64(reported_.Word(i));
    }
    tail.PutU64(node_bounds_.size());
    for (const double b : node_bounds_) tail.PutDouble(b);
    tail.PutU64(object_bounds_.size());
    for (const double b : object_bounds_) tail.PutDouble(b);
    if (!this->SaveCore(out, tail.size())) return false;
    out->Append(tail);
    return true;
  }

  // Rebuilds the engine state from SaveState's output. The engine must have
  // been constructed over the same trees with the same options (verified
  // against the fingerprint — mismatch returns false with the engine
  // untouched). A malformed blob past the fingerprint also returns false;
  // the engine is then unusable and must be reconstructed. On success the
  // rebuilt queue pops the exact sequence the saved one would have (the
  // entry comparator is a total order), so the resumed pair stream is
  // bit-identical to an uninterrupted run's remainder.
  bool RestoreState(snapshot::BlobReader* in) {
    if (!in->Expect(Fingerprint())) return false;
    reported_count_ = in->GetU64();
    replay_ = in->GetU64();
    estimation_disabled_ = in->GetBool();
    if (!in->ok()) return false;
    if (!this->RestoreCore(in)) return false;
    ResetEstimator();  // honors the restored estimation_disabled_
    const bool saved_estimator = in->GetBool();
    if (saved_estimator != estimator_.has_value()) return false;
    if (saved_estimator && !estimator_->RestoreFrom(in)) return false;
    if (in->GetU64() != reported_.size()) return false;
    if (in->GetCount(8) != reported_.WordCount()) return false;
    for (size_t i = 0; i < reported_.WordCount(); ++i) {
      reported_.SetWord(i, in->GetU64());
    }
    if (in->GetCount(8) != node_bounds_.size()) return false;
    for (double& b : node_bounds_) b = in->GetDouble();
    if (in->GetCount(8) != object_bounds_.size()) return false;
    for (double& b : object_bounds_) b = in->GetDouble();
    if (!in->ok()) return false;
    resolved_ready_ = false;
    return true;
  }

 protected:
  // Stops the engine with kInvalidArgument: no results, no snapshot. Option
  // adapters call it for options that match no engine configuration.
  void RejectOptions() { status_ = JoinStatus::kInvalidArgument; }

 private:
  using Item = typename Base::Item;
  using Entry = typename Base::Entry;
  using Base::kInf;

  // Shared core state and helpers (CRTP base members are dependent names).
  using Base::batch1_;
  using Base::batch2_;
  using Base::left_;
  using Base::mind1_;
  using Base::mind2_;
  using Base::next_seq_;
  using Base::queue_;
  using Base::refs1_;
  using Base::refs2_;
  using Base::right_;
  using Base::stats_;
  using Base::status_;
  using Base::MarkIoError;
  using Base::PinDecode;
  using Base::PinDecodeScreened;
  using Base::ScreenedDecode;

  static constexpr uint32_t kStateMagic = 0x534A4A43;  // "SJJC"
  // Version 2: the cursor scalars moved around the shared core section
  // (core/best_first.h SaveCore).
  // Version 3: screen_codes in the fingerprint, screening counters in the
  // shared stats section.
  static constexpr uint32_t kStateVersion = 3;

  // The config fingerprint: the resuming engine must be constructed over
  // the same trees with the same query configuration. Written once, here,
  // for both SaveState and RestoreState's byte comparison.
  snapshot::Blob Fingerprint() const {
    snapshot::Blob fp;
    fp.PutU32(kStateMagic);
    fp.PutU32(kStateVersion);
    fp.PutU32(static_cast<uint32_t>(Dim));
    fp.PutU8(static_cast<uint8_t>(options_.metric));
    fp.PutU8(static_cast<uint8_t>(options_.node_policy));
    fp.PutU8(static_cast<uint8_t>(options_.tie_break));
    fp.PutBool(options_.reverse_order);
    fp.PutDouble(options_.min_distance);
    fp.PutDouble(options_.max_distance);
    fp.PutU64(options_.max_pairs);
    fp.PutBool(options_.estimate_max_distance);
    fp.PutBool(options_.aggressive_estimation);
    fp.PutBool(options_.use_hybrid_queue);
    fp.PutDouble(options_.hybrid.tier_width);
    fp.PutU8(static_cast<uint8_t>(semi_filter_));
    fp.PutU8(static_cast<uint8_t>(semi_bound_));
    fp.PutBool(semi_estimation_);
    fp.PutBool(options_.exact_object_distance != nullptr);
    fp.PutBool(filters_.Empty());
    fp.PutBool(minimal_regions_);
    fp.PutBool(options_.screen_codes);
    fp.PutU64(tree1_.size());
    fp.PutU64(tree2_.size());
    return fp;
  }

  static BestFirstConfig MakeConfig(const DistanceJoinOptions& options) {
    BestFirstConfig config;
    config.tie_break = options.tie_break;
    config.use_hybrid_queue = options.use_hybrid_queue;
    config.hybrid = options.hybrid;
    // A bad count is rejected by the constructor; the pool must still be
    // constructible until then.
    config.num_threads = std::max(1, options.num_threads);
    config.stop_token = options.stop_token;
    config.metrics = options.metrics;
    return config;
  }

  // ---- policy hooks (invoked by the core's Next loop) ----

  bool BeforeIteration() {
    if (options_.max_pairs > 0 && reported_count_ >= options_.max_pairs) {
      status_ = JoinStatus::kExhausted;
      return false;
    }
    return true;
  }

  // Restart re-seeds through RootItem; an unreadable root ends the join
  // with kIoError instead of re-entering the loop.
  bool OnQueueDrained() {
    if (!NeedRestart()) return false;
    Restart();
    return status_ == JoinStatus::kOk;
  }

  PopAction OnPopped(const Entry& e, JoinResult<Dim>* out) {
    if (estimator_.has_value()) {
      estimator_->OnDequeue(KeyOf(e.item1, e.item2));
    }
    // Global cut-offs: with ascending keys, once the head violates the
    // distance window nothing behind it can produce results.
    if (!options_.reverse_order) {
      if (e.distance > EffectiveMax()) {
        stats_.pruned_by_estimate += 1 + queue_->Size();
        queue_->Clear();
        return PopAction::kSkip;
      }
    } else {
      // Reverse mode keys are negated upper bounds.
      if (-e.key < EffectiveMin()) {
        stats_.pruned_by_range += 1 + queue_->Size();
        queue_->Clear();
        return PopAction::kSkip;
      }
    }
    // Semi-join Inside1/Inside2: drop pairs whose first object was already
    // paired (Section 2.3).
    if (semi_filter_ == SemiJoinFilter::kInside1 ||
        semi_filter_ == SemiJoinFilter::kInside2) {
      if (e.item1.is_object_like() && IsReported(e.item1.ref)) {
        ++stats_.filtered_reported;
        return PopAction::kSkip;
      }
    }
    // Semi-join global bounds: a pair whose MINDIST exceeds the best known
    // d_max for its first item can never contain a first pair.
    if (IsPrunedByBound(e.item1, e.distance)) {
      ++stats_.pruned_by_bound;
      return PopAction::kSkip;
    }

    if (e.IsObjectPair()) {
      if (!ReportableDistance(e.distance)) return PopAction::kSkip;
      if (!AcceptSemiReport(e.item1.ref)) return PopAction::kSkip;
      if (estimator_.has_value()) NotifyReport(e.item1.ref);
      if (replay_ > 0) {
        --replay_;
        return PopAction::kSkip;
      }
      Fill(e, out);
      ++reported_count_;
      ++stats_.pairs_reported;
      return PopAction::kReported;
    }
    if (e.IsObrPair()) {
      ResolveObrPair(e, out);
      if (resolved_ready_) {
        resolved_ready_ = false;
        return PopAction::kReported;
      }
      return PopAction::kSkip;
    }
    return PopAction::kExpand;
  }

  // ---- construction helpers ----

  void ResetEstimator() {
    if (options_.estimate_max_distance && !estimation_disabled_) {
      // In reverse mode the estimator runs on negated values, so that its
      // falling "maximum" is a rising minimum distance (Section 2.2.5).
      const double initial = options_.reverse_order ? -options_.min_distance
                                                    : options_.max_distance;
      estimator_.emplace(options_.max_pairs, initial, semi_estimation_);
    } else {
      estimator_.reset();
    }
    // Which upper bounds the ladder needs depends on the estimator only
    // through its presence, so it is fixed until the next reset.
    need_join_dmax_ = options_.min_distance > 0.0 ||
                      (estimator_.has_value() && !semi_estimation_) ||
                      options_.reverse_order;
    need_semi_dmax_ = semi_bound_ != SemiJoinBound::kNone ||
                      (estimator_.has_value() && semi_estimation_);
  }

  void Seed() {
    if (tree1_.empty() || tree2_.empty()) return;
    Item root1;
    Item root2;
    if (!this->RootItem(tree1_, &root1) || !this->RootItem(tree2_, &root2)) {
      return;
    }
    EnqueuePairs(
        1, /*pre_mind=*/nullptr, /*semi_hint=*/nullptr, /*object_pair=*/false,
        /*screened=*/0, [&](size_t) -> const Item& { return root1; },
        [&](size_t) -> const Item& { return root2; });
  }

  // ---- small helpers ----

  JoinItemKind ObjectKind() const {
    return options_.exact_object_distance ? JoinItemKind::kObjectRect
                                          : JoinItemKind::kObject;
  }

  double EffectiveMax() const {
    if (estimator_.has_value() && !options_.reverse_order) {
      return std::min(options_.max_distance, estimator_->max_distance());
    }
    return options_.max_distance;
  }

  double EffectiveMin() const {
    if (estimator_.has_value() && options_.reverse_order) {
      return std::max(options_.min_distance, -estimator_->max_distance());
    }
    return options_.min_distance;
  }

  bool ReportableDistance(double d) const {
    return d >= options_.min_distance && d <= options_.max_distance;
  }

  bool IsReported(uint64_t id) const {
    return id < reported_.size() && reported_.Test(id);
  }

  // Claims `id1` in S_o; returns false if it was already claimed. Every
  // semi-join filter ends here; Outside checks nowhere else. No-op (true)
  // for plain joins.
  bool AcceptSemiReport(uint64_t id1) {
    if (semi_filter_ == SemiJoinFilter::kNone) return true;
    SDJ_CHECK(id1 < reported_.size());
    if (!reported_.TestAndSet(id1)) {
      ++stats_.filtered_reported;
      return false;
    }
    return true;
  }

  void NotifyReport(uint64_t id1) {
    if (!estimator_.has_value()) return;
    if (semi_estimation_) {
      // AcceptSemiReport already deduped, so every report is a fresh first
      // object.
      estimator_->OnReportSemi(EncodeEstimatorItem(
          static_cast<uint8_t>(ObjectKind()), -1, id1));
    } else {
      estimator_->OnReportJoin();
    }
  }

  static MaxDistEstimator::PairKey KeyOf(const Item& a, const Item& b) {
    return MaxDistEstimator::PairKey{
        EncodeEstimatorItem(static_cast<uint8_t>(a.kind), a.level, a.ref),
        EncodeEstimatorItem(static_cast<uint8_t>(b.kind), b.level, b.ref)};
  }

  void Fill(const Entry& e, JoinResult<Dim>* out) const {
    out->id1 = e.item1.ref;
    out->id2 = e.item2.ref;
    out->rect1 = e.item1.rect;
    out->rect2 = e.item2.rect;
    out->distance = e.distance;
  }

  // ---- semi-join d_max bounds ----

  // Selects the minimality-aware or containment-only semi-join bound. A
  // runtime choice because minimality can depend on construction options,
  // not just the index type: a quantized R-tree's outward-rounded MBRs are
  // not minimal even though RTree::kMinimalBoundingRegions is true.
  double SemiDmax(const Item& a, const Item& b) const {
    if (minimal_regions_) {
      return SemiPairMaxDist(a, b, options_.metric);
    }
    return SemiPairMaxDistLoose(a, b, options_.metric);
  }

  double BoundOf(const Item& item) const {
    if (item.is_node()) {
      if ((semi_bound_ == SemiJoinBound::kGlobalNodes ||
           semi_bound_ == SemiJoinBound::kGlobalAll) &&
          item.ref < node_bounds_.size()) {
        return node_bounds_[item.ref];
      }
    } else if (semi_bound_ == SemiJoinBound::kGlobalAll &&
               item.ref < object_bounds_.size()) {
      return object_bounds_[item.ref];
    }
    return kInf;
  }

  bool IsPrunedByBound(const Item& item1, double d) const {
    return semi_bound_ != SemiJoinBound::kNone && d > BoundOf(item1);
  }

  void UpdateBound(const Item& item1, double dmax) {
    if (item1.is_node()) {
      if ((semi_bound_ == SemiJoinBound::kGlobalNodes ||
           semi_bound_ == SemiJoinBound::kGlobalAll) &&
          item1.ref < node_bounds_.size()) {
        node_bounds_[item1.ref] = std::min(node_bounds_[item1.ref], dmax);
      }
    } else if (semi_bound_ == SemiJoinBound::kGlobalAll &&
               item1.ref < object_bounds_.size()) {
      object_bounds_[item1.ref] = std::min(object_bounds_[item1.ref], dmax);
    }
  }

  // ---- pair creation ----

  // Lower bound on results generated from (a, b), for the estimator.
  uint64_t CountLowerBound(const Item& a, const Item& b) const {
    const auto side = [this](const Item& item, const Index& tree) {
      if (!item.is_node()) return 1.0;
      return options_.aggressive_estimation
                 ? tree.ExpectedObjectsUnder(item.level)
                 : static_cast<double>(tree.MinObjectsUnder(item.level));
    };
    const double n1 = side(a, tree1_);
    const double n2 = semi_estimation_ ? 1.0 : side(b, tree2_);
    const double product = std::max(1.0, n1) * std::max(1.0, n2);
    return product >= 1e18 ? static_cast<uint64_t>(1e18)
                           : static_cast<uint64_t>(product);
  }

  // ---- the acceptance ladder (Figure 3's pair creation) ----

  // Where Classify stopped a candidate pair, one value per rejecting rung
  // plus kAccept. The verdict alone fixes what the candidate is charged
  // (EnqueuePairs).
  enum class Verdict : uint8_t {
    kAccept,        // entry built and enqueued
    kFiltered,      // outside a window or failing an object predicate
    kReported,      // Inside2: its first object is already in S_o
    kOverMax,       // MINDIST above the query's Dmax
    kOverEstimate,  // MINDIST above the estimated Dmax
    kUnderMin,      // join d_max below the (estimated) Dmin
    kOverBound,     // MINDIST above the semi-join d_max bound of item 1
    kCount,
  };

  // No precomputed score: Classify computes it.
  static constexpr double kNoScore = -1.0;

  // Classifies the candidate pair (a, b), rung by rung in the paper's
  // order; on kAccept, *score gets the entry's distance and key.
  // `pre_mind` / `semi_hint`, unless kNoScore, carry PairMinDist(a, b) /
  // SemiDmax(a, b) from a batch kernel (bit-identical to the scalar calls by
  // the rect_batch.h contract). Charges no counter. Under FastPathActive()
  // it reads only state no candidate changes, so the core may run it on
  // pool threads; otherwise it updates the bound tables and the estimator.
  Verdict Classify(const Item& a, const Item& b, double pre_mind,
                   double semi_hint, typename Base::SlotScore* score) {
    // 1. Selection criteria (Section 2.2.5): spatial windows prune nodes
    // and objects alike; attribute predicates apply to objects only.
    if ((filters_.window1.has_value() &&
         !a.rect.Intersects(*filters_.window1)) ||
        (filters_.window2.has_value() &&
         !b.rect.Intersects(*filters_.window2)) ||
        (a.is_object_like() && filters_.object_filter1 != nullptr &&
         !filters_.object_filter1(a.ref)) ||
        (b.is_object_like() && filters_.object_filter2 != nullptr &&
         !filters_.object_filter2(b.ref))) {
      return Verdict::kFiltered;
    }
    // 2. Inside2: never create pairs for already-reported first objects.
    if (semi_filter_ == SemiJoinFilter::kInside2 && a.is_object_like() &&
        IsReported(a.ref)) {
      return Verdict::kReported;
    }
    // 3. MINDIST against the effective Dmax.
    const double d =
        pre_mind != kNoScore ? pre_mind : PairMinDist(a, b, options_.metric);
    const double eff_max = EffectiveMax();
    if (d > eff_max) {
      return estimator_.has_value() && eff_max < options_.max_distance
                 ? Verdict::kOverEstimate
                 : Verdict::kOverMax;
    }
    // 4. Every result from this pair lies below Dmin (Figure 5), or below
    // the reverse-mode minimum-distance estimate.
    double join_dmax = kInf;
    if (need_join_dmax_) {
      join_dmax = PairMaxDist(a, b, options_.metric);
      if (join_dmax < EffectiveMin()) return Verdict::kUnderMin;
    }
    // 5. The semi-join d_max bound of item 1, then its update.
    double semi_dmax = semi_hint;
    if (need_semi_dmax_ && semi_dmax == kNoScore) semi_dmax = SemiDmax(a, b);
    if (semi_bound_ != SemiJoinBound::kNone) {
      if (d > BoundOf(a)) return Verdict::kOverBound;
      UpdateBound(a, semi_dmax);
    }
    // 6. The estimator sees every enqueued pair (Section 2.2.4).
    if (estimator_.has_value()) {
      if (options_.reverse_order) {
        // Negated mapping: the estimator's falling maximum of (-distance)
        // is a rising minimum distance.
        estimator_->OnEnqueue(KeyOf(a, b), -join_dmax, -d,
                              CountLowerBound(a, b), -options_.max_distance);
      } else {
        estimator_->OnEnqueue(KeyOf(a, b), d,
                              semi_estimation_ ? semi_dmax : join_dmax,
                              CountLowerBound(a, b), options_.min_distance);
      }
    }
    *score = {d, options_.reverse_order ? -join_dmax : d};
    return Verdict::kAccept;
  }

  // Classifies and enqueues n candidate pairs — get_a/get_b map a slot to
  // its items; pre_mind / semi_hint, when non-null, hold per-slot scores —
  // then charges every ladder counter once from the verdict counts.
  // `object_pair` says both sides are exact objects (the Dist. Calc.
  // counter). The `screened` entries integer code screening dropped count
  // as kOverMax: the screen drops only what that rung would.
  template <typename GetA, typename GetB>
  void EnqueuePairs(size_t n, const double* pre_mind, const double* semi_hint,
                    bool object_pair, size_t screened, const GetA& get_a,
                    const GetB& get_b) {
    typename Base::Tally tally = this->ClassifyAndEnqueue(
        FastPathActive(), n,
        [&](size_t i, typename Base::SlotScore* score) {
          return Classify(get_a(i), get_b(i),
                          pre_mind != nullptr ? pre_mind[i] : kNoScore,
                          semi_hint != nullptr ? semi_hint[i] : kNoScore,
                          score);
        },
        get_a, get_b);
    const auto count = [&](Verdict v) {
      return tally[static_cast<size_t>(v)];
    };
    const uint64_t over_max = count(Verdict::kOverMax) + screened;
    const uint64_t under_min = count(Verdict::kUnderMin);
    // Candidates past rung 4: both upper bounds were due.
    const uint64_t past_min =
        count(Verdict::kOverBound) + count(Verdict::kAccept);
    // Candidates whose MINDIST was taken.
    const uint64_t scored =
        over_max + count(Verdict::kOverEstimate) + under_min + past_min;
    stats_.queue_pushes += count(Verdict::kAccept);
    stats_.pruned_by_filter += count(Verdict::kFiltered);
    stats_.filtered_reported += count(Verdict::kReported);
    stats_.pruned_by_range += over_max + under_min;
    stats_.pruned_by_estimate += count(Verdict::kOverEstimate);
    stats_.pruned_by_bound += count(Verdict::kOverBound);
    stats_.total_distance_calcs +=
        scored + (need_join_dmax_ ? under_min + past_min : 0) +
        (need_semi_dmax_ && semi_hint == nullptr ? past_min : 0);
    if (object_pair) stats_.object_distance_calcs += scored;
  }

  // ---- node expansion ----

  // All expansion paths report page-read failures through their return value
  // (never SDJ_CHECK): false means status_ is now kIoError and iteration
  // must stop with the partial result produced so far.
  bool Expand(const Entry& e) {
    const bool n1 = e.item1.is_node();
    const bool n2 = e.item2.is_node();
    SDJ_CHECK(n1 || n2);
    if (n1 && n2) {
      switch (options_.node_policy) {
        case NodeProcessingPolicy::kBasic:
          return ProcessNode(e, false);
        case NodeProcessingPolicy::kEven:
          // Expand the node at the shallower level; ties to item 1.
          return ProcessNode(e, e.item2.level > e.item1.level);
        case NodeProcessingPolicy::kSimultaneous:
          if (e.item1.level == e.item2.level) return ProcessBoth(e);
          return ProcessNode(e, e.item2.level > e.item1.level);
        case NodeProcessingPolicy::kDeferredLeaf: {
          bool leaf1;
          bool leaf2;
          {
            typename Index::PinnedNode node1 =
                tree1_.TryPin(static_cast<storage::PageId>(e.item1.ref));
            if (!node1.ok()) return MarkIoError();
            leaf1 = node1.is_leaf();
          }
          {
            typename Index::PinnedNode node2 =
                tree2_.TryPin(static_cast<storage::PageId>(e.item2.ref));
            if (!node2.ok()) return MarkIoError();
            leaf2 = node2.is_leaf();
          }
          if (leaf1 && leaf2) return ProcessBoth(e);
          if (leaf1) return ProcessNode(e, true);
          if (leaf2) return ProcessNode(e, false);
          return ProcessNode(e, e.item2.level > e.item1.level);
        }
      }
    }
    return ProcessNode(e, !n1);
  }

  // ---- batched scoring and parallel expansion (DESIGN.md §10) ----

  // SemiDmax over a whole batch of second-side children: the children of one
  // node share a kind, so a single kernel covers the batch. Case analysis
  // mirrors SemiPairMaxDist / SemiPairMaxDistLoose with `a` fixed and the
  // batch on the second-argument side (batch_is_first = false for the
  // asymmetric kernels); bit-identical per the rect_batch.h contract.
  void SemiDmaxBatch(const Item& a, const RectBatch<Dim>& batch,
                     JoinItemKind child_kind, double* out) {
    ++stats_.batch_kernel_invocations;
    const size_t n = batch.size();
    if (minimal_regions_) {
      if (a.is_node()) {
        if (child_kind == JoinItemKind::kObject) {
          MaxMinDistBatch(batch, a.rect, options_.metric,
                          /*batch_is_first=*/false, out, 0, n, isa_);
        } else {
          MaxMinMaxDistBatch(batch, a.rect, options_.metric,
                             /*batch_is_first=*/false, out, 0, n, isa_);
        }
        return;
      }
      if (a.kind == JoinItemKind::kObject &&
          child_kind == JoinItemKind::kObject) {
        MinDistBatch(batch, a.rect, options_.metric, out, 0, n, isa_);
        return;
      }
      MinMaxDistBatch(batch, a.rect, options_.metric, out, 0, n, isa_);
    } else {
      if (child_kind == JoinItemKind::kNode) {
        MaxDistBatch(batch, a.rect, options_.metric, out, 0, n, isa_);
        return;
      }
      if (a.kind == JoinItemKind::kObject &&
          child_kind == JoinItemKind::kObject) {
        MinDistBatch(batch, a.rect, options_.metric, out, 0, n, isa_);
        return;
      }
      if (child_kind == JoinItemKind::kObject && a.is_node()) {
        MaxMinDistBatch(batch, a.rect, options_.metric,
                        /*batch_is_first=*/false, out, 0, n, isa_);
        return;
      }
      MinMaxDistBatch(batch, a.rect, options_.metric, out, 0, n, isa_);
    }
  }

  // Candidate acceptance is a pure per-pair function exactly when nothing
  // shared and mutable is consulted between candidates: no distance
  // estimation, no semi-join d_max bounds or Inside2 bitmap, no user object
  // predicates (which may be stateful). Spatial windows are pure and stay
  // eligible. Only then may candidates be scored out of order (in parallel).
  bool FastPathActive() const {
    return !estimator_.has_value() && semi_bound_ == SemiJoinBound::kNone &&
           semi_filter_ != SemiJoinFilter::kInside2 &&
           filters_.object_filter1 == nullptr &&
           filters_.object_filter2 == nullptr;
  }

  // Integer code screening may drop an entry only when Classify is
  // guaranteed to reject it as kOverMax: no earlier rung may claim it (no
  // window; FastPathActive rules out object predicates and Inside2),
  // max_distance must be the finite, fixed bound screening was derived
  // against (no estimator — implied by FastPathActive), and forward order
  // (reverse keeps far pairs). Quantized-vs-raw pages are resolved per node
  // by DecodeScreened itself.
  bool ScreenEligible() const {
    return options_.screen_codes && FastPathActive() &&
           !filters_.window1.has_value() && !filters_.window2.has_value() &&
           std::isfinite(options_.max_distance) && !options_.reverse_order;
  }

  // PROCESSNODE (Figure 3): pair every entry of one item's node with the
  // other item — item 2's node when `second`, else item 1's. The node is
  // decoded into a rectangle batch once, scored by MinDistBatch, and the
  // children go through the acceptance ladder in entry order.
  bool ProcessNode(const Entry& e, bool second) {
    const Index& tree = second ? tree2_ : tree1_;
    const Item& node = second ? e.item2 : e.item1;
    const Item& other = second ? e.item1 : e.item2;
    RectBatch<Dim>& batch = second ? batch2_ : batch1_;
    std::vector<uint64_t>& refs = second ? refs2_ : refs1_;
    std::vector<double>& mind = second ? mind2_ : mind1_;
    std::vector<Item>& children = second ? right_ : left_;
    bool leaf;
    int level;
    size_t screened = 0;
    if (ScreenEligible()) {
      if (!PinDecodeScreened(tree, node.ref, other.rect,
                             options_.max_distance, isa_, &batch, &refs,
                             &leaf, &level, &screened)) {
        return MarkIoError();
      }
    } else if (!PinDecode(tree, node.ref, &batch, &refs, &leaf, &level)) {
      return MarkIoError();
    }
    ++stats_.nodes_expanded;
    if (!second && estimator_.has_value() && semi_estimation_) {
      estimator_->MarkFirstItemProcessed(EncodeEstimatorItem(
          static_cast<uint8_t>(node.kind), node.level, node.ref));
    }
    size_t n = batch.size();
    mind.resize(n);
    MinDistBatch(batch, other.rect, options_.metric, mind.data(), 0, n, isa_);
    ++stats_.batch_kernel_invocations;
    this->BuildChildItems(batch, refs, leaf, level, ObjectKind(), &children);
    const JoinItemKind child_kind = leaf ? ObjectKind() : JoinItemKind::kNode;
    const bool object_pair = child_kind == JoinItemKind::kObject &&
                             other.kind == JoinItemKind::kObject;
    const double* semi_hint = nullptr;
    if (second && semi_bound_ != SemiJoinBound::kNone) {
      // The Local bound (Section 4.2.1): every new pair shares item 1, so
      // the smallest d_max across the node's entries (one kernel — the
      // children of a node share a kind) prunes their siblings. Survivors
      // are compacted in entry order and carry their d_max as a hint.
      semi_dmax_.resize(n);
      SemiDmaxBatch(other, batch, child_kind, semi_dmax_.data());
      double best = BoundOf(other);
      for (size_t i = 0; i < n; ++i) best = std::min(best, semi_dmax_[i]);
      UpdateBound(other, best);
      // One d_max and one comparison against `best` per entry.
      stats_.total_distance_calcs += 2 * n;
      size_t kept = 0;
      for (size_t i = 0; i < n; ++i) {
        if (mind[i] > best) continue;
        children[kept] = children[i];
        mind[kept] = mind[i];
        semi_dmax_[kept] = semi_dmax_[i];
        ++kept;
      }
      stats_.pruned_by_bound += n - kept;
      n = kept;
      semi_hint = semi_dmax_.data();
    }
    EnqueuePairs(
        n, mind.data(), semi_hint, object_pair, screened,
        [&](size_t i) -> const Item& { return second ? other : children[i]; },
        [&](size_t i) -> const Item& { return second ? children[i] : other; });
    return true;
  }

  // Simultaneous processing of a node/node pair (Section 2.2.2): restrict
  // each node's entries to those within the distance window of the other
  // node's region, then pair them up with a plane sweep along axis 0
  // (Figure 4), extended by Dmax as the paper describes. This is the
  // expansion with up to fan-out^2 candidates, where batch scoring and the
  // sharded classify pay off most.
  bool ProcessBoth(const Entry& e) {
    bool leaf1;
    bool leaf2;
    int level1;
    int level2;
    size_t screened1 = 0;
    size_t screened2 = 0;
    {
      typename Index::PinnedNode node1 =
          tree1_.TryPin(static_cast<storage::PageId>(e.item1.ref));
      if (!node1.ok()) return MarkIoError();
      typename Index::PinnedNode node2 =
          tree2_.TryPin(static_cast<storage::PageId>(e.item2.ref));
      if (!node2.ok()) return MarkIoError();
      stats_.nodes_expanded += 2;
      if (estimator_.has_value() && semi_estimation_) {
        estimator_->MarkFirstItemProcessed(EncodeEstimatorItem(
            static_cast<uint8_t>(e.item1.kind), e.item1.level, e.item1.ref));
      }
      if (ScreenEligible()) {
        // ScreenEligible implies no estimator, so EffectiveMax() below is
        // exactly options_.max_distance — the bound screening prunes by.
        screened1 =
            this->ScreenedDecode(node1, e.item2.rect, options_.max_distance,
                                 isa_, &batch1_, &refs1_);
        screened2 =
            this->ScreenedDecode(node2, e.item1.rect, options_.max_distance,
                                 isa_, &batch2_, &refs2_);
      } else {
        node1.DecodeInto(&batch1_, &refs1_);
        node2.DecodeInto(&batch2_, &refs2_);
      }
      leaf1 = node1.is_leaf();
      level1 = node1.level();
      leaf2 = node2.is_leaf();
      level2 = node2.level();
    }
    const double eff_max = EffectiveMax();
    mind1_.resize(batch1_.size());
    MinDistBatch(batch1_, e.item2.rect, options_.metric, mind1_.data(), 0,
                 batch1_.size(), isa_);
    mind2_.resize(batch2_.size());
    MinDistBatch(batch2_, e.item1.rect, options_.metric, mind2_.data(), 0,
                 batch2_.size(), isa_);
    stats_.batch_kernel_invocations += 2;
    FilterSide(batch1_, refs1_, mind1_, leaf1, level1, eff_max, screened1,
               &left_);
    FilterSide(batch2_, refs2_, mind2_, leaf2, level2, eff_max, screened2,
               &right_);
    const auto by_lo = [](const Item& a, const Item& b) {
      return a.rect.lo[0] < b.rect.lo[0];
    };
    std::sort(left_.begin(), left_.end(), by_lo);
    std::sort(right_.begin(), right_.end(), by_lo);
    // Sweep: for the rectangle with the smaller lower edge, pair it with the
    // other list's rectangles whose lower edge starts within Dmax of its
    // upper edge (the paper's x2 + Dmax sweep extension). Candidates are
    // collected in emission order first so scoring can shard across threads.
    sweep_pairs_.clear();
    size_t i = 0;
    size_t j = 0;
    while (i < left_.size() && j < right_.size()) {
      if (left_[i].rect.lo[0] <= right_[j].rect.lo[0]) {
        const double limit = left_[i].rect.hi[0] + eff_max;
        for (size_t k = j; k < right_.size() && right_[k].rect.lo[0] <= limit;
             ++k) {
          sweep_pairs_.emplace_back(static_cast<uint32_t>(i),
                                    static_cast<uint32_t>(k));
        }
        ++i;
      } else {
        const double limit = right_[j].rect.hi[0] + eff_max;
        for (size_t k = i; k < left_.size() && left_[k].rect.lo[0] <= limit;
             ++k) {
          sweep_pairs_.emplace_back(static_cast<uint32_t>(k),
                                    static_cast<uint32_t>(j));
        }
        ++j;
      }
    }
    EnqueuePairs(
        sweep_pairs_.size(), /*pre_mind=*/nullptr, /*semi_hint=*/nullptr,
        /*object_pair=*/leaf1 && leaf2 &&
            ObjectKind() == JoinItemKind::kObject,
        /*screened=*/0,
        [&](size_t k) -> const Item& { return left_[sweep_pairs_[k].first]; },
        [&](size_t k) -> const Item& {
          return right_[sweep_pairs_[k].second];
        });
    return true;
  }

  // Keeps entries whose batch MINDIST against the partner region is within
  // eff_max, materializing survivors as Items (the within-filter of
  // Figure 4). The `screened` entries code screening dropped are exactly
  // entries this filter would reject (their MINDIST exceeds eff_max ==
  // options_.max_distance), so they are charged like its rejects.
  void FilterSide(const RectBatch<Dim>& batch,
                  const std::vector<uint64_t>& refs,
                  const std::vector<double>& mind, bool leaf, int level,
                  double eff_max, size_t screened, std::vector<Item>* out) {
    out->clear();
    out->reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      if (mind[i] <= eff_max) {
        out->push_back(
            this->MakeChildItem(batch, refs, i, leaf, level, ObjectKind()));
      }
    }
    stats_.total_distance_calcs += batch.size() + screened;
    stats_.pruned_by_range += batch.size() - out->size() + screened;
  }

  // ---- obr resolution (Figure 3, lines 7-14) ----

  // Computes the exact distance of an obr/obr pair. Reports it immediately
  // when it is still guaranteed to be the closest pending pair, else
  // re-enqueues it as an object/object pair.
  void ResolveObrPair(const Entry& e, JoinResult<Dim>* out) {
    SDJ_CHECK(options_.exact_object_distance != nullptr);
    const double d =
        options_.exact_object_distance(e.item1.ref, e.item2.ref);
    ++stats_.object_distance_calcs;
    ++stats_.total_distance_calcs;
    if (d < options_.min_distance || d > EffectiveMax()) {
      ++stats_.pruned_by_range;
      return;
    }
    Entry resolved = e;
    resolved.distance = d;
    resolved.item1.kind = JoinItemKind::kObject;
    resolved.item2.kind = JoinItemKind::kObject;
    FinalizePairMetadata(&resolved);
    resolved.key = options_.reverse_order ? -d : d;
    const bool head = queue_->Empty() || !(queue_->Top().key < resolved.key);
    if (head) {
      if (!AcceptSemiReport(resolved.item1.ref)) return;
      if (estimator_.has_value()) NotifyReport(resolved.item1.ref);
      if (replay_ > 0) {
        --replay_;
        return;
      }
      Fill(resolved, out);
      ++reported_count_;
      ++stats_.pairs_reported;
      resolved_ready_ = true;
      return;
    }
    resolved.seq = next_seq_++;
    queue_->Push(resolved);
    ++stats_.queue_pushes;
  }

  // ---- restart (over-aggressive estimation, Section 2.2.4) ----

  bool NeedRestart() const {
    return estimator_.has_value() && estimator_->ever_tightened() &&
           options_.max_pairs > 0 && reported_count_ < options_.max_pairs;
  }

  void Restart() {
    ++stats_.restarts;
    estimation_disabled_ = true;
    ResetEstimator();
    queue_->Clear();
    reported_.Clear();
    if (!node_bounds_.empty()) {
      node_bounds_.assign(node_bounds_.size(), kInf);
    }
    if (!object_bounds_.empty()) {
      object_bounds_.assign(object_bounds_.size(), kInf);
    }
    replay_ = reported_count_;
    Seed();
  }

  // ---- members ----

  const Index& tree1_;
  const Index& tree2_;
  const DistanceJoinOptions options_;
  const JoinFilters<Dim> filters_;
  const SemiJoinFilter semi_filter_;
  const SemiJoinBound semi_bound_;
  const bool semi_estimation_;
  // True only when BOTH trees' node regions minimally bound their contents
  // at runtime (quantized R-tree nodes are outward-rounded, hence loose).
  const bool minimal_regions_;
  // SIMD path for the batched kernels, resolved once at construction.
  const simd::Isa isa_;

  // The ladder's upper bounds: join d_max (Dmin pruning, reverse keys,
  // join estimation) and semi-join d_max (bounds, semi estimation).
  // Derived in ResetEstimator.
  bool need_join_dmax_ = false;
  bool need_semi_dmax_ = false;

  // Join-specific expansion scratch (shared scratch lives in the core).
  std::vector<double> semi_dmax_;
  std::vector<std::pair<uint32_t, uint32_t>> sweep_pairs_;

  std::optional<MaxDistEstimator> estimator_;
  bool estimation_disabled_ = false;

  DynamicBitset reported_;             // S_o (every semi-join filter)
  std::vector<double> node_bounds_;    // smallest d_max per R1 node page
  std::vector<double> object_bounds_;  // smallest d_max per R1 object

  uint64_t reported_count_ = 0;
  uint64_t replay_ = 0;       // results to swallow after a restart
  bool resolved_ready_ = false;
};

}  // namespace sdj

#endif  // SDJOIN_CORE_DISTANCE_JOIN_H_
