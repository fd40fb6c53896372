// Shared single-tree neighbor engine: incremental nearest- and farthest-
// neighbor search as policies over the best-first core (core/best_first.h,
// DESIGN.md §13).
//
// This is the Hjaltason–Samet incremental NN algorithm the paper builds on
// (its reference [18]): one priority queue holds both nodes (keyed by
// MINDIST — or MAXDIST for farthest-first — to the query point) and objects
// (keyed by their distance); whenever an object surfaces at the head of the
// queue it is the next neighbor. Queue elements are PairEntry with item2
// left as a default (non-node) item, so the shared comparator reports
// objects before nodes at equal key, exactly like the dedicated NN
// comparators did.
//
// Riding on the core gives both engines what the join engines already had:
// TryPin + kIoError propagation on node reads (DESIGN.md §9), the optional
// hybrid memory/disk queue (nearest only — farthest keys are negated upper
// bounds, which the tiered queue cannot bucket), StopToken suspension, and
// SaveState/RestoreState, which makes them JoinCursor-compatible.
#ifndef SDJOIN_NN_NEIGHBOR_CORE_H_
#define SDJOIN_NN_NEIGHBOR_CORE_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/best_first.h"
#include "core/hybrid_queue.h"
#include "core/join_result.h"
#include "core/join_stats.h"
#include "core/pair_entry.h"
#include "geometry/code_screen.h"
#include "geometry/distance.h"
#include "geometry/metrics.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "geometry/rect_batch.h"
#include "obs/metrics.h"
#include "rtree/rtree.h"
#include "util/check.h"
#include "util/stop_token.h"

namespace sdj {

// Counters describing one incremental-NN traversal (synthesized from the
// core's JoinStats; engine_stats() exposes the full set).
struct IncNearestStats {
  uint64_t distance_calcs = 0;
  uint64_t queue_pushes = 0;
  uint64_t max_queue_size = 0;
  uint64_t nodes_expanded = 0;
  uint64_t neighbors_reported = 0;

  static IncNearestStats From(const JoinStats& s) {
    return {s.total_distance_calcs, s.queue_pushes, s.max_queue_size,
            s.nodes_expanded, s.pairs_reported};
  }
};

// One reported neighbor.
template <int Dim>
struct NeighborResult {
  ObjectId id = 0;
  Rect<Dim> rect;
  double distance = 0.0;
};

// Full options for the NN engines; the (tree, query, metric) constructors
// remain as shorthand for default options.
struct IncNeighborOptions {
  Metric metric = Metric::kEuclidean;
  TieBreakPolicy tie_break = TieBreakPolicy::kDepthFirst;
  // Hybrid memory/disk priority queue (Section 3.2). Nearest-only: the
  // farthest engine CHECKs this stays false.
  bool use_hybrid_queue = false;
  HybridQueueOptions hybrid;
  // Cooperative suspension (DESIGN.md §11); also settable later through
  // set_stop_token.
  util::StopToken stop_token;
  // Observability sink (DESIGN.md §12); also settable through set_metrics.
  obs::Metrics* metrics = nullptr;
  // SIMD path for the batched kernels (DESIGN.md §15); bit-identical to
  // scalar on every path, so it can never change the neighbor stream.
  simd::Isa kernel_isa = simd::Isa::kAuto;
  // Bounded nearest search: entries (nodes or objects) farther than this are
  // pruned at enqueue instead of waiting in the queue, and the stream ends
  // (kExhausted) when the radius is out of candidates. Nearest-only: the
  // farthest engine CHECKs this stays infinite (a far bound would truncate
  // its stream from the wrong end).
  double max_distance = std::numeric_limits<double>::infinity();
  // Integer code screening on quantized pages (DESIGN.md §17); engages when
  // max_distance is finite. The neighbor stream and pre-existing stats stay
  // byte-identical with it on or off.
  bool screen_codes = code_screen::DefaultEnabled();
  // Shard count for the ShardedIncNearest/ShardedIncFarthest wrappers
  // (DESIGN.md §18); the raw engines ignore it. 0 = SDJ_SHARDS default.
  int shards = 0;
  // Internal (core/shard_plan.h): skip root seeding; the plan adopts
  // externally planned entries instead. Not for direct use.
  bool defer_seed = false;

  // Default options with `metric` set: the shorthand behind every
  // (tree, query, metric) neighbor constructor.
  static IncNeighborOptions WithMetric(Metric metric) {
    IncNeighborOptions options;
    options.metric = metric;
    return options;
  }
};

// The shared engine; `Derived` is the concrete iterator class
// (IncNearestNeighbor / IncFarthestNeighbor) and `kFarthest` selects the
// traversal direction: MAXDIST scoring with negated keys instead of MINDIST.
template <int Dim, typename Derived, typename Index, bool kFarthest>
class NeighborEngine
    : public BestFirstEngine<Dim, Derived, Index, NeighborResult<Dim>> {
  using Base = BestFirstEngine<Dim, Derived, Index, NeighborResult<Dim>>;
  friend Base;

 public:
  using Result = NeighborResult<Dim>;

  // Cooperative suspension (DESIGN.md §11): once the token requests a stop,
  // Next() returns false at the next safe point with suspended() == true;
  // the traversal state stays intact, so calling Next() again (after
  // re-arming the source) continues where it stopped.
  void set_stop_token(util::StopToken token) {
    config_.stop_token = token;
  }
  bool suspended() const { return status_ == JoinStatus::kSuspended; }

  // Optional observability sink (DESIGN.md §12): records pop and
  // node-expansion latency. Null = disabled. (A hybrid queue keeps the sink
  // it was constructed with.)
  void set_metrics(obs::Metrics* metrics) { config_.metrics = metrics; }

  // Traversal counters in the historical NN shape.
  const IncNearestStats& stats() const {
    nn_stats_ = IncNearestStats::From(Base::stats());
    return nn_stats_;
  }

  // The core's full counter set (I/O retries, checksum failures, batch
  // kernel invocations, ... — everything stats() does not surface).
  const JoinStats& engine_stats() const { return Base::stats(); }

  // ---- snapshot support (DESIGN.md §11) ----

  // Same contract as DistanceJoin::SaveState: call at a safe point; returns
  // false if the state cannot be captured completely.
  bool SaveState(snapshot::Blob* out) {
    if (!this->SaveAllowed()) return false;
    out->Append(Fingerprint());
    return this->SaveCore(out);
  }

  // Same contract as DistanceJoin::RestoreState: fingerprint mismatch
  // returns false with the engine untouched; a malformed blob past the
  // fingerprint leaves it unusable.
  bool RestoreState(snapshot::BlobReader* in) {
    return in->Expect(Fingerprint()) && this->RestoreCore(in);
  }

 protected:
  using Item = typename Base::Item;
  using Entry = typename Base::Entry;
  using Base::batch1_;
  using Base::config_;
  using Base::mind1_;
  using Base::next_seq_;
  using Base::queue_;
  using Base::refs1_;
  using Base::stats_;
  using Base::status_;
  using Base::MarkIoError;
  using Base::PinDecode;
  using Base::PinDecodeScreened;
  using Base::kInf;

  NeighborEngine(const Index& tree, const Point<Dim>& query,
                 const IncNeighborOptions& options)
      : Base({&tree.pool()}, MakeConfig(options)),
        tree_(tree),
        query_(query),
        options_(options),
        minimal_regions_(tree.minimal_bounding_regions()),
        isa_(simd::Resolve(options.kernel_isa)) {
    // User input: a violated precondition is reported as kInvalidArgument,
    // never an abort. The hybrid queue buckets by key and CHECKs
    // key == distance; farthest keys are negated, so the tiered queue is
    // nearest-only (mirroring the join's hybrid-excludes-reverse rule). A
    // finite bound would truncate a farthest stream from the wrong end. The
    // first comparison rejects NaN too.
    if (!(options.max_distance >= 0.0) ||
        (kFarthest && (options.use_hybrid_queue ||
                       options.max_distance != kInf))) {
      status_ = JoinStatus::kInvalidArgument;
      return;
    }
    for (int d = 0; d < Dim; ++d) {
      query_rect_.lo[d] = query_[d];
      query_rect_.hi[d] = query_[d];
    }
    if (!options.defer_seed) Seed();
  }

  // ---- policy hooks ----

  // Historical NN semantics: Next() after a suspension simply continues, so
  // a still-suspended status self-clears at the next call.
  void PrepareNext() {
    if (status_ == JoinStatus::kSuspended) status_ = JoinStatus::kOk;
  }

  PopAction OnPopped(const Entry& e, Result* out) {
    if (e.item1.is_node()) return PopAction::kExpand;
    out->id = static_cast<ObjectId>(e.item1.ref);
    out->rect = e.item1.rect;
    out->distance = e.distance;
    ++stats_.pairs_reported;
    return PopAction::kReported;
  }

  bool Expand(const Entry& e) {
    bool leaf;
    int level;
    size_t screened = 0;
    const bool bounded = !kFarthest && std::isfinite(options_.max_distance);
    if (bounded && options_.screen_codes) {
      if (!PinDecodeScreened(tree_, e.item1.ref, query_rect_,
                             options_.max_distance, isa_, &batch1_, &refs1_,
                             &leaf, &level, &screened)) {
        return MarkIoError();
      }
    } else if (!PinDecode(tree_, e.item1.ref, &batch1_, &refs1_, &leaf,
                          &level)) {
      return MarkIoError();
    }
    ++stats_.nodes_expanded;
    // Score the whole node against the query point in one batched kernel
    // (bit-identical to the scalar loop; geometry/rect_batch.h).
    const size_t n = batch1_.size();
    mind1_.resize(n);
    if constexpr (kFarthest) {
      MaxDistBatch(batch1_, query_, options_.metric, mind1_.data(), 0, n,
                   isa_);
    } else {
      MinDistBatch(batch1_, query_, options_.metric, mind1_.data(), 0, n,
                   isa_);
    }
    // Every entry is charged one distance calc, screened-out ones included
    // (screening only replaces the f64 evaluation the scalar engine would
    // have performed for them).
    stats_.total_distance_calcs += n + screened;
    stats_.pruned_by_range += screened;
    ++stats_.batch_kernel_invocations;
    for (size_t i = 0; i < n; ++i) {
      // Bounded nearest search: out-of-radius entries never enter the queue
      // (identical stream to pruning at pop, since MINDIST is a lower bound
      // for everything beneath a node).
      if (bounded && mind1_[i] > options_.max_distance) {
        ++stats_.pruned_by_range;
        continue;
      }
      Entry child;
      child.distance = mind1_[i];
      child.item1 = this->MakeChildItem(batch1_, refs1_, i, leaf, level,
                                        JoinItemKind::kObject);
      // item2 stays the default non-node item: the pair comparator then
      // orders by (key, has-node, depth, seq), i.e. objects before nodes at
      // equal key — the dedicated NN comparators' order.
      child.seq = next_seq_++;
      FinalizePairMetadata(&child);
      child.key = kFarthest ? -mind1_[i] : mind1_[i];
      queue_->Push(child);
      ++stats_.queue_pushes;
    }
    return true;
  }

 private:
  static constexpr uint32_t kStateMagic = 0x534A4E4E;  // "SJNN"
  // Version 2: max_distance + screen_codes in the fingerprint, screening
  // counters in the shared stats section.
  static constexpr uint32_t kStateVersion = 2;

  snapshot::Blob Fingerprint() const {
    snapshot::Blob fp;
    fp.PutU32(kStateMagic);
    fp.PutU32(kStateVersion);
    fp.PutU32(static_cast<uint32_t>(Dim));
    fp.PutU8(static_cast<uint8_t>(options_.metric));
    fp.PutBool(kFarthest);
    fp.PutU8(static_cast<uint8_t>(options_.tie_break));
    fp.PutBool(options_.use_hybrid_queue);
    fp.PutDouble(options_.hybrid.tier_width);
    fp.PutDouble(options_.max_distance);
    fp.PutBool(options_.screen_codes);
    for (int d = 0; d < Dim; ++d) fp.PutDouble(query_[d]);
    fp.PutBool(minimal_regions_);
    fp.PutU64(tree_.size());
    return fp;
  }

  static BestFirstConfig MakeConfig(const IncNeighborOptions& options) {
    BestFirstConfig config;
    config.tie_break = options.tie_break;
    config.use_hybrid_queue = options.use_hybrid_queue;
    config.hybrid = options.hybrid;
    config.num_threads = 1;  // NN expansions are fan-out-sized; no sharding
    config.stop_token = options.stop_token;
    config.metrics = options.metrics;
    return config;
  }

  void Seed() {
    if (tree_.empty()) return;
    Entry root;
    if (!this->RootItem(tree_, &root.item1)) return;
    // The root is the only entry when popped, so its key never competes;
    // still use the real bound (uncounted, like the historical constant
    // seed) so the hybrid queue's key == distance invariant holds.
    const Rect<Dim>& mbr = root.item1.rect;
    root.distance = kFarthest ? MaxDist(query_, mbr, options_.metric)
                              : MinDist(query_, mbr, options_.metric);
    root.seq = next_seq_++;
    FinalizePairMetadata(&root);
    root.key = kFarthest ? -root.distance : root.distance;
    queue_->Push(root);
    ++stats_.queue_pushes;
  }

  const Index& tree_;
  const Point<Dim> query_;
  // The query point as a degenerate rectangle, for the code-screening stage
  // (MINDIST to it equals the point distance in every metric).
  Rect<Dim> query_rect_;
  const IncNeighborOptions options_;
  // Runtime minimality of the tree's node regions (snapshot fingerprint) and
  // the kernel path, both resolved once at construction.
  const bool minimal_regions_;
  const simd::Isa isa_;
  mutable IncNearestStats nn_stats_;
};

}  // namespace sdj

#endif  // SDJOIN_NN_NEIGHBOR_CORE_H_
