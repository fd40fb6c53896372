// Incremental within-distance (epsilon) join: every object pair with
// distance <= eps, streamed by non-decreasing distance — the incremental
// counterpart of baseline/within_join.h (equivalently, a DistanceJoin
// restricted to [0, eps], specialized to the one-bound ladder).
//
// Written as a policy over the shared best-first core (DESIGN.md §13) to
// demonstrate how little a new traversal needs: seeding, an Even-policy
// expansion using the core's batch-scored classify, result filling, and a
// snapshot fingerprint. Everything else — queue tiers, suspension, kIoError
// propagation, parallel classify, serialization — is inherited.
#ifndef SDJOIN_CORE_WITHIN_JOIN_H_
#define SDJOIN_CORE_WITHIN_JOIN_H_

#include <cmath>
#include <cstdint>

#include "core/best_first.h"
#include "core/env_knobs.h"
#include "core/hybrid_queue.h"
#include "core/join_result.h"
#include "core/pair_entry.h"
#include "geometry/code_screen.h"
#include "geometry/metrics.h"
#include "geometry/rect_batch.h"
#include "obs/metrics.h"
#include "rtree/rtree.h"
#include "util/check.h"
#include "util/stop_token.h"

namespace sdj {

struct WithinJoinOptions {
  double epsilon = 0.0;  // report pairs with distance <= epsilon (inclusive)
  Metric metric = Metric::kEuclidean;
  TieBreakPolicy tie_break = TieBreakPolicy::kDepthFirst;
  bool use_hybrid_queue = false;  // Section 3.2 tiered queue
  HybridQueueOptions hybrid;
  // Sharded classify, output-identical to serial. 0 = SDJ_THREADS default.
  int num_threads = 0;
  // Shard count for the ShardedWithinJoin wrapper (DESIGN.md §18); a raw
  // IncWithinJoin ignores it. 0 = SDJ_SHARDS default (1 when unset).
  int shards = 0;
  // Internal (core/shard_plan.h): skip root seeding; the plan adopts
  // externally planned entries instead. Not for direct use.
  bool defer_seed = false;
  util::StopToken stop_token;    // cooperative suspension (DESIGN.md §11)
  obs::Metrics* metrics = nullptr;  // observability sink (DESIGN.md §12)
  // SIMD path for the batched kernels (DESIGN.md §15); bit-identical to
  // scalar on every path, so it can never change the pair stream.
  simd::Isa kernel_isa = simd::Isa::kAuto;
  // Integer code screening on quantized pages (DESIGN.md §17). The within
  // join always has a fixed finite bound (epsilon) and the one-bound fast
  // ladder, so screening engages whenever the tree is quantized; the pair
  // stream and pre-existing stats stay byte-identical either way.
  bool screen_codes = code_screen::DefaultEnabled();
};

// Usage mirrors DistanceJoin:
//
//   IncWithinJoin<2> join(roads, rivers, {.epsilon = 2.5});
//   JoinResult<2> pair;
//   while (join.Next(&pair)) Use(pair);   // distances ascend, all <= eps
template <int Dim, typename Index = RTree<Dim>>
class IncWithinJoin
    : public BestFirstEngine<Dim, IncWithinJoin<Dim, Index>, Index,
                             JoinResult<Dim>> {
  using Base = BestFirstEngine<Dim, IncWithinJoin<Dim, Index>, Index,
                               JoinResult<Dim>>;
  friend Base;

 public:
  IncWithinJoin(const Index& tree1, const Index& tree2,
                const WithinJoinOptions& options)
      : Base({&tree1.pool(), &tree2.pool()}, MakeConfig(options)),
        tree1_(tree1),
        tree2_(tree2),
        options_(options),
        isa_(simd::Resolve(options.kernel_isa)) {
    // User input: a negative or NaN epsilon is reported, not an abort.
    if (!(options.epsilon >= 0.0)) {
      this->status_ = JoinStatus::kInvalidArgument;
      return;
    }
    spec_.max_distance = options.epsilon;
    spec_.metric = options.metric;
    if (options.defer_seed) return;
    if (tree1.empty() || tree2.empty()) return;
    left_.resize(1);
    right_.resize(1);
    if (!this->RootItem(tree1, &left_[0]) ||
        !this->RootItem(tree2, &right_[0])) {
      return;
    }
    this->ClassifyAndEnqueue(
        spec_, 1, /*pre_mind=*/nullptr, /*object_pair=*/false,
        [&](size_t) -> const Item& { return left_[0]; },
        [&](size_t) -> const Item& { return right_[0]; });
  }

  // Same contract as DistanceJoin::SaveState/RestoreState.
  bool SaveState(snapshot::Blob* out) {
    if (!this->SaveAllowed()) return false;
    out->Append(Fingerprint());
    return this->SaveCore(out);
  }

  bool RestoreState(snapshot::BlobReader* in) {
    return in->Expect(Fingerprint()) && this->RestoreCore(in);
  }

 private:
  using Item = typename Base::Item;
  using Entry = typename Base::Entry;
  using Base::batch1_, Base::batch2_, Base::refs1_, Base::refs2_;
  using Base::left_, Base::right_, Base::mind1_, Base::mind2_;
  using Base::stats_, Base::MarkIoError, Base::PinDecode;
  using Base::PinDecodeScreened;

  static constexpr uint32_t kStateMagic = 0x534A5745;  // "SJWE"
  // Version 2: screen_codes in the fingerprint, screening counters in the
  // shared stats section.
  static constexpr uint32_t kStateVersion = 2;

  snapshot::Blob Fingerprint() const {
    snapshot::Blob fp;
    fp.PutU32(kStateMagic);
    fp.PutU32(kStateVersion);
    fp.PutU32(static_cast<uint32_t>(Dim));
    fp.PutU8(static_cast<uint8_t>(options_.metric));
    fp.PutU8(static_cast<uint8_t>(options_.tie_break));
    fp.PutDouble(options_.epsilon);
    fp.PutBool(options_.screen_codes);
    fp.PutBool(options_.use_hybrid_queue);
    fp.PutDouble(options_.hybrid.tier_width);
    fp.PutU64(tree1_.size());
    fp.PutU64(tree2_.size());
    return fp;
  }

  static BestFirstConfig MakeConfig(const WithinJoinOptions& options) {
    return BestFirstConfig{options.tie_break,
                           options.use_hybrid_queue,
                           options.hybrid,
                           env_knobs::ResolveThreads(options.num_threads),
                           options.stop_token,
                           options.metrics};
  }

  PopAction OnPopped(const Entry& e, JoinResult<Dim>* out) {
    if (!e.IsObjectPair()) return PopAction::kExpand;
    // MINDIST <= eps was enforced at enqueue and is exact for object pairs.
    out->id1 = e.item1.ref;
    out->id2 = e.item2.ref;
    out->rect1 = e.item1.rect;
    out->rect2 = e.item2.rect;
    out->distance = e.distance;
    ++stats_.pairs_reported;
    return PopAction::kReported;
  }

  // Even policy (Section 2.2.2): expand the node at the shallower level.
  bool Expand(const Entry& e) {
    const bool two = e.item1.is_node() && e.item2.is_node() &&
                     e.item2.level > e.item1.level;
    const bool second = two || !e.item1.is_node();
    const Index& tree = second ? tree2_ : tree1_;
    const Item& fixed = second ? e.item1 : e.item2;
    auto& batch = second ? batch2_ : batch1_;
    auto& refs = second ? refs2_ : refs1_;
    auto& mind = second ? mind2_ : mind1_;
    auto& items = second ? right_ : left_;
    bool leaf;
    int level;
    const uint64_t ref = second ? e.item2.ref : e.item1.ref;
    size_t screened = 0;
    if (options_.screen_codes && std::isfinite(options_.epsilon)) {
      if (!PinDecodeScreened(tree, ref, fixed.rect, options_.epsilon, isa_,
                             &batch, &refs, &leaf, &level, &screened)) {
        return MarkIoError();
      }
    } else if (!PinDecode(tree, ref, &batch, &refs, &leaf, &level)) {
      return MarkIoError();
    }
    ++stats_.nodes_expanded;
    mind.resize(batch.size());
    MinDistBatch(batch, fixed.rect, options_.metric, mind.data(), 0,
                 batch.size(), isa_);
    ++stats_.batch_kernel_invocations;
    this->BuildChildItems(batch, refs, leaf, level, JoinItemKind::kObject,
                          &items);
    const bool object_pair = leaf && fixed.kind == JoinItemKind::kObject;
    // Screened-out entries would have reached the classify ladder's
    // `d > epsilon` rung: charge exactly what it charges there.
    if (screened > 0) {
      stats_.total_distance_calcs += screened;
      stats_.pruned_by_range += screened;
      if (object_pair) stats_.object_distance_calcs += screened;
    }
    this->ClassifyAndEnqueue(
        spec_, batch.size(), mind.data(), object_pair,
        [&](size_t i) -> const Item& { return second ? fixed : items[i]; },
        [&](size_t i) -> const Item& { return second ? items[i] : fixed; });
    return true;
  }

  const Index& tree1_;
  const Index& tree2_;
  const WithinJoinOptions options_;
  const simd::Isa isa_;  // kernel path, resolved once at construction
  typename Base::ClassifySpec spec_;
};

}  // namespace sdj

#endif  // SDJOIN_CORE_WITHIN_JOIN_H_
