// Spatial join with a secondary ordering (the second extension of Section
// 2.2.5): report *intersecting* object pairs — a distance join with maximum
// distance 0 — ordered by the distance of the intersection from an anchor
// point. The paper's example: "find the intersections of roads and rivers in
// order of distance from a given house".
//
// The construction follows the paper's suggestion: the pair "distance
// function" returns infinity for non-intersecting pairs (pruning them) and
// otherwise MINDIST(anchor, rect1 ∩ rect2), which is consistent — shrinking
// either rect shrinks the intersection and can only increase the key — so
// the incremental machinery applies unchanged. Structurally it is a small
// policy over the best-first core (core/best_first.h, DESIGN.md §13), which
// owns the queue, the pop loop and kIoError on an unreadable page.
#ifndef SDJOIN_CORE_INTERSECTION_JOIN_H_
#define SDJOIN_CORE_INTERSECTION_JOIN_H_

#include <cstdint>

#include "core/best_first.h"
#include "core/join_result.h"
#include "core/pair_entry.h"
#include "geometry/distance.h"
#include "geometry/metrics.h"
#include "rtree/rtree.h"

namespace sdj {

// Streams intersecting (o1, o2) pairs by increasing distance of their
// intersection from `anchor`. Extended (rectangle) objects produce genuine
// overlap regions; point objects intersect only when coincident.
//
//   OrderedIntersectionJoin<2> join(roads, rivers, house);
//   JoinResult<2> crossing;
//   while (join.Next(&crossing)) ...   // nearest crossings first
//
// Next(), status() and stats() are inherited from the best-first core.
template <int Dim>
class OrderedIntersectionJoin
    : public BestFirstEngine<Dim, OrderedIntersectionJoin<Dim>, RTree<Dim>,
                             JoinResult<Dim>> {
  using Base = BestFirstEngine<Dim, OrderedIntersectionJoin<Dim>, RTree<Dim>,
                               JoinResult<Dim>>;
  // The core invokes the policy hooks below, which stay private.
  friend Base;

 public:
  // `out->distance` of each result is the distance from the anchor to the
  // pair's intersection region (NOT the pair distance, which is 0 by
  // construction).
  OrderedIntersectionJoin(const RTree<Dim>& tree1, const RTree<Dim>& tree2,
                          const Point<Dim>& anchor,
                          Metric metric = Metric::kEuclidean)
      : Base({&tree1.pool(), &tree2.pool()}, BestFirstConfig{}),
        tree1_(tree1),
        tree2_(tree2),
        anchor_(anchor),
        metric_(metric) {
    if (tree1.empty() || tree2.empty()) return;
    Item root1;
    Item root2;
    if (!this->RootItem(tree1, &root1) || !this->RootItem(tree2, &root2)) {
      return;
    }
    TryEnqueue(root1, root2);
  }

 private:
  using Item = typename Base::Item;
  using Entry = typename Base::Entry;

  PopAction OnPopped(const Entry& e, JoinResult<Dim>* out) {
    if (!e.IsObjectPair()) return PopAction::kExpand;
    out->id1 = e.item1.ref;
    out->id2 = e.item2.ref;
    out->rect1 = e.item1.rect;
    out->rect2 = e.item2.rect;
    out->distance = e.distance;
    ++this->stats_.pairs_reported;
    return PopAction::kReported;
  }

  // Even traversal: expand the shallower node of node/node pairs.
  bool Expand(const Entry& e) {
    const bool expand_second =
        !e.item1.is_node() ||
        (e.item2.is_node() && e.item2.level > e.item1.level);
    const Item& node_item = expand_second ? e.item2 : e.item1;
    const Item& other = expand_second ? e.item1 : e.item2;
    bool leaf;
    int level;
    if (!this->PinDecode(expand_second ? tree2_ : tree1_, node_item.ref,
                         &this->batch1_, &this->refs1_, &leaf, &level)) {
      return this->MarkIoError();
    }
    ++this->stats_.nodes_expanded;
    this->BuildChildItems(this->batch1_, this->refs1_, leaf, level,
                          JoinItemKind::kObject, &this->left_);
    for (const Item& child : this->left_) {
      if (expand_second) {
        TryEnqueue(other, child);
      } else {
        TryEnqueue(child, other);
      }
    }
    return true;
  }

  void TryEnqueue(const Item& a, const Item& b) {
    ++this->stats_.total_distance_calcs;
    if (!a.rect.Intersects(b.rect)) {
      ++this->stats_.pruned_by_range;  // the "infinite distance" of the paper
      return;
    }
    Entry e;
    e.distance = MinDist(anchor_, a.rect.IntersectionWith(b.rect), metric_);
    e.key = e.distance;
    e.item1 = a;
    e.item2 = b;
    e.seq = this->next_seq_++;
    FinalizePairMetadata(&e);
    this->queue_->Push(e);
    ++this->stats_.queue_pushes;
  }

  const RTree<Dim>& tree1_;
  const RTree<Dim>& tree2_;
  const Point<Dim> anchor_;
  const Metric metric_;
};

}  // namespace sdj

#endif  // SDJOIN_CORE_INTERSECTION_JOIN_H_
