// Paged bucket PR quadtree over point data.
//
// A second hierarchical index demonstrating the paper's claim that the
// incremental join "works for any spatial data structure based on a
// hierarchical decomposition" (Section 2.2): PointQuadtree exposes the same
// read interface as RTree, so DistanceJoin<Dim, PointQuadtree<Dim>> works
// unchanged. Quadtrees regularly subdivide space, so node regions do NOT
// minimally bound their contents — kMinimalBoundingRegions is false and the
// join engine automatically falls back to containment-only d_max bounds
// (the Section 2.2.2 caveat about structures without bounding rectangles).
//
// Scope: point objects, each stored in exactly one leaf bucket (so join
// results need no deduplication); insert-only (built once, then queried,
// like the paper's evaluation indexes). Space is subdivided into 2^Dim
// quadrants per interior node; leaves hold up to a page of points. At most
// `bucket capacity` coincident points are supported per location (deeper
// subdivision cannot separate identical points).
#ifndef SDJOIN_QUADTREE_QUADTREE_H_
#define SDJOIN_QUADTREE_QUADTREE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/node_layout.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "storage/page_store.h"
#include "util/check.h"

namespace sdj {

// Construction parameters for PointQuadtree.
struct QuadtreeOptions {
  uint32_t page_size = storage::kDefaultPageSize;
  uint32_t buffer_pages = 128;
  // Maximum subdivision depth; also the engine-facing level of the root.
  int max_depth = 24;
  // If non-zero, caps the leaf bucket size below the page capacity.
  uint32_t bucket_capacity_override = 0;
  // If non-empty, pages live in this file instead of memory.
  std::string file_path;
  // If set, the page store injects faults from this schedule (testing).
  std::optional<storage::FaultInjectionOptions> fault_injection;
  // Bounded-retry policy for the tree's buffer pool.
  storage::RetryPolicy retry;
};

// Bucket PR quadtree over Point<Dim> objects within a fixed extent.
template <int Dim>
class PointQuadtree {
  using Layout = rtree_internal::NodeLayout<Dim>;
  static constexpr uint16_t kLeafBit = 0x8000;
  static constexpr uint32_t kQuadrants = 1u << Dim;

 public:
  // Quadrant regions are fixed subdivisions, not minimal bounds.
  static constexpr bool kMinimalBoundingRegions = false;
  static constexpr int kDim = Dim;

  // Runtime mirror of kMinimalBoundingRegions (always false here): engines
  // consult this so indexes whose minimality depends on construction options
  // (the quantized R-tree) share one code path with the quadtree.
  bool minimal_bounding_regions() const { return false; }

  struct Entry {
    Rect<Dim> rect;  // degenerate (a point)
    ObjectId id = 0;
  };

  // All inserted points must lie inside `extent`.
  PointQuadtree(const Rect<Dim>& extent,
                const QuadtreeOptions& options = QuadtreeOptions())
      : options_(options), extent_(extent) {
    SDJ_CHECK(extent.IsValid());
    SDJ_CHECK(options.max_depth >= 1 && options.max_depth < 0x4000);
    std::unique_ptr<storage::PageFile> file = storage::CreatePageStore(
        {options.page_size, options.file_path, options.fault_injection,
         std::nullopt},
        &injector_);
    SDJ_CHECK(file != nullptr);
    pool_ = std::make_unique<storage::BufferPool>(
        std::move(file), options.buffer_pages, options.retry);
    bucket_capacity_ = Layout::Capacity(options.page_size);
    if (options.bucket_capacity_override != 0) {
      bucket_capacity_ =
          std::min(bucket_capacity_, options.bucket_capacity_override);
    }
    SDJ_CHECK(bucket_capacity_ >= kQuadrants);
    SDJ_CHECK(Layout::Capacity(options.page_size) >= kQuadrants);
  }

  PointQuadtree(const PointQuadtree&) = delete;
  PointQuadtree& operator=(const PointQuadtree&) = delete;
  PointQuadtree(PointQuadtree&&) noexcept = default;
  PointQuadtree& operator=(PointQuadtree&&) noexcept = default;

  // RAII read handle; same shape as RTree::PinnedNode.
  class PinnedNode {
   public:
    PinnedNode(storage::BufferPool* pool, storage::PageId page)
        : pool_(pool), page_(page), data_(pool->Pin(page)) {}
    // Adopts an already-pinned buffer (null = failed pin, empty handle).
    PinnedNode(storage::BufferPool* pool, storage::PageId page,
               const char* data)
        : pool_(data == nullptr ? nullptr : pool), page_(page), data_(data) {}
    ~PinnedNode() {
      if (pool_ != nullptr) pool_->Unpin(page_, /*dirty=*/false);
    }
    PinnedNode(const PinnedNode&) = delete;
    PinnedNode& operator=(const PinnedNode&) = delete;
    PinnedNode(PinnedNode&& other) noexcept
        : pool_(other.pool_), page_(other.page_), data_(other.data_) {
      other.pool_ = nullptr;
    }
    PinnedNode& operator=(PinnedNode&&) = delete;

    // False if the pin failed; the handle is inert (destructor is a no-op).
    bool ok() const { return data_ != nullptr; }

    storage::PageId page() const { return page_; }
    int level() const { return Layout::GetLevel(data_) & ~kLeafBit; }
    bool is_leaf() const { return (Layout::GetLevel(data_) & kLeafBit) != 0; }
    uint32_t count() const { return Layout::GetCount(data_); }
    // Child quadrant region (interior) or point rect (leaf).
    Rect<Dim> rect(uint32_t i) const { return Layout::GetRect(data_, i); }
    // Child page id (interior) or object id (leaf).
    uint64_t ref(uint32_t i) const { return Layout::GetRef(data_, i); }
    // Batch decode; same contract as RTree::PinnedNode::DecodeInto.
    void DecodeInto(RectBatch<Dim>* rects, std::vector<uint64_t>* refs)
        const {
      Layout::DecodeEntries(data_, rects, refs);
    }
    // Interface parity with RTree::PinnedNode::DecodeScreened: quadtree
    // pages store raw doubles, so there are no codes to screen — always a
    // plain full decode, reporting that screening did not run.
    bool DecodeScreened(const Rect<Dim>& query, double max_distance,
                        simd::Isa isa,
                        code_screen::ScreenScratch<Dim>* scratch,
                        RectBatch<Dim>* rects, std::vector<uint64_t>* refs,
                        size_t* screened_out) const {
      (void)query;
      (void)max_distance;
      (void)isa;
      (void)scratch;
      *screened_out = 0;
      Layout::DecodeEntries(data_, rects, refs);
      return false;
    }

   private:
    storage::BufferPool* pool_;
    storage::PageId page_;
    const char* data_;
  };

  PinnedNode Pin(storage::PageId page) const {
    return PinnedNode(pool_.get(), page);
  }

  // Failable pin; same contract as RTree::TryPin.
  PinnedNode TryPin(storage::PageId page,
                    storage::IoStatus* status = nullptr) const {
    const char* data = pool_->TryPin(page, status);
    return PinnedNode(pool_.get(), page, data);
  }

  bool empty() const { return root_ == storage::kInvalidPageId; }
  size_t size() const { return size_; }
  // Largest ObjectId ever inserted (0 for an empty tree); see
  // RTree::max_object_id.
  ObjectId max_object_id() const { return max_object_id_; }
  storage::PageId root() const { return root_; }
  // Engine-facing level of the root; leaves sit at max_depth - depth.
  int root_level() const { return options_.max_depth; }
  // The quadtree's region (its fixed extent, not a minimal bound).
  Rect<Dim> RootMbr() const { return extent_; }
  // Interface parity with RTree::TryRootMbr: the extent needs no page read.
  bool TryRootMbr(Rect<Dim>* out) const {
    *out = extent_;
    return true;
  }
  const Rect<Dim>& extent() const { return extent_; }
  uint32_t bucket_capacity() const { return bucket_capacity_; }
  size_t num_nodes() const { return num_nodes_; }
  size_t num_leaves() const { return num_leaves_; }

  // Quadtrees guarantee no minimum occupancy; 1 is the only safe bound.
  uint64_t MinObjectsUnder(int level) const {
    (void)level;
    return 1;
  }
  // Crude average for the paper's aggressive estimation mode.
  double ExpectedObjectsUnder(int level) const {
    (void)level;
    if (num_leaves_ == 0) return 0.0;
    return static_cast<double>(size_) / num_leaves_;
  }

  storage::BufferPool& pool() const { return *pool_; }

  // Fault-injection layer, when options.fault_injection was set; null
  // otherwise. Borrowed from the pool-owned page-store stack.
  storage::FaultInjectingPageFile* injector() const { return injector_; }

  // Inserts one point; must lie inside the extent.
  void Insert(const Point<Dim>& point, ObjectId id) {
    SDJ_CHECK(extent_.Contains(point));
    if (empty()) {
      root_ = AllocateNode(options_.max_depth, /*leaf=*/true);
    }
    InsertAt(root_, extent_, 0, point, id);
    ++size_;
    max_object_id_ = std::max(max_object_id_, id);
  }

  // RTree-compatible overload for degenerate rects.
  void Insert(const Rect<Dim>& rect, ObjectId id) {
    SDJ_CHECK(rect.lo == rect.hi);
    Insert(rect.lo, id);
  }

  // Appends all points inside `query` to `out`.
  void RangeQuery(const Rect<Dim>& query, std::vector<Entry>* out) const {
    if (empty()) return;
    RangeQueryNode(root_, query, out);
  }

  // Invokes fn(rect, id) for every point.
  template <typename Fn>
  void ForEachObject(Fn&& fn) const {
    if (empty()) return;
    ForEachObjectNode(root_, fn);
  }

  // Structural invariants: quadrant geometry, depth bounds, containment,
  // object count. Returns false with a message on violation.
  bool Validate(std::string* error = nullptr) const {
    if (empty()) {
      if (size_ != 0) return Fail(error, "empty tree with nonzero size");
      return true;
    }
    size_t objects = 0;
    if (!ValidateNode(root_, extent_, 0, &objects, error)) return false;
    if (objects != size_) return Fail(error, "object count mismatch");
    return true;
  }

 private:
  storage::PageId AllocateNode(int level, bool leaf) {
    storage::PageId page;
    char* data = pool_->NewPage(&page);
    Layout::SetLevel(data, static_cast<uint16_t>(level) |
                               (leaf ? kLeafBit : 0));
    Layout::SetCount(data, 0);
    pool_->Unpin(page, /*dirty=*/true);
    ++num_nodes_;
    if (leaf) ++num_leaves_;
    return page;
  }

  // Index of the quadrant of `region` containing `p` (ties to the high
  // side), plus the quadrant's rect.
  static uint32_t QuadrantOf(const Rect<Dim>& region, const Point<Dim>& p,
                             Rect<Dim>* quadrant) {
    uint32_t index = 0;
    *quadrant = region;
    for (int d = 0; d < Dim; ++d) {
      const double mid = 0.5 * (region.lo[d] + region.hi[d]);
      if (p[d] >= mid) {
        index |= 1u << d;
        quadrant->lo[d] = mid;
      } else {
        quadrant->hi[d] = mid;
      }
    }
    return index;
  }

  void InsertAt(storage::PageId page, const Rect<Dim>& region, int depth,
                const Point<Dim>& point, ObjectId id) {
    char* data = pool_->Pin(page);
    const bool leaf = (Layout::GetLevel(data) & kLeafBit) != 0;
    const uint16_t count = Layout::GetCount(data);

    if (leaf && count < bucket_capacity_) {
      Layout::SetRect(data, count, Rect<Dim>::FromPoint(point));
      Layout::SetRef(data, count, id);
      Layout::SetCount(data, count + 1);
      pool_->Unpin(page, /*dirty=*/true);
      return;
    }

    if (leaf) {
      // Split: convert this page to an interior node and push the bucket
      // down one level. Coincident points beyond the bucket capacity would
      // recurse forever; the depth check guards that.
      SDJ_CHECK(depth < options_.max_depth);
      std::vector<std::pair<Point<Dim>, ObjectId>> bucket;
      bucket.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        bucket.push_back({Layout::GetRect(data, i).lo, Layout::GetRef(data, i)});
      }
      const int level = Layout::GetLevel(data) & ~kLeafBit;
      Layout::SetLevel(data, static_cast<uint16_t>(level));  // now interior
      Layout::SetCount(data, 0);
      pool_->Unpin(page, /*dirty=*/true);
      --num_leaves_;
      for (const auto& [p, oid] : bucket) {
        InsertAt(page, region, depth, p, oid);
      }
      InsertAt(page, region, depth, point, id);
      return;
    }

    // Interior: find (or create) the child quadrant and descend.
    Rect<Dim> quadrant;
    QuadrantOf(region, point, &quadrant);
    storage::PageId child = storage::kInvalidPageId;
    for (uint32_t i = 0; i < count; ++i) {
      if (Layout::GetRect(data, i).Contains(point) &&
          Layout::GetRect(data, i) == quadrant) {
        child = static_cast<storage::PageId>(Layout::GetRef(data, i));
        break;
      }
    }
    if (child == storage::kInvalidPageId) {
      const int level = Layout::GetLevel(data) & ~kLeafBit;
      pool_->Unpin(page, /*dirty=*/false);
      child = AllocateNode(level - 1, /*leaf=*/true);
      data = pool_->Pin(page);
      const uint16_t fresh_count = Layout::GetCount(data);
      SDJ_CHECK(fresh_count < kQuadrants);
      Layout::SetRect(data, fresh_count, quadrant);
      Layout::SetRef(data, fresh_count, child);
      Layout::SetCount(data, fresh_count + 1);
      pool_->Unpin(page, /*dirty=*/true);
    } else {
      pool_->Unpin(page, /*dirty=*/false);
    }
    InsertAt(child, quadrant, depth + 1, point, id);
  }

  void RangeQueryNode(storage::PageId page, const Rect<Dim>& query,
                      std::vector<Entry>* out) const {
    PinnedNode node = Pin(page);
    for (uint32_t i = 0; i < node.count(); ++i) {
      if (!query.Intersects(node.rect(i))) continue;
      if (node.is_leaf()) {
        out->push_back({node.rect(i), node.ref(i)});
      } else {
        RangeQueryNode(static_cast<storage::PageId>(node.ref(i)), query, out);
      }
    }
  }

  template <typename Fn>
  void ForEachObjectNode(storage::PageId page, Fn& fn) const {
    PinnedNode node = Pin(page);
    for (uint32_t i = 0; i < node.count(); ++i) {
      if (node.is_leaf()) {
        fn(node.rect(i), node.ref(i));
      } else {
        ForEachObjectNode(static_cast<storage::PageId>(node.ref(i)), fn);
      }
    }
  }

  static bool Fail(std::string* error, const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  }

  bool ValidateNode(storage::PageId page, const Rect<Dim>& region, int depth,
                    size_t* objects, std::string* error) const {
    PinnedNode node = Pin(page);
    if (depth > options_.max_depth) {
      return Fail(error, "node deeper than max_depth");
    }
    if (node.level() != options_.max_depth - depth) {
      return Fail(error, "level/depth mismatch at page " +
                             std::to_string(page));
    }
    if (node.is_leaf()) {
      if (node.count() > bucket_capacity_) {
        return Fail(error, "overfull bucket at page " + std::to_string(page));
      }
      for (uint32_t i = 0; i < node.count(); ++i) {
        if (!region.Contains(node.rect(i).lo)) {
          return Fail(error, "point outside its region at page " +
                                 std::to_string(page));
        }
      }
      *objects += node.count();
      return true;
    }
    if (node.count() > kQuadrants) {
      return Fail(error, "interior node with too many children");
    }
    for (uint32_t i = 0; i < node.count(); ++i) {
      const Rect<Dim> child_region = node.rect(i);
      if (!region.Contains(child_region)) {
        return Fail(error, "child region escapes parent");
      }
      // Verify the child is a genuine quadrant (its center maps back).
      Rect<Dim> expected;
      QuadrantOf(region, child_region.Center(), &expected);
      if (!(expected == child_region)) {
        return Fail(error, "child region is not a quadrant");
      }
      if (!ValidateNode(static_cast<storage::PageId>(node.ref(i)),
                        child_region, depth + 1, objects, error)) {
        return false;
      }
    }
    return true;
  }

  QuadtreeOptions options_;
  Rect<Dim> extent_;
  mutable std::unique_ptr<storage::BufferPool> pool_;
  storage::FaultInjectingPageFile* injector_ = nullptr;
  uint32_t bucket_capacity_ = 0;
  storage::PageId root_ = storage::kInvalidPageId;
  size_t size_ = 0;
  size_t num_nodes_ = 0;
  size_t num_leaves_ = 0;
  ObjectId max_object_id_ = 0;
};

}  // namespace sdj

#endif  // SDJOIN_QUADTREE_QUADTREE_H_
