// Disk-paged R-tree with R*-tree insertion (Beckmann et al. [5], the variant
// the paper evaluates — Section 2.1/3.1) and a classic Guttman quadratic-split
// mode for ablations.
//
// Nodes live in fixed-size pages behind an LRU buffer pool, so every algorithm
// running on the tree gets faithful "node I/O" accounting. Objects are stored
// directly in the leaves as degenerate rectangles (the paper's experimental
// configuration); extended objects simply use non-degenerate entry MBRs.
//
// Thread-compatible: concurrent readers need external synchronization because
// reads go through the shared buffer pool.
#ifndef SDJOIN_RTREE_RTREE_H_
#define SDJOIN_RTREE_RTREE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "geometry/code_screen.h"
#include "geometry/distance.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "geometry/simd.h"
#include "rtree/node_layout.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "storage/page_store.h"
#include "util/check.h"

namespace sdj {

// Identifies a data object stored in a leaf. The join algorithms assume ids
// are dense in [0, N) per relation (they index bit strings and bound tables
// with them); use the object's position in the input collection.
using ObjectId = uint64_t;

// Construction parameters for an RTree.
struct RTreeOptions {
  enum class Split { kRStar, kQuadratic };

  // Bytes per node; determines the fan-out (2048 => 51 entries in 2-D,
  // matching the paper's fan-out of 50 with 1K float-coordinate nodes).
  uint32_t page_size = storage::kDefaultPageSize;
  // LRU buffer capacity in pages (128 * 2K = 256K, the paper's buffer size).
  uint32_t buffer_pages = 128;
  // If non-zero, caps the fan-out below what the page could hold.
  uint32_t max_entries_override = 0;
  // Minimum node fill as a fraction of the maximum (paper: "typically 40%").
  double min_fill = 0.4;
  Split split_policy = Split::kRStar;
  // Fraction of entries re-inserted on the first overflow per level per
  // insertion (R* forced reinsert; Beckmann et al. recommend 30%).
  double reinsert_fraction = 0.3;
  // Leaf fill fraction used by BulkLoad.
  double bulk_fill = 0.9;
  // If non-empty, pages are stored in this file instead of memory.
  std::string file_path;
  // If set, the page store injects faults from this schedule (testing).
  std::optional<storage::FaultInjectionOptions> fault_injection;
  // If set, the page store simulates power loss at one exact write/sync op
  // (testing — see storage::CrashPointPageFile). Because tree construction
  // uses aborting Pin/NewPage (no recovery path, CLAUDE.md), a crash point
  // hit during a build aborts the process; crash-point build tests run the
  // build in a death-test child and scrub the torn file from the parent.
  std::optional<storage::CrashPointOptions> crash_point;
  // For Open(): truncate a torn final page instead of refusing the file.
  bool recover_truncated_tail = false;
  // Bounded-retry policy for the tree's buffer pool.
  storage::RetryPolicy retry;
  // How node pages store entry MBRs (rtree/node_layout.h). kQuantized packs
  // each MBR into per-node fixed-point u16 codes, roughly 2.5x the fan-out
  // per page in 2-D; codes round outward, so decoded MBRs conservatively
  // contain the stored rects but are no longer minimal bounding regions
  // (minimal_bounding_regions() returns false and the join engines fall back
  // to containment-only d_max bounds, as for the quadtree).
  NodeEncoding encoding = NodeEncoding::kRaw;
};

// A height-balanced R-tree over Rect<Dim> keys (Section 2.1).
template <int Dim>
class RTree {
 public:
  // Node MBRs minimally bound the data beneath them (every face touched),
  // enabling the MINMAXDIST-based d_max bounds of Section 2.2.3. This is the
  // compile-time upper bound; quantized trees lose minimality to outward
  // rounding, so engines must consult minimal_bounding_regions() at runtime.
  static constexpr bool kMinimalBoundingRegions = true;
  static constexpr int kDim = Dim;

  // Whether this tree's node MBRs are minimal bounding regions. False under
  // NodeEncoding::kQuantized: outward rounding keeps MINDIST lower bounds
  // valid but breaks the "every face touched" premise of MINMAXDIST, so the
  // engines must use containment-only d_max bounds (SemiPairMaxDistLoose).
  bool minimal_bounding_regions() const {
    return options_.encoding == NodeEncoding::kRaw;
  }

  // One leaf-level (object) entry.
  struct Entry {
    Rect<Dim> rect;
    ObjectId id = 0;
  };

  explicit RTree(const RTreeOptions& options = RTreeOptions())
      : options_(options), codec_(options.encoding) {
    std::unique_ptr<storage::PageFile> file = storage::CreatePageStore(
        {options.page_size, options.file_path, options.fault_injection,
         options.crash_point},
        &injector_, &crash_);
    SDJ_CHECK(file != nullptr);
    pool_ = std::make_unique<storage::BufferPool>(
        std::move(file), options.buffer_pages, options.retry);
    max_entries_ = codec_.Capacity(options.page_size);
    if (options.max_entries_override != 0) {
      max_entries_ = std::min(max_entries_, options.max_entries_override);
    }
    SDJ_CHECK(max_entries_ >= 4);
    min_entries_ = std::max<uint32_t>(
        2, static_cast<uint32_t>(max_entries_ * options.min_fill));
    // Page 0 is reserved for tree metadata (persistence; see Flush/Open).
    storage::PageId meta;
    pool_->NewPage(&meta);
    SDJ_CHECK(meta == kMetaPage);
    pool_->Unpin(meta, /*dirty=*/true);
  }

  // Opens a previously Flush()ed file-backed tree. `options.file_path` must
  // name the file; page_size must match creation time (verified against the
  // stored metadata, as are dimension and fan-out). Returns null if the file
  // is missing, was created with different parameters, or is not a flushed
  // sdjoin R-tree.
  static std::unique_ptr<RTree> Open(const RTreeOptions& options) {
    SDJ_CHECK(!options.file_path.empty());
    storage::FaultInjectingPageFile* injector = nullptr;
    storage::CrashPointPageFile* crash = nullptr;
    std::unique_ptr<storage::PageFile> file = storage::OpenPageStore(
        {options.page_size, options.file_path, options.fault_injection,
         options.crash_point},
        options.recover_truncated_tail, &injector, &crash);
    if (file == nullptr || file->num_pages() == 0) return nullptr;
    auto pool = std::make_unique<storage::BufferPool>(
        std::move(file), options.buffer_pages, options.retry);
    std::unique_ptr<RTree> tree(new RTree(options, std::move(pool)));
    tree->injector_ = injector;
    tree->crash_ = crash;
    if (!tree->LoadMeta()) return nullptr;
    return tree;
  }

  // Writes the tree metadata and flushes every dirty page to the backing
  // store (fsync included); a file-backed tree becomes reopenable via Open()
  // afterwards. Returns false if any page could not be written back.
  bool Flush() {
    StoreMeta();
    return pool_->FlushAll();
  }

  // Move-only (owns the buffer pool).
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;
  RTree(RTree&&) noexcept = default;
  RTree& operator=(RTree&&) noexcept = default;

  // --- Read access -------------------------------------------------------

  // RAII read handle on a node page; the page stays buffered while alive.
  // A handle from TryPin may be empty (ok() == false) after an I/O failure;
  // accessors must not be called on an empty handle.
  class PinnedNode {
   public:
    PinnedNode(storage::BufferPool* pool, storage::PageId page,
               rtree_internal::NodeCodec<Dim> codec)
        : pool_(pool), page_(page), data_(pool->Pin(page)), codec_(codec) {}
    // Adopts an already-pinned buffer (null = failed pin, empty handle).
    PinnedNode(storage::BufferPool* pool, storage::PageId page,
               const char* data, rtree_internal::NodeCodec<Dim> codec)
        : pool_(data == nullptr ? nullptr : pool),
          page_(page),
          data_(data),
          codec_(codec) {}
    ~PinnedNode() {
      if (pool_ != nullptr) pool_->Unpin(page_, /*dirty=*/false);
    }
    PinnedNode(const PinnedNode&) = delete;
    PinnedNode& operator=(const PinnedNode&) = delete;
    PinnedNode(PinnedNode&& other) noexcept
        : pool_(other.pool_),
          page_(other.page_),
          data_(other.data_),
          codec_(other.codec_) {
      other.pool_ = nullptr;
    }
    PinnedNode& operator=(PinnedNode&&) = delete;

    // False if the pin failed; the handle is inert (destructor is a no-op).
    bool ok() const { return data_ != nullptr; }

    storage::PageId page() const { return page_; }
    int level() const { return codec_.GetLevel(data_); }
    bool is_leaf() const { return level() == 0; }
    uint32_t count() const { return codec_.GetCount(data_); }
    Rect<Dim> rect(uint32_t i) const { return codec_.GetRect(data_, i); }
    // Child page id (interior nodes) or object id (leaves).
    uint64_t ref(uint32_t i) const { return codec_.GetRef(data_, i); }
    // Decodes all entries straight off the page into structure-of-arrays
    // form for the batched distance kernels (one pass, replaces contents).
    void DecodeInto(RectBatch<Dim>* rects, std::vector<uint64_t>* refs)
        const {
      codec_.DecodeEntries(data_, rects, refs);
    }
    // DecodeInto with integer-domain screening (DESIGN.md §17): on a
    // quantized page, screens the entry codes against `query` and
    // `max_distance` and decodes only the survivors (page order preserved).
    // Every screened-out entry is PROVABLY out of range — the exact kernels
    // would compute MinDist > max_distance for its decoded rect — so the
    // caller charges it the same counters the classify ladder charges a
    // range-pruned entry and the output stream is unchanged. Returns true
    // iff screening actually ran (quantized page with a prunable grid);
    // *screened_out gets the number of entries dropped (0 otherwise, with
    // a plain full decode).
    bool DecodeScreened(const Rect<Dim>& query, double max_distance,
                        simd::Isa isa,
                        code_screen::ScreenScratch<Dim>* scratch,
                        RectBatch<Dim>* rects, std::vector<uint64_t>* refs,
                        size_t* screened_out) const {
      *screened_out = 0;
      if (!codec_.quantized()) {
        codec_.DecodeEntries(data_, rects, refs);
        return false;
      }
      using Quant = rtree_internal::QuantizedNodeLayout<Dim>;
      const typename Quant::Grid g = Quant::GetGrid(data_);
      code_screen::Prepare<Dim>(g.base, g.scale, query, max_distance,
                                &scratch->query);
      if (!scratch->query.active) {
        codec_.DecodeEntries(data_, rects, refs);
        return false;
      }
      const uint32_t n = codec_.GetCount(data_);
      scratch->codes.resize(size_t{n} * 2 * Dim);
      Quant::CopyCodes(data_, scratch->codes.data());
      scratch->pruned.resize(n);
      code_screen::ScreenCodesBatch<Dim>(scratch->query,
                                         scratch->codes.data(), n,
                                         scratch->pruned.data(), isa);
      const uint32_t kept = Quant::DecodeEntriesSubset(
          data_, scratch->pruned.data(), rects, refs);
      *screened_out = n - kept;
      return true;
    }

   private:
    storage::BufferPool* pool_;
    storage::PageId page_;
    const char* data_;
    rtree_internal::NodeCodec<Dim> codec_;
  };

  // Pins node `page` for reading. Valid page ids come from root() or ref().
  // Aborts on I/O failure; algorithms with a recovery path use TryPin.
  PinnedNode Pin(storage::PageId page) const {
    return PinnedNode(pool_.get(), page, codec_);
  }

  // Pins node `page`, reporting I/O failure (after the pool's bounded
  // retries) as an empty handle instead of aborting. `status`, when non-null,
  // receives the failing IoStatus.
  PinnedNode TryPin(storage::PageId page,
                    storage::IoStatus* status = nullptr) const {
    const char* data = pool_->TryPin(page, status);
    return PinnedNode(pool_.get(), page, data, codec_);
  }

  bool empty() const { return root_ == storage::kInvalidPageId; }
  // Number of objects.
  size_t size() const { return size_; }
  // Largest ObjectId ever inserted (0 for an empty tree). The join engines
  // validate the dense-id precondition (ids in [0, size)) against this at
  // construction; Delete never shrinks it, so the check is conservative.
  ObjectId max_object_id() const { return max_object_id_; }
  // Number of levels; 0 for an empty tree, 1 for a root-leaf tree.
  int height() const { return empty() ? 0 : root_level_ + 1; }
  storage::PageId root() const { return root_; }
  int root_level() const { return root_level_; }
  uint32_t max_entries() const { return max_entries_; }
  uint32_t min_entries() const { return min_entries_; }
  size_t num_nodes() const { return num_nodes_; }
  size_t num_leaves() const { return num_leaves_; }

  // MBR of the whole tree (the root's entries). Tree must be non-empty.
  Rect<Dim> RootMbr() const {
    SDJ_CHECK(!empty());
    PinnedNode node = Pin(root_);
    return MbrOfNode(node);
  }

  // RootMbr through TryPin, for the engines' seeding (DESIGN.md §9): false
  // if the root page is unreadable. Open() reads only the meta page, so the
  // root's first read can be an engine's. Tree must be non-empty.
  bool TryRootMbr(Rect<Dim>* out) const {
    SDJ_CHECK(!empty());
    PinnedNode node = TryPin(root_);
    if (!node.ok()) return false;
    *out = MbrOfNode(node);
    return true;
  }

  // Guaranteed lower bound on the number of objects in the subtree of a node
  // at `level` (Section 2.2.4: derived from minimum fan-out and height). The
  // root is exempt from the minimum-fill rule, but only non-root nodes appear
  // as subtree items inside the join, so min_entries^(level+1) applies.
  uint64_t MinObjectsUnder(int level) const {
    uint64_t n = 1;
    for (int l = 0; l <= level; ++l) n *= min_entries_;
    return n;
  }

  // Expected number of objects under a node at `level`: the measured average
  // over all nodes at that level (the paper's "more aggressive strategy",
  // Section 2.2.4 — may overestimate for a specific node and force a query
  // restart).
  double ExpectedObjectsUnder(int level) const {
    if (level < 0 || static_cast<size_t>(level) >= nodes_per_level_.size() ||
        nodes_per_level_[level] == 0) {
      return 0.0;
    }
    return static_cast<double>(size_) / nodes_per_level_[level];
  }

  // --- Modification ------------------------------------------------------

  // Inserts one object.
  void Insert(const Rect<Dim>& rect, ObjectId id) {
    SDJ_CHECK(rect.IsValid());
    std::vector<bool> reinserted;  // one flag per level, lazily sized
    InsertAtLevel(0, rect, id, &reinserted);
    ++size_;
    max_object_id_ = std::max(max_object_id_, id);
  }

  // Removes the object with exactly this (rect, id) entry. Returns false if
  // no such entry exists.
  bool Delete(const Rect<Dim>& rect, ObjectId id) {
    if (empty()) return false;
    std::vector<PathStep> path;
    storage::PageId leaf = storage::kInvalidPageId;
    uint32_t leaf_index = 0;
    if (!FindLeaf(root_, root_level_, rect, id, &path, &leaf, &leaf_index)) {
      return false;
    }
    RemoveEntry(leaf, leaf_index);
    CondenseTree(path, leaf);
    --size_;
    return true;
  }

  // Builds the tree from scratch with sort-tile-recursive packing. The tree
  // must be empty. Much faster than repeated Insert and produces well-shaped
  // nodes with `bulk_fill` occupancy.
  void BulkLoad(std::vector<Entry> entries) {
    SDJ_CHECK(empty());
    if (entries.empty()) return;
    const uint32_t cap = std::max<uint32_t>(
        min_entries_,
        static_cast<uint32_t>(max_entries_ * options_.bulk_fill));
    // Pack the leaf level.
    std::vector<std::pair<Rect<Dim>, uint64_t>> items;
    items.reserve(entries.size());
    for (const Entry& e : entries) {
      items.push_back({e.rect, e.id});
      max_object_id_ = std::max(max_object_id_, e.id);
    }
    size_ = entries.size();
    int level = 0;
    for (;;) {
      std::vector<std::pair<Rect<Dim>, uint64_t>> parents;
      PackLevel(&items, cap, level, &parents);
      items = std::move(parents);
      if (items.size() == 1) break;
      ++level;
    }
    root_ = static_cast<storage::PageId>(items[0].second);
    root_level_ = level;
  }

  // --- Queries -----------------------------------------------------------

  // Appends all objects whose entry MBR intersects `query` to `out`.
  void RangeQuery(const Rect<Dim>& query, std::vector<Entry>* out) const {
    if (empty()) return;
    RangeQueryNode(root_, query, out);
  }

  // Invokes `fn(rect, id)` for every object, in leaf order.
  template <typename Fn>
  void ForEachObject(Fn&& fn) const {
    if (empty()) return;
    ForEachObjectNode(root_, fn);
  }

  // --- Introspection -----------------------------------------------------

  // Checks all structural invariants (balance, fill, MBR tightness, object
  // count). Returns true if consistent; otherwise false with a description
  // in `error` (if non-null).
  bool Validate(std::string* error = nullptr) const {
    if (empty()) {
      if (size_ != 0) return Fail(error, "empty tree with nonzero size");
      return true;
    }
    size_t objects = 0;
    if (!ValidateNode(root_, root_level_, /*is_root=*/true, nullptr, &objects,
                      error)) {
      return false;
    }
    if (objects != size_) return Fail(error, "object count mismatch");
    return true;
  }

  // The buffer pool, exposed for I/O accounting (Table 1's "Node I/O") and
  // for cold-cache experiment setup.
  storage::BufferPool& pool() const { return *pool_; }

  // Fault-injection layer, when options.fault_injection was set; null
  // otherwise. Borrowed from the pool-owned page-store stack.
  storage::FaultInjectingPageFile* injector() const { return injector_; }

  // Crash-point layer, when options.crash_point was set; null otherwise.
  // Borrowed from the pool-owned page-store stack.
  storage::CrashPointPageFile* crash_point() const { return crash_; }

 private:
  static constexpr storage::PageId kMetaPage = 0;
  static constexpr uint32_t kMetaMagic = 0x534A5254;  // "SJRT"
  // v2 appends max_object_id (dense-id precondition survives reopen).
  // v3 appends the node encoding; Open() refuses a file whose encoding does
  // not match options.encoding (pages would be misread otherwise).
  static constexpr uint32_t kMetaVersion = 3;

  struct PathStep {
    storage::PageId page;
    uint32_t child_index;
  };

  // Private constructor for Open(): adopts an existing pool, allocates no
  // meta page.
  RTree(const RTreeOptions& options,
        std::unique_ptr<storage::BufferPool> pool)
      : options_(options), codec_(options.encoding), pool_(std::move(pool)) {
    max_entries_ = codec_.Capacity(options.page_size);
    if (options.max_entries_override != 0) {
      max_entries_ = std::min(max_entries_, options.max_entries_override);
    }
    min_entries_ = std::max<uint32_t>(
        2, static_cast<uint32_t>(max_entries_ * options.min_fill));
  }

  void StoreMeta() {
    char* data = pool_->Pin(kMetaPage);
    char* p = data;
    const auto put32 = [&p](uint32_t v) {
      std::memcpy(p, &v, 4);
      p += 4;
    };
    const auto put64 = [&p](uint64_t v) {
      std::memcpy(p, &v, 8);
      p += 8;
    };
    put32(kMetaMagic);
    put32(kMetaVersion);
    put32(static_cast<uint32_t>(Dim));
    put32(options_.page_size);
    put32(max_entries_);
    put32(min_entries_);
    put32(static_cast<uint32_t>(options_.encoding));
    put32(root_);
    put32(static_cast<uint32_t>(root_level_));
    put64(size_);
    put64(num_nodes_);
    put64(num_leaves_);
    put64(max_object_id_);
    put32(static_cast<uint32_t>(nodes_per_level_.size()));
    for (size_t n : nodes_per_level_) put64(n);
    pool_->Unpin(kMetaPage, /*dirty=*/true);
  }

  bool LoadMeta() {
    // A corrupt or unreadable meta page makes Open() return null rather
    // than aborting.
    const char* data = pool_->TryPin(kMetaPage);
    if (data == nullptr) return false;
    const char* p = data;
    const auto get32 = [&p]() {
      uint32_t v;
      std::memcpy(&v, p, 4);
      p += 4;
      return v;
    };
    const auto get64 = [&p]() {
      uint64_t v;
      std::memcpy(&v, p, 8);
      p += 8;
      return v;
    };
    bool ok = get32() == kMetaMagic && get32() == kMetaVersion &&
              get32() == static_cast<uint32_t>(Dim) &&
              get32() == options_.page_size && get32() == max_entries_ &&
              get32() == min_entries_ &&
              get32() == static_cast<uint32_t>(options_.encoding);
    if (ok) {
      root_ = get32();
      root_level_ = static_cast<int>(get32());
      size_ = get64();
      num_nodes_ = get64();
      num_leaves_ = get64();
      max_object_id_ = get64();
      nodes_per_level_.assign(get32(), 0);
      for (size_t& n : nodes_per_level_) n = get64();
    }
    pool_->Unpin(kMetaPage, /*dirty=*/false);
    return ok;
  }

  // -- small page helpers --

  storage::PageId AllocateNode(int level) {
    storage::PageId id;
    char* data = pool_->NewPage(&id);
    codec_.Init(data, static_cast<uint16_t>(level));
    pool_->Unpin(id, /*dirty=*/true);
    ++num_nodes_;
    if (level == 0) ++num_leaves_;
    if (nodes_per_level_.size() <= static_cast<size_t>(level)) {
      nodes_per_level_.resize(level + 1, 0);
    }
    ++nodes_per_level_[level];
    return id;
  }

  void ReleaseNode(int level) {
    --num_nodes_;
    if (level == 0) --num_leaves_;
    SDJ_DCHECK(static_cast<size_t>(level) < nodes_per_level_.size());
    --nodes_per_level_[level];
  }

  static Rect<Dim> MbrOfNode(const PinnedNode& node) {
    Rect<Dim> mbr = Rect<Dim>::Empty();
    for (uint32_t i = 0; i < node.count(); ++i) {
      mbr.ExpandToInclude(node.rect(i));
    }
    return mbr;
  }

  Rect<Dim> ComputeNodeMbr(storage::PageId page) const {
    PinnedNode node = Pin(page);
    return MbrOfNode(node);
  }

  void AppendEntry(storage::PageId page, const Rect<Dim>& rect, uint64_t ref) {
    char* data = pool_->Pin(page);
    SDJ_CHECK(codec_.GetCount(data) < max_entries_);
    codec_.Append(data, rect, ref);
    pool_->Unpin(page, /*dirty=*/true);
  }

  void RemoveEntry(storage::PageId page, uint32_t index) {
    char* data = pool_->Pin(page);
    codec_.Remove(data, index);
    pool_->Unpin(page, /*dirty=*/true);
  }

  void WriteEntries(storage::PageId page,
                    const std::vector<std::pair<Rect<Dim>, uint64_t>>& entries,
                    size_t begin, size_t end) {
    char* data = pool_->Pin(page);
    SDJ_CHECK(end - begin <= max_entries_);
    codec_.WriteAll(data, entries, begin, end);
    pool_->Unpin(page, /*dirty=*/true);
  }

  // -- insertion --

  void InsertAtLevel(int target_level, const Rect<Dim>& rect, uint64_t ref,
                     std::vector<bool>* reinserted) {
    if (empty()) {
      SDJ_CHECK(target_level == 0);
      root_ = AllocateNode(0);
      root_level_ = 0;
      AppendEntry(root_, rect, ref);
      return;
    }
    if (reinserted->size() < static_cast<size_t>(root_level_) + 1) {
      reinserted->resize(root_level_ + 1, false);
    }

    // Descend to the target level, remembering the path.
    std::vector<PathStep> path;
    storage::PageId node = root_;
    int level = root_level_;
    while (level > target_level) {
      PinnedNode pinned = Pin(node);
      const uint32_t child_index = ChooseSubtree(pinned, rect);
      const storage::PageId child =
          static_cast<storage::PageId>(pinned.ref(child_index));
      path.push_back({node, child_index});
      node = child;
      --level;
    }

    Rect<Dim> pending_rect = rect;
    uint64_t pending_ref = ref;
    for (;;) {
      char* data = pool_->Pin(node);
      const uint16_t count = codec_.GetCount(data);
      const int node_level = codec_.GetLevel(data);
      if (count < max_entries_) {
        codec_.Append(data, pending_rect, pending_ref);
        pool_->Unpin(node, /*dirty=*/true);
        PropagateMbrUp(path, node);
        return;
      }

      // Overflow: collect the M+1 entries in memory. Under the quantized
      // encoding these are the DECODED rects — the tree only ever reasons
      // about what a reader will see, so splits and parent MBRs stay
      // consistent with the stored (outward-rounded) entries.
      std::vector<std::pair<Rect<Dim>, uint64_t>> all;
      all.reserve(count + 1);
      for (uint32_t i = 0; i < count; ++i) {
        all.push_back({codec_.GetRect(data, i), codec_.GetRef(data, i)});
      }
      pool_->Unpin(node, /*dirty=*/false);
      all.push_back({pending_rect, pending_ref});

      const bool is_root = (node == root_);
      if (options_.split_policy == RTreeOptions::Split::kRStar && !is_root &&
          !(*reinserted)[node_level]) {
        // R* forced reinsert: remove the entries farthest from the node
        // center and insert them again from the root (once per level per
        // top-level insertion).
        (*reinserted)[node_level] = true;
        Rect<Dim> mbr = Rect<Dim>::Empty();
        for (const auto& e : all) mbr.ExpandToInclude(e.first);
        const Point<Dim> center = mbr.Center();
        std::stable_sort(all.begin(), all.end(),
                         [&center](const auto& a, const auto& b) {
                           return Dist(a.first.Center(), center) >
                                  Dist(b.first.Center(), center);
                         });
        const size_t p = std::max<size_t>(
            1, static_cast<size_t>(all.size() * options_.reinsert_fraction));
        std::vector<std::pair<Rect<Dim>, uint64_t>> requeue(
            all.begin(), all.begin() + static_cast<long>(p));
        WriteEntries(node, all, p, all.size());
        PropagateMbrUp(path, node);
        // Reinsert far entries last-first (closest of the removed first).
        for (auto it = requeue.rbegin(); it != requeue.rend(); ++it) {
          InsertAtLevel(node_level, it->first, it->second, reinserted);
        }
        return;
      }

      // Split.
      size_t split_point = 0;
      if (options_.split_policy == RTreeOptions::Split::kRStar) {
        split_point = RStarSplit(&all);
      } else {
        split_point = QuadraticSplit(&all);
      }
      const storage::PageId right = AllocateNode(node_level);
      WriteEntries(node, all, 0, split_point);
      WriteEntries(right, all, split_point, all.size());
      Rect<Dim> mbr_left = Rect<Dim>::Empty();
      for (size_t i = 0; i < split_point; ++i) {
        mbr_left.ExpandToInclude(all[i].first);
      }
      Rect<Dim> mbr_right = Rect<Dim>::Empty();
      for (size_t i = split_point; i < all.size(); ++i) {
        mbr_right.ExpandToInclude(all[i].first);
      }
      if (codec_.quantized()) {
        // WriteEntries re-gridded both pages, so the stored entries may be
        // wider than `all`; parent MBRs must cover the decoded entries.
        // (Raw trees skip this: the extra pins would change buffer-pool
        // residency and thus the node-I/O accounting the goldens pin.)
        mbr_left = ComputeNodeMbr(node);
        mbr_right = ComputeNodeMbr(right);
      }

      if (is_root) {
        SDJ_CHECK(path.empty());
        const storage::PageId new_root = AllocateNode(node_level + 1);
        AppendEntry(new_root, mbr_left, node);
        AppendEntry(new_root, mbr_right, right);
        root_ = new_root;
        root_level_ = node_level + 1;
        return;
      }

      // Update the parent's rect for the split node, then push the new
      // sibling up as the pending entry.
      const PathStep step = path.back();
      path.pop_back();
      {
        char* parent = pool_->Pin(step.page);
        codec_.SetEntryRect(parent, step.child_index, mbr_left);
        pool_->Unpin(step.page, /*dirty=*/true);
      }
      pending_rect = mbr_right;
      pending_ref = right;
      node = step.page;
    }
  }

  // Recomputes ancestor MBRs bottom-up after `bottom` (the deepest modified
  // node) changed. `path[i].child_index` addresses the child chosen inside
  // `path[i].page`; that child is `path[i+1].page`, or `bottom` for the last
  // step.
  void PropagateMbrUp(const std::vector<PathStep>& path,
                      storage::PageId bottom) {
    for (size_t i = path.size(); i-- > 0;) {
      const storage::PageId child =
          (i + 1 < path.size()) ? path[i + 1].page : bottom;
      const Rect<Dim> mbr = ComputeNodeMbr(child);
      char* parent = pool_->Pin(path[i].page);
      codec_.SetEntryRect(parent, path[i].child_index, mbr);
      pool_->Unpin(path[i].page, /*dirty=*/true);
    }
  }

  // R* ChooseSubtree: minimal overlap enlargement when the children are
  // leaves, else minimal area enlargement; ties by area.
  uint32_t ChooseSubtree(const PinnedNode& node, const Rect<Dim>& rect) const {
    const uint32_t count = node.count();
    SDJ_CHECK(count > 0);
    uint32_t best = 0;
    if (node.level() == 1) {
      double best_overlap = 0.0;
      double best_enlarge = 0.0;
      double best_area = 0.0;
      for (uint32_t i = 0; i < count; ++i) {
        const Rect<Dim> ri = node.rect(i);
        Rect<Dim> enlarged = ri;
        enlarged.ExpandToInclude(rect);
        double overlap_delta = 0.0;
        for (uint32_t j = 0; j < count; ++j) {
          if (j == i) continue;
          const Rect<Dim> rj = node.rect(j);
          overlap_delta += enlarged.OverlapArea(rj) - ri.OverlapArea(rj);
        }
        const double enlarge = ri.AreaEnlargement(rect);
        const double area = ri.Area();
        if (i == 0 || overlap_delta < best_overlap ||
            (overlap_delta == best_overlap &&
             (enlarge < best_enlarge ||
              (enlarge == best_enlarge && area < best_area)))) {
          best = i;
          best_overlap = overlap_delta;
          best_enlarge = enlarge;
          best_area = area;
        }
      }
      return best;
    }
    double best_enlarge = 0.0;
    double best_area = 0.0;
    for (uint32_t i = 0; i < count; ++i) {
      const Rect<Dim> ri = node.rect(i);
      const double enlarge = ri.AreaEnlargement(rect);
      const double area = ri.Area();
      if (i == 0 || enlarge < best_enlarge ||
          (enlarge == best_enlarge && area < best_area)) {
        best = i;
        best_enlarge = enlarge;
        best_area = area;
      }
    }
    return best;
  }

  // R* split (Beckmann et al.): choose the axis with the smallest sum of
  // group margins over all distributions, then the distribution with minimal
  // overlap (ties: minimal total area). Reorders `entries` and returns the
  // index separating the two groups.
  size_t RStarSplit(std::vector<std::pair<Rect<Dim>, uint64_t>>* entries) {
    const size_t total = entries->size();
    const size_t m = min_entries_;
    SDJ_CHECK(total >= 2 * m);

    int best_axis = -1;
    bool best_axis_by_hi = false;
    double best_margin_sum = 0.0;
    for (int axis = 0; axis < Dim; ++axis) {
      for (int by_hi = 0; by_hi < 2; ++by_hi) {
        SortEntries(entries, axis, by_hi != 0);
        double margin_sum = 0.0;
        ForEachDistribution(*entries, m, [&](size_t k, const Rect<Dim>& a,
                                             const Rect<Dim>& b) {
          (void)k;
          margin_sum += a.Margin() + b.Margin();
        });
        if (best_axis < 0 || margin_sum < best_margin_sum) {
          best_axis = axis;
          best_axis_by_hi = (by_hi != 0);
          best_margin_sum = margin_sum;
        }
      }
    }

    SortEntries(entries, best_axis, best_axis_by_hi);
    size_t best_k = m;
    double best_overlap = 0.0;
    double best_area = 0.0;
    bool first = true;
    ForEachDistribution(
        *entries, m, [&](size_t k, const Rect<Dim>& a, const Rect<Dim>& b) {
          const double overlap = a.OverlapArea(b);
          const double area = a.Area() + b.Area();
          if (first || overlap < best_overlap ||
              (overlap == best_overlap && area < best_area)) {
            first = false;
            best_k = k;
            best_overlap = overlap;
            best_area = area;
          }
        });
    return best_k;
  }

  static void SortEntries(std::vector<std::pair<Rect<Dim>, uint64_t>>* entries,
                          int axis, bool by_hi) {
    std::stable_sort(entries->begin(), entries->end(),
                     [axis, by_hi](const auto& a, const auto& b) {
                       if (by_hi) {
                         if (a.first.hi[axis] != b.first.hi[axis]) {
                           return a.first.hi[axis] < b.first.hi[axis];
                         }
                         return a.first.lo[axis] < b.first.lo[axis];
                       }
                       if (a.first.lo[axis] != b.first.lo[axis]) {
                         return a.first.lo[axis] < b.first.lo[axis];
                       }
                       return a.first.hi[axis] < b.first.hi[axis];
                     });
  }

  // Calls fn(k, mbr_first_k, mbr_rest) for every legal split point k.
  template <typename Fn>
  static void ForEachDistribution(
      const std::vector<std::pair<Rect<Dim>, uint64_t>>& entries, size_t m,
      Fn&& fn) {
    const size_t total = entries.size();
    // Prefix and suffix MBRs.
    std::vector<Rect<Dim>> prefix(total);
    std::vector<Rect<Dim>> suffix(total);
    Rect<Dim> acc = Rect<Dim>::Empty();
    for (size_t i = 0; i < total; ++i) {
      acc.ExpandToInclude(entries[i].first);
      prefix[i] = acc;
    }
    acc = Rect<Dim>::Empty();
    for (size_t i = total; i-- > 0;) {
      acc.ExpandToInclude(entries[i].first);
      suffix[i] = acc;
    }
    for (size_t k = m; k + m <= total; ++k) {
      fn(k, prefix[k - 1], suffix[k]);
    }
  }

  // Guttman's quadratic split. Reorders `entries` so the first group is a
  // prefix; returns the group boundary.
  size_t QuadraticSplit(std::vector<std::pair<Rect<Dim>, uint64_t>>* entries) {
    const size_t total = entries->size();
    const size_t m = min_entries_;
    // PickSeeds: the pair wasting the most area.
    size_t seed_a = 0;
    size_t seed_b = 1;
    double worst = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < total; ++i) {
      for (size_t j = i + 1; j < total; ++j) {
        Rect<Dim> combined = (*entries)[i].first;
        combined.ExpandToInclude((*entries)[j].first);
        const double waste = combined.Area() - (*entries)[i].first.Area() -
                             (*entries)[j].first.Area();
        if (waste > worst) {
          worst = waste;
          seed_a = i;
          seed_b = j;
        }
      }
    }
    std::vector<size_t> group_a = {seed_a};
    std::vector<size_t> group_b = {seed_b};
    Rect<Dim> mbr_a = (*entries)[seed_a].first;
    Rect<Dim> mbr_b = (*entries)[seed_b].first;
    std::vector<bool> assigned(total, false);
    assigned[seed_a] = assigned[seed_b] = true;
    size_t remaining = total - 2;
    while (remaining > 0) {
      // If one group must absorb the rest to reach the minimum, do so.
      if (group_a.size() + remaining == m || group_b.size() + remaining == m) {
        auto& group = (group_a.size() + remaining == m) ? group_a : group_b;
        auto& mbr = (group_a.size() + remaining == m) ? mbr_a : mbr_b;
        for (size_t i = 0; i < total; ++i) {
          if (!assigned[i]) {
            group.push_back(i);
            mbr.ExpandToInclude((*entries)[i].first);
            assigned[i] = true;
          }
        }
        remaining = 0;
        break;
      }
      // PickNext: maximal preference difference.
      size_t next = 0;
      double best_diff = -1.0;
      double d_a_next = 0.0;
      double d_b_next = 0.0;
      for (size_t i = 0; i < total; ++i) {
        if (assigned[i]) continue;
        const double da = mbr_a.AreaEnlargement((*entries)[i].first);
        const double db = mbr_b.AreaEnlargement((*entries)[i].first);
        const double diff = std::abs(da - db);
        if (diff > best_diff) {
          best_diff = diff;
          next = i;
          d_a_next = da;
          d_b_next = db;
        }
      }
      const bool to_a =
          d_a_next < d_b_next ||
          (d_a_next == d_b_next &&
           (mbr_a.Area() < mbr_b.Area() ||
            (mbr_a.Area() == mbr_b.Area() && group_a.size() <= group_b.size())));
      if (to_a) {
        group_a.push_back(next);
        mbr_a.ExpandToInclude((*entries)[next].first);
      } else {
        group_b.push_back(next);
        mbr_b.ExpandToInclude((*entries)[next].first);
      }
      assigned[next] = true;
      --remaining;
    }
    // Materialize the grouping as a reorder of `entries`.
    std::vector<std::pair<Rect<Dim>, uint64_t>> reordered;
    reordered.reserve(total);
    for (size_t i : group_a) reordered.push_back((*entries)[i]);
    for (size_t i : group_b) reordered.push_back((*entries)[i]);
    *entries = std::move(reordered);
    return group_a.size();
  }

  // -- deletion --

  bool FindLeaf(storage::PageId page, int level, const Rect<Dim>& rect,
                ObjectId id, std::vector<PathStep>* path,
                storage::PageId* leaf, uint32_t* leaf_index) const {
    PinnedNode node = Pin(page);
    if (level == 0) {
      for (uint32_t i = 0; i < node.count(); ++i) {
        // Quantized leaves store the outward-rounded rect, so an exact match
        // against the caller's original rect is impossible; id plus
        // containment identifies the entry instead.
        if (node.ref(i) == id &&
            (codec_.quantized() ? node.rect(i).Contains(rect)
                                : node.rect(i) == rect)) {
          *leaf = page;
          *leaf_index = i;
          return true;
        }
      }
      return false;
    }
    for (uint32_t i = 0; i < node.count(); ++i) {
      if (!node.rect(i).Contains(rect)) continue;
      path->push_back({page, i});
      if (FindLeaf(static_cast<storage::PageId>(node.ref(i)), level - 1, rect,
                   id, path, leaf, leaf_index)) {
        return true;
      }
      path->pop_back();
    }
    return false;
  }

  void CondenseTree(std::vector<PathStep> path, storage::PageId node) {
    // Orphan entries to re-insert, tagged with the level of the node they
    // came from (an entry from a level-L node must re-enter at level L).
    std::vector<std::tuple<int, Rect<Dim>, uint64_t>> orphans;
    while (!path.empty()) {
      const PathStep step = path.back();
      path.pop_back();
      PinnedNode pinned = Pin(node);
      const uint32_t count = pinned.count();
      const int level = pinned.level();
      if (count < min_entries_) {
        for (uint32_t i = 0; i < count; ++i) {
          orphans.emplace_back(level, pinned.rect(i), pinned.ref(i));
        }
        // The page is abandoned (no free list; acceptable for this library's
        // build-once workloads).
        ReleaseNode(level);
        // `pinned` must release before mutating the parent.
        {
          PinnedNode discard = std::move(pinned);
          (void)discard;
        }
        RemoveEntry(step.page, step.child_index);
        // RemoveEntry swaps the last entry into the hole, which can only
        // affect indices >= child_index; the remaining path steps reference
        // their own parents, so nothing else needs fixing.
      } else {
        const Rect<Dim> mbr = MbrOfNode(pinned);
        {
          PinnedNode discard = std::move(pinned);
          (void)discard;
        }
        char* parent = pool_->Pin(step.page);
        codec_.SetEntryRect(parent, step.child_index, mbr);
        pool_->Unpin(step.page, /*dirty=*/true);
      }
      node = step.page;
    }
    // Shrink the root.
    for (;;) {
      PinnedNode pinned = Pin(root_);
      const uint32_t count = pinned.count();
      const int level = pinned.level();
      if (level > 0 && count == 1) {
        const storage::PageId only =
            static_cast<storage::PageId>(pinned.ref(0));
        ReleaseNode(level);
        root_ = only;
        root_level_ = level - 1;
        continue;
      }
      if (level == 0 && count == 0) {
        ReleaseNode(0);
        root_ = storage::kInvalidPageId;
        root_level_ = 0;
      }
      break;
    }
    // Re-insert orphans (deepest levels first so heights line up).
    std::stable_sort(orphans.begin(), orphans.end(),
                     [](const auto& a, const auto& b) {
                       return std::get<0>(a) > std::get<0>(b);
                     });
    for (const auto& [level, rect, ref] : orphans) {
      std::vector<bool> reinserted;
      // An orphan subtree can be taller than a shrunken tree; rebuild the
      // root chain if needed by growing the tree with the subtree's objects.
      if (empty() || level > root_level_) {
        ReinsertSubtree(level, rect, ref);
      } else {
        InsertAtLevel(level, rect, ref, &reinserted);
      }
    }
  }

  // Re-inserts every object under an orphaned subtree one by one (used only
  // when the subtree no longer fits the shrunken tree's height).
  void ReinsertSubtree(int level, const Rect<Dim>& rect, uint64_t ref) {
    if (level == 0) {
      std::vector<bool> reinserted;
      InsertAtLevel(0, rect, ref, &reinserted);
      return;
    }
    // `ref` points to a node at level-1 whose entries came "from level-1";
    // unpack it and recurse until objects (level 0 entries) remain.
    std::vector<std::pair<Rect<Dim>, uint64_t>> children;
    {
      PinnedNode node = Pin(static_cast<storage::PageId>(ref));
      for (uint32_t i = 0; i < node.count(); ++i) {
        children.push_back({node.rect(i), node.ref(i)});
      }
    }
    ReleaseNode(level - 1);
    for (const auto& [child_rect, child_ref] : children) {
      ReinsertSubtree(level - 1, child_rect, child_ref);
    }
  }

  // -- bulk load --

  // Packs `items` (entries for nodes at `level`) into nodes of `cap` entries
  // using sort-tile-recursive grouping; emits (node MBR, node page) parents.
  void PackLevel(std::vector<std::pair<Rect<Dim>, uint64_t>>* items,
                 uint32_t cap, int level,
                 std::vector<std::pair<Rect<Dim>, uint64_t>>* parents) {
    std::vector<std::pair<size_t, size_t>> groups;
    StrGroup(items, 0, items->size(), cap, 0, &groups);
    for (const auto& [begin, end] : groups) {
      const storage::PageId page = AllocateNode(level);
      WriteEntries(page, *items, begin, end);
      Rect<Dim> mbr = Rect<Dim>::Empty();
      if (codec_.quantized()) {
        // Parent MBRs must cover the quantized (outward-rounded) entries a
        // reader will decode, not the pre-quantization inputs.
        mbr = ComputeNodeMbr(page);
      } else {
        for (size_t i = begin; i < end; ++i) {
          mbr.ExpandToInclude((*items)[i].first);
        }
      }
      parents->push_back({mbr, page});
    }
  }

  // Recursively tiles items[begin, end) along dimension `dim`, emitting
  // groups of at most `cap` items. Group sizes are balanced (never a tiny
  // remainder), so every packed node meets the minimum-fill invariant as long
  // as min_entries <= cap/2.
  void StrGroup(std::vector<std::pair<Rect<Dim>, uint64_t>>* items,
                size_t begin, size_t end, uint32_t cap, int dim,
                std::vector<std::pair<size_t, size_t>>* groups) {
    const size_t n = end - begin;
    if (n == 0) return;
    if (n <= cap) {
      groups->push_back({begin, end});
      return;
    }
    std::sort(items->begin() + static_cast<long>(begin),
              items->begin() + static_cast<long>(end),
              [dim](const auto& a, const auto& b) {
                return a.first.Center()[dim] < b.first.Center()[dim];
              });
    if (dim == Dim - 1) {
      EmitBalancedChunks(begin, end, cap, groups);
      return;
    }
    const size_t total_nodes = (n + cap - 1) / cap;
    const size_t slabs = static_cast<size_t>(std::ceil(
        std::pow(static_cast<double>(total_nodes), 1.0 / (Dim - dim))));
    // Split [begin, end) into `slabs` nearly equal parts.
    const size_t base = n / slabs;
    const size_t extra = n % slabs;
    size_t start = begin;
    for (size_t s = 0; s < slabs; ++s) {
      const size_t len = base + (s < extra ? 1 : 0);
      StrGroup(items, start, start + len, cap, dim + 1, groups);
      start += len;
    }
  }

  // Splits [begin, end) into ceil(n/cap) nearly equal consecutive chunks.
  static void EmitBalancedChunks(size_t begin, size_t end, uint32_t cap,
                                 std::vector<std::pair<size_t, size_t>>* groups) {
    const size_t n = end - begin;
    const size_t chunks = (n + cap - 1) / cap;
    const size_t base = n / chunks;
    const size_t extra = n % chunks;
    size_t start = begin;
    for (size_t c = 0; c < chunks; ++c) {
      const size_t len = base + (c < extra ? 1 : 0);
      groups->push_back({start, start + len});
      start += len;
    }
  }

  // -- queries --

  void RangeQueryNode(storage::PageId page, const Rect<Dim>& query,
                      std::vector<Entry>* out) const {
    PinnedNode node = Pin(page);
    if (node.is_leaf()) {
      for (uint32_t i = 0; i < node.count(); ++i) {
        if (query.Intersects(node.rect(i))) {
          out->push_back({node.rect(i), node.ref(i)});
        }
      }
      return;
    }
    for (uint32_t i = 0; i < node.count(); ++i) {
      if (query.Intersects(node.rect(i))) {
        RangeQueryNode(static_cast<storage::PageId>(node.ref(i)), query, out);
      }
    }
  }

  template <typename Fn>
  void ForEachObjectNode(storage::PageId page, Fn& fn) const {
    PinnedNode node = Pin(page);
    if (node.is_leaf()) {
      for (uint32_t i = 0; i < node.count(); ++i) {
        fn(node.rect(i), node.ref(i));
      }
      return;
    }
    for (uint32_t i = 0; i < node.count(); ++i) {
      ForEachObjectNode(static_cast<storage::PageId>(node.ref(i)), fn);
    }
  }

  // -- validation --

  static bool Fail(std::string* error, const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  }

  bool ValidateNode(storage::PageId page, int expected_level, bool is_root,
                    const Rect<Dim>* parent_rect, size_t* objects,
                    std::string* error) const {
    PinnedNode node = Pin(page);
    if (node.level() != expected_level) {
      return Fail(error, "level mismatch at page " + std::to_string(page));
    }
    const uint32_t count = node.count();
    if (!is_root && count < min_entries_) {
      return Fail(error, "underfull node at page " + std::to_string(page));
    }
    if (count > max_entries_) {
      return Fail(error, "overfull node at page " + std::to_string(page));
    }
    if (is_root && expected_level > 0 && count < 2) {
      return Fail(error, "interior root with < 2 entries");
    }
    const Rect<Dim> mbr = MbrOfNode(node);
    if (parent_rect != nullptr) {
      // A quantized parent entry is itself outward-rounded, so it can only
      // be required to CONTAIN the child's decoded MBR; raw trees keep the
      // exact-tightness invariant.
      if (codec_.quantized() ? !parent_rect->Contains(mbr)
                             : !(mbr == *parent_rect)) {
        return Fail(error,
                    "parent MBR not tight at page " + std::to_string(page));
      }
    }
    if (node.is_leaf()) {
      *objects += count;
      return true;
    }
    for (uint32_t i = 0; i < count; ++i) {
      const Rect<Dim> child_rect = node.rect(i);
      if (!ValidateNode(static_cast<storage::PageId>(node.ref(i)),
                        expected_level - 1, /*is_root=*/false, &child_rect,
                        objects, error)) {
        return false;
      }
    }
    return true;
  }

  RTreeOptions options_;
  rtree_internal::NodeCodec<Dim> codec_;
  mutable std::unique_ptr<storage::BufferPool> pool_;
  storage::FaultInjectingPageFile* injector_ = nullptr;
  storage::CrashPointPageFile* crash_ = nullptr;
  uint32_t max_entries_ = 0;
  uint32_t min_entries_ = 0;
  storage::PageId root_ = storage::kInvalidPageId;
  int root_level_ = 0;
  size_t size_ = 0;
  size_t num_nodes_ = 0;
  size_t num_leaves_ = 0;
  ObjectId max_object_id_ = 0;
  std::vector<size_t> nodes_per_level_;  // [level] -> live node count
};

}  // namespace sdj

#endif  // SDJOIN_RTREE_RTREE_H_
