// Hybrid memory/disk priority queue (Section 3.2).
//
// Pairs are layered by distance into three tiers:
//   * distance <  D1           — in-memory pairing heap (fully ordered)
//   * D1 <= distance < D2      — in-memory unorganized list
//   * distance >= D2           — on "disk": linked lists of pages, one list
//                                per distance bucket [k*D_T, (k+1)*D_T)
// with D1 and D2 advancing by a fixed increment D_T whenever the heap runs
// dry: the list is heapified, the bucket covering the new [D1, D2) window is
// loaded into the list. Keeping the heap small both bounds memory and keeps
// heap operations cheap; pairs that are never requested never touch the heap.
//
// Internally the boundaries are kept as an integer bucket *frontier*
// (D1 = frontier * D_T, D2 = D1 + D_T): every distance maps to its bucket
// through one floor(dist / D_T) computation, so no accumulated floating-
// point boundary can disagree with the bucket indexing.
//
// The paper notes D_T is a fixed constant chosen per workload; Figure 8
// benchmarks its sensitivity. Only forward (nearest-first) ordering is
// supported — the tiering is keyed on ascending distance.
#ifndef SDJOIN_CORE_HYBRID_QUEUE_H_
#define SDJOIN_CORE_HYBRID_QUEUE_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/pair_entry.h"
#include "core/pair_queue.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "storage/page_store.h"
#include "util/check.h"
#include "util/pairing_heap.h"

namespace sdj {

// Construction parameters for HybridPairQueue.
struct HybridQueueOptions {
  // The distance increment D_T. Must be > 0. D1 starts at D_T and D2 at
  // 2*D_T, as in the paper's implementation.
  double tier_width = 1.0;
  // Page size of the disk tier.
  uint32_t page_size = 4096;
  // Buffer pages used while reading/writing the disk tier.
  uint32_t buffer_pages = 16;
  // If non-empty, the disk tier lives in this file; otherwise in memory
  // (still exercising the exact same page traffic and counters).
  std::string spill_path;
  // If set, the disk tier injects faults from this schedule (testing).
  std::optional<storage::FaultInjectionOptions> fault_injection;
  // If set, the disk tier simulates power loss at one exact write/sync op
  // (testing — see storage::CrashPointPageFile). Spills after the crash
  // point degrade to the in-memory overflow tier; the pair stream is
  // unaffected (crash_point_test.cc enumerates this).
  std::optional<storage::CrashPointOptions> crash_point;
  // Bounded-retry policy for the disk tier's buffer pool.
  storage::RetryPolicy retry;
  // Optional observability sink (DESIGN.md §12): records refill stalls,
  // per-entry spill latency, and the disk tier's page I/O. Null = disabled.
  obs::Metrics* metrics = nullptr;
};

// Page accounting of the spill file. Every page ever allocated is in
// exactly one of three states — live in a bucket chain, parked on the
// free list for reuse, or abandoned after an unrecoverable I/O error — so
// allocated == live + free + abandoned always holds (fault-injection tests
// assert it: no page is ever silently leaked).
struct SpillPageStats {
  uint64_t allocated = 0;  // pages ever created in the spill file
  uint64_t live = 0;       // pages currently holding bucket-chain records
  uint64_t free = 0;       // consumed pages awaiting reuse
  uint64_t abandoned = 0;  // unreachable after an I/O error (counted, lost)
  uint64_t reused = 0;     // page acquisitions served from the free list
};

// Three-tier pair queue. See file comment.
template <int Dim>
class HybridPairQueue final : public PairQueue<Dim> {
 public:
  HybridPairQueue(PairEntryCompare<Dim> cmp, const HybridQueueOptions& options)
      : options_(options), heap_(cmp) {
    SDJ_CHECK(options.tier_width > 0.0);
    std::unique_ptr<storage::PageFile> file = storage::CreatePageStore(
        {options.page_size, options.spill_path, options.fault_injection,
         options.crash_point},
        &injector_, &crash_);
    SDJ_CHECK(file != nullptr);
    pool_ = std::make_unique<storage::BufferPool>(
        std::move(file), options.buffer_pages, options.retry);
    pool_->SetMetrics(options.metrics);
    records_per_page_ = (options.page_size - kPageHeader) / kRecordSize;
    SDJ_CHECK(records_per_page_ > 0);
  }

  void Push(const PairEntry<Dim>& entry) override {
    SDJ_CHECK(entry.key == entry.distance);  // reverse mode is unsupported
    // Distances entering the queue are MINDIST values: finite-or-+inf and
    // never negative. (NaN cannot reach here — the key==distance check above
    // already rejects it — but BucketIndex saturates anyway.)
    SDJ_DCHECK(entry.distance >= 0.0 && !std::isnan(entry.distance));
    const uint64_t bucket = BucketIndex(entry.distance, options_.tier_width);
    if (bucket < frontier_) {
      heap_.Push(entry);
    } else if (bucket == frontier_) {
      list_.push_back(entry);
    } else {
      PushToDisk(entry, bucket);
    }
    ++total_size_;
    max_size_ = std::max(max_size_, total_size_);
    max_memory_size_ = std::max(
        max_memory_size_, heap_.Size() + list_.size() + overflow_size_);
  }

  // Bulk builds stage entries in batch order and push them one by one, so
  // tier routing, spill order and fault schedules match serial pushes.
  void BeginBulk(size_t, size_t max_entries) override {
    if (staging_.size() < max_entries) staging_.resize(max_entries);
  }
  PairQueueWriter<Dim> BulkWriter(size_t, size_t first, size_t) override {
    return PairQueueWriter<Dim>(staging_.data() + first);
  }
  void EndBulk(size_t total) override {
    for (size_t i = 0; i < total; ++i) Push(staging_[i]);
  }

  bool Empty() override {
    Refill();
    return heap_.Empty();
  }

  const PairEntry<Dim>& Top() override {
    Refill();
    return heap_.Top();
  }

  PairEntry<Dim> Pop() override {
    Refill();
    --total_size_;
    return heap_.Pop();
  }

  void Clear() override {
    heap_.Clear();
    list_.clear();
    // Consumed chains go back on the free list — the chain page ids are
    // tracked in memory, so no I/O is needed — and a rebuilt queue reuses
    // the spill file's pages instead of growing it.
    for (auto& [index, bucket] : buckets_) {
      free_pages_.insert(free_pages_.end(), bucket.pages.begin(),
                         bucket.pages.end());
    }
    buckets_.clear();
    overflow_.clear();
    overflow_size_ = 0;
    total_size_ = 0;
    frontier_ = 1;
    io_error_ = false;  // a rebuilt queue no longer depends on lost entries
  }

  size_t Size() const override { return total_size_; }
  size_t MaxSize() const override { return max_size_; }
  size_t MaxMemorySize() const override { return max_memory_size_; }
  bool io_error() const override { return io_error_; }
  uint64_t spill_fallbacks() const override { return spill_fallbacks_; }

  // Visits every live entry across all three tiers plus the overflow
  // mirror. Returns false — without visiting further entries — if a disk
  // page cannot be read; the caller must then abandon the snapshot (the
  // queue itself is unharmed: nothing is consumed).
  bool ForEach(
      const std::function<void(const PairEntry<Dim>&)>& fn) override {
    heap_.ForEach(fn);
    for (const PairEntry<Dim>& e : list_) fn(e);
    for (const auto& [index, entries] : overflow_) {
      for (const PairEntry<Dim>& e : entries) fn(e);
    }
    for (const auto& [index, bucket] : buckets_) {
      for (const storage::PageId page : bucket.pages) {
        const char* data = pool_->TryPin(page);
        if (data == nullptr) return false;
        uint32_t count;
        std::memcpy(&count, data + 4, 4);
        for (uint32_t i = 0; i < count; ++i) {
          fn(ReadRecord(data + kPageHeader + i * kRecordSize));
        }
        pool_->Unpin(page, /*dirty=*/false);
      }
    }
    return true;
  }

  uint64_t TierFrontier() const override { return frontier_; }

  // Restores a snapshot's frontier before the saved entries are re-pushed,
  // so each push lands in the tier the saved invariant places it in (heap
  // below, list at, disk above the frontier). Only valid on an empty queue.
  void RestoreTierFrontier(uint64_t frontier) override {
    SDJ_CHECK(total_size_ == 0);
    frontier_ = frontier;
  }

  // Disk-tier traffic (page-file reads/writes behind the small buffer).
  storage::IoStats disk_stats() const { return pool_->stats(); }

  // Spill-file page accounting (see SpillPageStats). `allocated` is the
  // page-file size in pages; with reuse it is bounded by the peak *live*
  // spilled volume, not the lifetime spilled volume.
  SpillPageStats spill_pages() const {
    SpillPageStats s;
    s.allocated = pool_->num_pages();
    for (const auto& [index, bucket] : buckets_) {
      s.live += bucket.pages.size();
    }
    s.free = free_pages_.size();
    s.abandoned = abandoned_pages_.size();
    s.reused = pages_reused_;
    return s;
  }

  // Fault-injection layer of the disk tier, when configured; null otherwise.
  storage::FaultInjectingPageFile* injector() const { return injector_; }
  // Crash-point layer of the disk tier, when configured; null otherwise.
  storage::CrashPointPageFile* crash_point() const { return crash_; }

  // Scrub repair hook (DESIGN.md §16): re-parks abandoned spill pages whose
  // faults have healed — the page pins cleanly again — on the free list for
  // reuse. Pages that remain unreadable stay abandoned (their records are
  // gone; the accounting keeps saying so). The allocated == live + free +
  // abandoned invariant holds before and after. Returns the number
  // recycled.
  uint64_t RecycleAbandonedPages() {
    uint64_t recycled = 0;
    std::vector<storage::PageId> still_abandoned;
    for (const storage::PageId id : abandoned_pages_) {
      char* data = pool_->TryPin(id);
      if (data == nullptr) {
        still_abandoned.push_back(id);
        continue;
      }
      pool_->Unpin(id, /*dirty=*/false);
      free_pages_.push_back(id);
      ++recycled;
    }
    abandoned_pages_ = std::move(still_abandoned);
    return recycled;
  }

  // Maps a distance to its integer bucket. Total for every double (public
  // so the property tests can feed it adversarial inputs directly): a NaN
  // or negative quotient saturates to bucket 0 and an over-range quotient
  // to the top bucket, instead of the undefined float-to-uint64 cast the
  // raw floor(dist / D_T) would hit under UBSan.
  static uint64_t BucketIndex(double distance, double dt) {
    const double idx = std::floor(distance / dt);
    if (!(idx > 0.0)) return 0;  // NaN, negative, or the first bucket
    return idx >= 9.0e15 ? static_cast<uint64_t>(9.0e15)
                         : static_cast<uint64_t>(idx);
  }

 private:
  static constexpr uint32_t kPageHeader = 8;  // next page id + record count
  static constexpr uint32_t kItemSize = 16 * Dim + 16;
  static constexpr uint32_t kRecordSize = 16 + 2 * kItemSize + 16;

  struct Bucket {
    storage::PageId head = storage::kInvalidPageId;
    storage::PageId tail = storage::kInvalidPageId;
    uint32_t tail_count = 0;
    uint64_t total = 0;
    // The chain's page ids in order, mirrored in memory so consumed and
    // cleared chains can be recycled without reading their next links.
    std::vector<storage::PageId> pages;
  };

  // -- record serialization (fixed-size, memcpy-based) --

  static char* PutBytes(char* dst, const void* src, size_t n) {
    std::memcpy(dst, src, n);
    return dst + n;
  }
  static const char* GetBytes(const char* src, void* dst, size_t n) {
    std::memcpy(dst, src, n);
    return src + n;
  }

  static void WriteItem(char* dst, const JoinItem<Dim>& item) {
    dst = PutBytes(dst, item.rect.lo.coords.data(), 8 * Dim);
    dst = PutBytes(dst, item.rect.hi.coords.data(), 8 * Dim);
    dst = PutBytes(dst, &item.ref, 8);
    dst = PutBytes(dst, &item.level, 2);
    const uint8_t kind = static_cast<uint8_t>(item.kind);
    PutBytes(dst, &kind, 1);
  }
  static void ReadItem(const char* src, JoinItem<Dim>* item) {
    src = GetBytes(src, item->rect.lo.coords.data(), 8 * Dim);
    src = GetBytes(src, item->rect.hi.coords.data(), 8 * Dim);
    src = GetBytes(src, &item->ref, 8);
    src = GetBytes(src, &item->level, 2);
    uint8_t kind = 0;
    GetBytes(src, &kind, 1);
    item->kind = static_cast<JoinItemKind>(kind);
  }

  static void WriteRecord(char* dst, const PairEntry<Dim>& e) {
    PutBytes(dst, &e.key, 8);
    PutBytes(dst + 8, &e.distance, 8);
    WriteItem(dst + 16, e.item1);
    WriteItem(dst + 16 + kItemSize, e.item2);
    char* tail = dst + 16 + 2 * kItemSize;
    PutBytes(tail, &e.seq, 8);
    PutBytes(tail + 8, &e.category, 1);
    PutBytes(tail + 9, &e.depth, 2);
  }
  static PairEntry<Dim> ReadRecord(const char* src) {
    PairEntry<Dim> e;
    GetBytes(src, &e.key, 8);
    GetBytes(src + 8, &e.distance, 8);
    ReadItem(src + 16, &e.item1);
    ReadItem(src + 16 + kItemSize, &e.item2);
    const char* tail = src + 16 + 2 * kItemSize;
    GetBytes(tail, &e.seq, 8);
    GetBytes(tail + 8, &e.category, 1);
    GetBytes(tail + 9, &e.depth, 2);
    return e;
  }

  // -- disk tier --

  // A push that cannot reach the disk tier degrades into the in-memory
  // overflow mirror of the same bucket: ordering is preserved exactly (the
  // entry would violate nearest-first if it entered the heap or list early),
  // only the memory bound degrades. Counted, never fatal.
  void SpillFallback(const PairEntry<Dim>& entry, uint64_t bucket_index) {
    ++spill_fallbacks_;
    overflow_[bucket_index].push_back(entry);
    ++overflow_size_;
  }

  // Returns a pinned, reusable-or-fresh spill page. Consumed chain pages on
  // the free list are preferred over extending the file — that reuse is what
  // bounds the spill file by *live* spilled volume. A free page that cannot
  // be pinned is dropped from the list and counted abandoned (it stays
  // allocated but untracked would violate the SpillPageStats invariant).
  char* AcquireSpillPage(storage::PageId* page) {
    while (!free_pages_.empty()) {
      const storage::PageId id = free_pages_.back();
      free_pages_.pop_back();
      char* data = pool_->TryPin(id);
      if (data != nullptr) {
        ++pages_reused_;
        *page = id;
        return data;
      }
      abandoned_pages_.push_back(id);
    }
    *page = storage::kInvalidPageId;
    char* data = pool_->TryNewPage(page);
    if (data == nullptr && *page != storage::kInvalidPageId) {
      // The file grew but no frame could hold the page (the eviction
      // victim's write-back failed). Park the orphan for later reuse so
      // allocated == live + free + abandoned survives even this path.
      free_pages_.push_back(*page);
    }
    return data;
  }

  void PushToDisk(const PairEntry<Dim>& entry, uint64_t bucket_index) {
    obs::PhaseTimer timer(options_.metrics, obs::Op::kSpill);
    Bucket& bucket = buckets_[bucket_index];
    if (bucket.tail == storage::kInvalidPageId ||
        bucket.tail_count == records_per_page_) {
      storage::PageId page;
      char* fresh = AcquireSpillPage(&page);
      if (fresh == nullptr) {
        SpillFallback(entry, bucket_index);
        return;
      }
      // Initialize the header while the page is pinned at creation, so a
      // page that gets linked but never filled is still safe to traverse.
      const storage::PageId no_next = storage::kInvalidPageId;
      std::memcpy(fresh, &no_next, sizeof(no_next));
      const uint32_t no_records = 0;
      std::memcpy(fresh + 4, &no_records, sizeof(no_records));
      pool_->Unpin(page, /*dirty=*/true);
      if (bucket.tail == storage::kInvalidPageId) {
        bucket.head = page;
      } else {
        // Link the old tail to the new page.
        char* old_tail = pool_->TryPin(bucket.tail);
        if (old_tail == nullptr) {
          // The fresh page never joined the chain; it is a valid empty page,
          // so it parks on the free list instead of leaking.
          free_pages_.push_back(page);
          SpillFallback(entry, bucket_index);
          return;
        }
        std::memcpy(old_tail, &page, sizeof(page));
        pool_->Unpin(bucket.tail, /*dirty=*/true);
      }
      bucket.tail = page;
      bucket.tail_count = 0;
      bucket.pages.push_back(page);
    }
    char* data = pool_->TryPin(bucket.tail);
    if (data == nullptr) {
      SpillFallback(entry, bucket_index);
      return;
    }
    WriteRecord(data + kPageHeader + bucket.tail_count * kRecordSize, entry);
    ++bucket.tail_count;
    std::memcpy(data + 4, &bucket.tail_count, 4);
    pool_->Unpin(bucket.tail, /*dirty=*/true);
    ++bucket.total;
  }

  void LoadBucketIntoList(uint64_t index) {
    auto it = buckets_.find(index);
    if (it != buckets_.end()) {
      const Bucket& bucket = it->second;
      uint64_t loaded = 0;
      for (size_t i = 0; i < bucket.pages.size(); ++i) {
        const storage::PageId page = bucket.pages[i];
        const char* data = pool_->TryPin(page);
        if (data == nullptr) {
          // The rest of the chain is unreadable; its entries are lost. The
          // join sees this through io_error() and reports kIoError instead
          // of silently returning an incomplete result. This is the one
          // path that still abandons pages — the unreadable page and its
          // tail — and it is counted, never silent.
          io_error_ = true;
          SDJ_DCHECK(bucket.total >= loaded);
          total_size_ -= bucket.total - loaded;
          abandoned_pages_.insert(abandoned_pages_.end(),
                                  bucket.pages.begin() + i,
                                  bucket.pages.end());
          break;
        }
        uint32_t count;
        std::memcpy(&count, data + 4, 4);
        for (uint32_t r = 0; r < count; ++r) {
          list_.push_back(ReadRecord(data + kPageHeader + r * kRecordSize));
        }
        loaded += count;
        pool_->Unpin(page, /*dirty=*/false);
        // Consumed: every record is now in the list, so the page is free
        // for the next PushToDisk to reuse.
        free_pages_.push_back(page);
      }
      buckets_.erase(it);
    }
    auto overflow_it = overflow_.find(index);
    if (overflow_it != overflow_.end()) {
      for (const PairEntry<Dim>& e : overflow_it->second) list_.push_back(e);
      overflow_size_ -= overflow_it->second.size();
      overflow_.erase(overflow_it);
    }
  }

  // Restores the invariant "the global minimum, if any, is in the heap" by
  // advancing the bucket frontier (the paper's D1 <- D2, D2 <- D2 + D_T).
  // Invariant: heap holds buckets < frontier_, list holds bucket frontier_,
  // disk holds buckets > frontier_.
  void Refill() {
    if (!heap_.Empty()) return;
    if (list_.empty() && buckets_.empty() && overflow_.empty()) return;
    // A refill stall: the heap ran dry and pairs must migrate up the tiers
    // before the next Top()/Pop() can answer.
    obs::PhaseTimer timer(options_.metrics, obs::Op::kRefill);
    while (heap_.Empty()) {
      if (!list_.empty()) {
        for (const PairEntry<Dim>& e : list_) heap_.Push(e);
        list_.clear();
        ++frontier_;
        LoadBucketIntoList(frontier_);
        continue;
      }
      if (buckets_.empty() && overflow_.empty()) return;  // genuinely empty
      // Jump directly to the first non-empty bucket (disk or overflow).
      uint64_t next_bucket = ~0ULL;
      if (!buckets_.empty()) next_bucket = buckets_.begin()->first;
      if (!overflow_.empty()) {
        next_bucket = std::min(next_bucket, overflow_.begin()->first);
      }
      frontier_ = next_bucket;
      LoadBucketIntoList(frontier_);
    }
    max_memory_size_ = std::max(
        max_memory_size_, heap_.Size() + list_.size() + overflow_size_);
  }

  HybridQueueOptions options_;
  PairHeap<Dim> heap_;
  std::vector<PairEntry<Dim>> list_;
  std::vector<PairEntry<Dim>> staging_;  // bulk-build entries, batch order
  std::map<uint64_t, Bucket> buckets_;
  // In-memory mirror of disk buckets for entries the disk tier rejected
  // (same bucket indexing, so distance ordering is preserved exactly).
  std::map<uint64_t, std::vector<PairEntry<Dim>>> overflow_;
  size_t overflow_size_ = 0;
  std::unique_ptr<storage::BufferPool> pool_;
  // Consumed chain pages awaiting reuse by PushToDisk (LIFO).
  std::vector<storage::PageId> free_pages_;
  // Pages lost to unrecoverable I/O errors, by id, so a later
  // RecycleAbandonedPages can re-park the ones whose faults healed.
  std::vector<storage::PageId> abandoned_pages_;
  uint64_t pages_reused_ = 0;
  storage::FaultInjectingPageFile* injector_ = nullptr;
  storage::CrashPointPageFile* crash_ = nullptr;
  uint32_t records_per_page_ = 0;
  // Heap < bucket frontier_ <= list; disk > frontier_. D1 = frontier_ * D_T.
  uint64_t frontier_ = 1;
  size_t total_size_ = 0;
  size_t max_size_ = 0;
  size_t max_memory_size_ = 0;
  uint64_t spill_fallbacks_ = 0;
  bool io_error_ = false;
};

}  // namespace sdj

#endif  // SDJOIN_CORE_HYBRID_QUEUE_H_
