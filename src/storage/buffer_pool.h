// LRU buffer pool over a PageFile, safe for concurrent readers.
//
// Reproduces the paper's experimental setup of a fixed buffer over fixed-size
// R-tree nodes (Section 3.1: 1K nodes, 256K of buffer memory). The pool's
// miss counter is the "Node I/O" performance measure of Table 1.
//
// The pool is also the retry layer of the failure model (DESIGN.md §9):
// transient and checksum-corrupt page reads are re-issued with bounded
// backoff, and only an unrecoverable fault surfaces to the caller — through
// TryPin/TryNewPage, which report status instead of aborting.
//
// Concurrency (DESIGN.md §10): the page table is sharded, each shard with
// its own mutex, so TryPin calls for different pages proceed in parallel;
// buffer hits touch only their shard (plus a brief LRU-list update). Frames
// being filled or written back are marked busy and waited on through the
// shard's condition variable, so a page is never loaded twice concurrently.
// Replacement stays a single global LRU (one mutex around the list + free
// stack) so the eviction sequence — and therefore the Node I/O counters of
// every single-threaded experiment — is exactly the serial pool's. Physical
// PageFile operations are serialized behind one mutex: the backends'
// decorator stack (checksums, fault injection) is stateful, and keeping
// reads in issue order keeps seeded fault schedules deterministic. I/O
// counters are atomics, so IoStats stays accurate under concurrency.
// Concurrent callers must not mutate page contents without external
// coordination (the join engines are pure readers).
#ifndef SDJOIN_STORAGE_BUFFER_POOL_H_
#define SDJOIN_STORAGE_BUFFER_POOL_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/page_file.h"

namespace sdj::storage {

// Bounded-retry policy for transient (and corrupt, since a re-read can heal a
// fault that happened in transfer) page-file operations.
struct RetryPolicy {
  // Total attempts per operation, including the first (>= 1).
  uint32_t max_attempts = 4;
  // Sleep before retry k (1-based) is backoff_us << (k - 1) microseconds;
  // 0 disables sleeping (retries are still attempted).
  uint32_t backoff_us = 50;
};

// Fixed-capacity page cache with LRU replacement and pin counting.
//
// Usage:
//   BufferPool pool(std::move(file), /*capacity_pages=*/128);
//   char* data = pool.Pin(id);        // fetch and pin
//   ... read/modify *data ...
//   pool.Unpin(id, /*dirty=*/true);   // release; written back on eviction
//
// Pinned pages are never evicted; pinning more pages than the capacity is a
// programming error and aborts. I/O faults are not: TryPin and TryNewPage
// return null with a status after retries run out, and the aborting Pin /
// NewPage wrappers exist only for callers that have no recovery path.
class BufferPool {
 public:
  // Takes ownership of `file`. `capacity_pages` > 0.
  BufferPool(std::unique_ptr<PageFile> file, uint32_t capacity_pages,
             const RetryPolicy& retry = RetryPolicy{});
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  uint32_t page_size() const { return page_size_; }
  uint32_t capacity() const { return capacity_; }
  PageId num_pages() const;
  const RetryPolicy& retry_policy() const { return retry_; }

  // Allocates a fresh zeroed page, pins it, and returns its buffer; null if
  // the store could not be extended or no frame could be freed (status, when
  // non-null, receives the failing IoStatus).
  char* TryNewPage(PageId* id, IoStatus* status = nullptr);

  // Pins page `id` and returns its buffer, or null if the page could not be
  // read (after retries) or no frame could be freed. On success the page
  // stays resident until the matching Unpin (pins nest). Safe to call
  // concurrently with other TryPin/Unpin calls.
  char* TryPin(PageId id, IoStatus* status = nullptr);

  // Aborting wrappers over TryNewPage/TryPin for callers with no recovery
  // path (tree construction, tests).
  char* NewPage(PageId* id);
  char* Pin(PageId id);

  // Releases one pin of `id`. If `dirty`, the page is written back before
  // eviction (or at FlushAll).
  void Unpin(PageId id, bool dirty);

  // Writes all dirty resident pages back to the file and syncs it. Returns
  // false if any page could not be written (it stays dirty) or the sync
  // failed. Not safe against concurrent writers of pinned pages.
  bool FlushAll();

  // Drops every unpinned page (writing dirty ones back). Pages whose
  // write-back fails stay resident and dirty. Makes cold-cache experiments
  // reproducible.
  void Invalidate();

  // Snapshot of the I/O counters. (By value: counters are atomics that
  // concurrent pins keep moving.)
  IoStats stats() const;
  void ResetStats();

  // Attaches (or detaches, with null) an observability sink (DESIGN.md
  // §12): physical read/write latency — whole-operation, retries included —
  // and FlushAll sync latency are recorded into it. The pointer is atomic
  // so attach/detach between runs is safe, but the Metrics object must
  // outlive any concurrent pin once attached.
  void SetMetrics(obs::Metrics* metrics) {
    metrics_.store(metrics, std::memory_order_release);
  }
  obs::Metrics* metrics() const {
    return metrics_.load(std::memory_order_acquire);
  }

 private:
  static constexpr uint32_t kNoFrame = ~0u;
  static constexpr size_t kNumShards = 16;  // power of two

  struct Frame {
    std::unique_ptr<char[]> data;
    // Stable while the frame is published in a shard table; changed only by
    // the exclusive owner of a frame, through StorePageId (a stale LRU pop
    // may read it concurrently, see LoadPageId).
    PageId page_id = kInvalidPageId;
    // Guarded by the owning shard's mutex.
    uint32_t pin_count = 0;
    bool dirty = false;
    // True while an evictor writes the frame back; pinners wait on the
    // shard cv. Guarded by the owning shard's mutex.
    bool busy = false;
    // Guarded by lru_mu_.
    std::list<uint32_t>::iterator lru_pos;
    bool in_lru = false;
  };

  // One page-table shard. A table value of kNoFrame marks a load in
  // progress (no frame published yet); waiters block on cv.
  struct Shard {
    std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<PageId, uint32_t> table;
  };

  // Same fields as IoStats, as relaxed atomics.
  struct AtomicIoStats {
    std::atomic<uint64_t> logical_reads{0};
    std::atomic<uint64_t> buffer_hits{0};
    std::atomic<uint64_t> buffer_misses{0};
    std::atomic<uint64_t> physical_reads{0};
    std::atomic<uint64_t> physical_writes{0};
    std::atomic<uint64_t> read_retries{0};
    std::atomic<uint64_t> write_retries{0};
    std::atomic<uint64_t> checksum_failures{0};
    std::atomic<uint64_t> read_failures{0};
    std::atomic<uint64_t> write_failures{0};
  };

  Shard& ShardOf(PageId id) { return shards_[id & (kNumShards - 1)]; }

  // Read/write one page with bounded retries per retry_; update counters.
  // The physical operation itself runs under file_mu_.
  IoStatus ReadWithRetry(PageId id, char* buffer);
  IoStatus WriteWithRetry(PageId id, const char* buffer);

  // Returns an unpublished frame to load into, evicting the LRU unpinned
  // page if needed; kNoFrame (with *status set) if every eviction candidate
  // failed to write back. Aborts if every frame is pinned — that is a
  // capacity bug, not I/O. Must be called without any shard lock held.
  uint32_t GrabFrame(IoStatus* status);

  enum class EvictResult {
    kEvicted,      // frame unpublished; it belongs to the caller now
    kSkipped,      // a racing pinner took the frame; it is theirs
    kWriteFailed,  // dirty write-back failed; re-queued dirty at LRU tail
  };

  // Evicts `victim`, which the caller popped from the LRU list while it held
  // `expected_page` (the page id must be read under lru_mu_ at pop time).
  // The pop is a claim, not ownership: EvictVictim re-verifies under the
  // shard lock that the frame still holds `expected_page` unpinned and
  // returns kSkipped if a racing pinner — or a full revive/re-evict cycle
  // that gave the frame a new owner — got there first. On kEvicted the frame
  // is unpublished and handed back (to_free_list pushes it onto the free
  // stack instead).
  EvictResult EvictVictim(uint32_t victim, PageId expected_page,
                          bool to_free_list);

  std::unique_ptr<PageFile> file_;
  const uint32_t capacity_;
  const uint32_t page_size_;
  const RetryPolicy retry_;
  std::vector<Frame> frames_;

  mutable std::mutex file_mu_;  // serializes every PageFile operation
  std::mutex lru_mu_;           // guards lru_, free_frames_, in_lru/lru_pos
  std::vector<uint32_t> free_frames_;
  std::list<uint32_t> lru_;  // front = least recently used
  // Frames between GrabFrame and publish/free; lets GrabFrame distinguish
  // "all pinned" (abort) from "all in flight" (wait).
  std::atomic<uint32_t> in_flight_frames_{0};

  std::array<Shard, kNumShards> shards_;
  mutable AtomicIoStats stats_;
  std::atomic<obs::Metrics*> metrics_{nullptr};
};

}  // namespace sdj::storage

#endif  // SDJOIN_STORAGE_BUFFER_POOL_H_
