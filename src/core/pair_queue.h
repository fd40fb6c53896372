// Priority-queue abstraction for the incremental join, with the default
// fully in-memory implementation (a pairing heap, Section 3.2 [13]).
// The hybrid memory/disk implementation lives in core/hybrid_queue.h.
#ifndef SDJOIN_CORE_PAIR_QUEUE_H_
#define SDJOIN_CORE_PAIR_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <type_traits>

#include "core/pair_entry.h"
#include "util/pairing_heap.h"

namespace sdj {

template <int Dim>
using PairHeap = PairingHeap<PairEntry<Dim>, PairEntryCompare<Dim>>;

// One shard's writer in a PairQueue bulk build (see PairQueue::BeginBulk):
// either shard-local pairing-heap nodes (the memory queue) or a slice of a
// staging array the queue pushes from afterwards (the hybrid queue).
template <int Dim>
class PairQueueWriter {
 public:
  explicit PairQueueWriter(typename PairHeap<Dim>::ShardBuilder heap)
      : heap_(heap) {}
  explicit PairQueueWriter(PairEntry<Dim>* staging) : staging_(staging) {}

  // Builds the writer's next entry in place: fill(PairEntry<Dim>&) writes
  // every field.
  template <typename Fill>
  void Add(const Fill& fill) {
    if (staging_ != nullptr) {
      fill(*staging_++);
    } else {
      heap_.Add(fill);
    }
  }

 private:
  typename PairHeap<Dim>::ShardBuilder heap_;
  PairEntry<Dim>* staging_ = nullptr;
};

// Interface over the join's pair priority queue. `Empty`/`Top`/`Pop` are
// non-const because the hybrid implementation migrates pairs between tiers
// lazily when the head is requested.
template <int Dim>
class PairQueue {
 public:
  virtual ~PairQueue() = default;

  virtual void Push(const PairEntry<Dim>& entry) = 0;

  // Bulk insertion built in place by concurrent shards (DESIGN.md §10). A
  // batch of `total` <= max_entries entries is cut into consecutive runs;
  // shard s builds batch entries [first_s, first_s + count_s):
  //
  //   caller:  BeginBulk(shards, max_entries)
  //   shard s: BulkWriter(s, first_s, count_s).Add(fill), count_s times,
  //            concurrently with the other shards
  //   caller:  EndBulk(total)
  //
  // This leaves the queue holding what `total` Push calls in batch order
  // would. Nothing else may touch the queue between BeginBulk and EndBulk.
  virtual void BeginBulk(size_t shards, size_t max_entries) = 0;
  virtual PairQueueWriter<Dim> BulkWriter(size_t shard, size_t first,
                                          size_t count) = 0;
  virtual void EndBulk(size_t total) = 0;
  virtual bool Empty() = 0;
  // Highest-priority entry; queue must be non-empty.
  virtual const PairEntry<Dim>& Top() = 0;
  virtual PairEntry<Dim> Pop() = 0;
  virtual void Clear() = 0;

  // Live entries (across all tiers for hybrid queues).
  virtual size_t Size() const = 0;
  // High-water mark of Size().
  virtual size_t MaxSize() const = 0;
  // High-water mark of entries held in memory (== MaxSize for the memory
  // queue; smaller for the hybrid queue).
  virtual size_t MaxMemorySize() const = 0;

  // True if the queue lost entries to an unrecoverable I/O failure (hybrid
  // disk tier); the join must surface JoinStatus::kIoError. A memory queue
  // never fails.
  virtual bool io_error() const { return false; }
  // Pushes that fell back to the in-memory overflow tier because the disk
  // tier could not accept them (degradation, not an error).
  virtual uint64_t spill_fallbacks() const { return 0; }

  // Snapshot support (DESIGN.md §11). ForEach visits every live entry in
  // unspecified order; returns false if entries could not all be read (an
  // unreadable hybrid disk page), in which case the snapshot must be
  // abandoned. Non-const because the hybrid implementation pins pages.
  virtual bool ForEach(
      const std::function<void(const PairEntry<Dim>&)>& fn) = 0;
  // The hybrid queue's integer bucket frontier, 0 for memory queues.
  virtual uint64_t TierFrontier() const { return 0; }
  // Restores a saved frontier on an EMPTY queue, so that subsequent pushes
  // classify into the same tiers the saved queue used.
  virtual void RestoreTierFrontier(uint64_t frontier) { (void)frontier; }
};

// Fully in-memory pair queue backed by a pairing heap. Bulk builds go
// straight into heap nodes: each shard links its entries into its own
// subheap, and EndBulk melds one root per shard.
template <int Dim>
class MemoryPairQueue final : public PairQueue<Dim> {
  // Clear and destruction free node blocks without visiting nodes.
  static_assert(std::is_trivially_destructible_v<PairEntry<Dim>>);

 public:
  explicit MemoryPairQueue(PairEntryCompare<Dim> cmp) : heap_(cmp) {}

  void Push(const PairEntry<Dim>& entry) override {
    heap_.Push(entry);
    max_size_ = std::max(max_size_, heap_.Size());
  }
  void BeginBulk(size_t shards, size_t) override { heap_.BeginShards(shards); }
  PairQueueWriter<Dim> BulkWriter(size_t shard, size_t first,
                                  size_t count) override {
    return PairQueueWriter<Dim>(heap_.Shard(shard, first, count));
  }
  void EndBulk(size_t) override {
    heap_.AdoptShards();
    // Size only grows within a batch, so one update suffices.
    max_size_ = std::max(max_size_, heap_.Size());
  }
  bool Empty() override { return heap_.Empty(); }
  const PairEntry<Dim>& Top() override { return heap_.Top(); }
  PairEntry<Dim> Pop() override { return heap_.Pop(); }
  void Clear() override { heap_.Clear(); }
  size_t Size() const override { return heap_.Size(); }
  size_t MaxSize() const override { return max_size_; }
  size_t MaxMemorySize() const override { return max_size_; }
  bool ForEach(
      const std::function<void(const PairEntry<Dim>&)>& fn) override {
    heap_.ForEach(fn);
    return true;
  }

 private:
  PairHeap<Dim> heap_;
  size_t max_size_ = 0;
};

}  // namespace sdj

#endif  // SDJOIN_CORE_PAIR_QUEUE_H_
