// Pairing heap: the in-memory priority-queue structure used by the paper
// (Section 3.2, citing Fredman et al. [13]).
//
// A min-heap over values of type T ordered by `Compare`. Supports O(1)
// insertion and melding, amortized O(log n) deletion, and handle-based
// erase/decrease-key — the estimator's `Q_M` (Section 2.2.4) needs to delete
// arbitrary elements located through a hash table, which std::priority_queue
// cannot do.
//
// Besides one-at-a-time Push, a batch can be built by several threads at
// once, straight into heap nodes (BeginShards / Shard / AdoptShards): each
// shard carves nodes from its own arena and links them into a shard-local
// heap, and the caller joins the batch with one O(1) meld per shard.
#ifndef SDJOIN_UTIL_PAIRING_HEAP_H_
#define SDJOIN_UTIL_PAIRING_HEAP_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace sdj {

// Min-heap; the element for which Compare orders before all others is at the
// top. Not copyable (owns its nodes); movable.
template <typename T, typename Compare = std::less<T>>
class PairingHeap {
 public:
  struct Node {
    Node() = default;
    explicit Node(T v) : value(std::move(v)) {}
    T value;
    Node* child = nullptr;    // leftmost child
    Node* sibling = nullptr;  // next sibling to the right
    Node* prev = nullptr;     // parent if leftmost child, else left sibling
  };
  // Opaque element handle, valid until the element is popped/erased or the
  // heap is cleared/destroyed.
  using Handle = Node*;

  PairingHeap() = default;
  explicit PairingHeap(Compare cmp) : cmp_(std::move(cmp)) {}
  ~PairingHeap() { DestroyValues(); }

  PairingHeap(const PairingHeap&) = delete;
  PairingHeap& operator=(const PairingHeap&) = delete;
  PairingHeap(PairingHeap&& other) noexcept
      : cmp_(std::move(other.cmp_)),
        arena_(std::move(other.arena_)),
        runs_(std::move(other.runs_)),
        free_nodes_(std::move(other.free_nodes_)),
        root_(std::exchange(other.root_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  PairingHeap& operator=(PairingHeap&& other) noexcept {
    if (this != &other) {
      Clear();
      cmp_ = std::move(other.cmp_);
      arena_ = std::move(other.arena_);
      runs_ = std::move(other.runs_);
      free_nodes_ = std::move(other.free_nodes_);
      root_ = std::exchange(other.root_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  bool Empty() const { return root_ == nullptr; }
  size_t Size() const { return size_; }

  // Inserts `value`; returns a handle usable with Erase/DecreaseKey.
  Handle Push(T value) {
    Node* node = new (TakeNode(&arena_)) Node(std::move(value));
    root_ = Meld(root_, node);
    ++size_;
    return node;
  }

  // Smallest element. Heap must be non-empty.
  const T& Top() const {
    SDJ_DCHECK(root_ != nullptr);
    return root_->value;
  }

  // Removes and returns the smallest element. Heap must be non-empty.
  T Pop() {
    SDJ_DCHECK(root_ != nullptr);
    Node* old_root = root_;
    root_ = CombineSiblings(old_root->child);
    if (root_ != nullptr) root_->prev = nullptr;
    T value = std::move(old_root->value);
    FreeNode(old_root);
    --size_;
    return value;
  }

  // Removes the element behind `handle` (which must be live in this heap).
  T Erase(Handle handle) {
    SDJ_DCHECK(handle != nullptr);
    if (handle == root_) return Pop();
    Detach(handle);
    Node* merged = CombineSiblings(handle->child);
    if (merged != nullptr) {
      merged->prev = nullptr;
      root_ = Meld(root_, merged);
    }
    T value = std::move(handle->value);
    FreeNode(handle);
    --size_;
    return value;
  }

  // Replaces the element behind `handle` with `value`, which must not order
  // after the current value (i.e., this is a decrease-key for min-heaps).
  void DecreaseKey(Handle handle, T value) {
    SDJ_DCHECK(handle != nullptr);
    SDJ_DCHECK(!cmp_(handle->value, value));
    handle->value = std::move(value);
    if (handle == root_) return;
    Detach(handle);
    handle->sibling = nullptr;
    root_ = Meld(root_, handle);
  }

  // Removes all elements and returns every node block to the allocator.
  // For trivially destructible T no node is visited.
  void Clear() {
    DestroyValues();
    root_ = nullptr;
    size_ = 0;
    // Move-assigning empty containers frees their storage (clear() would
    // keep the capacity).
    arena_ = Arena();
    runs_ = std::vector<ShardRun>();
    free_nodes_ = std::vector<Node*>();
  }

  // Visits every element in unspecified order (iterative, so degenerate
  // shapes cannot overflow the stack). The heap must not be mutated while
  // iterating. Used by snapshot serialization (DESIGN.md §11).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::vector<const Node*> stack;
    if (root_ != nullptr) stack.push_back(root_);
    while (!stack.empty()) {
      const Node* n = stack.back();
      stack.pop_back();
      fn(n->value);
      if (n->child != nullptr) stack.push_back(n->child);
      if (n->sibling != nullptr) stack.push_back(n->sibling);
    }
  }

  // ---- parallel in-place build (DESIGN.md §10) ----
  //
  // A batch of B new elements, cut into S consecutive runs (run s holds
  // elements [first_s, first_s + count_s), first_s = count_0 + ... +
  // count_{s-1}), is built like this:
  //
  //   caller:  BeginShards(S)
  //   shard s: Shard(s, first_s, count_s).Add(fill), count_s times,
  //            concurrently with the other shards
  //   caller:  AdoptShards()
  //
  // Shard s writes only its own arena, its own run and the nodes it builds.
  // It first reuses the freed nodes that serial Pushes of batch elements
  // first_s.. would have reused, then carves fresh ones. Nothing else may
  // touch the heap between BeginShards and AdoptShards. The resulting heap
  // holds exactly the elements B Pushes would have inserted; only its shape
  // differs, and with a total order Compare no pop sequence can tell.

 private:
  struct Arena {
    std::vector<std::unique_ptr<std::byte[]>> blocks;
    size_t next = 0;  // next unused node of blocks.back()
  };

  // One shard's batch state, cache-line aligned because shards update their
  // runs concurrently.
  struct alignas(64) ShardRun {
    Arena arena;            // unused by shard 0 (see Shard)
    Node* trees[64] = {};   // binary-counter forest while building
    Node* root = nullptr;   // the finished run
    size_t size = 0;   // elements built in the current batch
    size_t count = 0;  // elements the shard promised to build
  };

 public:
  // One shard's writer. Cheap to copy; valid until AdoptShards. A
  // default-constructed builder is a placeholder that must not Add.
  class ShardBuilder {
   public:
    ShardBuilder() = default;

    // Builds one element in place — fill(T&) writes it into a
    // default-constructed value — and links it into the shard's run.
    template <typename Fill>
    Handle Add(const Fill& fill) {
      SDJ_DCHECK(run_->size < run_->count);
      Node* slot;
      if (reuse_left_ > 0) {
        --reuse_left_;
        slot = *--reuse_end_;
      } else {
        slot = TakeFresh(arena_);
      }
      Node* node = new (slot) Node;
      fill(node->value);
      // Binary-counter linking, as in a binomial heap: trees[k] holds 2^k
      // nodes. The run comes out balanced, every root with O(log count)
      // children, instead of as one root over a flat list whose two-pass
      // consolidation would fall to some later, cache-cold Pop. Measured on
      // a 4-vCPU x86-64 VM, a flat run (root = Meld(root, node)) raised the
      // Simultaneous join's median per-pair latency by ~30%.
      Node* tree = node;
      size_t rank = 0;
      for (; run_->trees[rank] != nullptr; ++rank) {
        tree = heap_->Meld(run_->trees[rank], tree);
        run_->trees[rank] = nullptr;
      }
      run_->trees[rank] = tree;
      if (++run_->size == run_->count) {
        for (Node*& t : run_->trees) {
          if (t == nullptr) continue;
          run_->root = heap_->Meld(run_->root, t);
          t = nullptr;
        }
      }
      return node;
    }

   private:
    friend class PairingHeap;
    ShardBuilder(const PairingHeap* heap, ShardRun* run, Arena* arena,
                 Node* const* reuse_end, size_t reuse_left)
        : heap_(heap),
          run_(run),
          arena_(arena),
          reuse_end_(reuse_end),
          reuse_left_(reuse_left) {}

    const PairingHeap* heap_ = nullptr;
    ShardRun* run_ = nullptr;
    Arena* arena_ = nullptr;
    Node* const* reuse_end_ = nullptr;  // reuses [reuse_end_ - left, end)
    size_t reuse_left_ = 0;
  };

  // Readies `shards` runs for one batch.
  void BeginShards(size_t shards) {
    SDJ_DCHECK(active_runs_ == 0);
    if (runs_.size() < shards) runs_.resize(shards);
    active_runs_ = shards;
    batch_free_ = free_nodes_.size();
  }

  // Shard `shard`'s writer for batch elements [first, first + count); it
  // must Add exactly `count` elements. Safe to call concurrently for
  // distinct shards.
  ShardBuilder Shard(size_t shard, size_t first, size_t count) {
    SDJ_DCHECK(shard < active_runs_);
    ShardRun& run = runs_[shard];
    run.count = count;
    // Serial Push number j reuses free_nodes_[batch_free_ - 1 - j].
    const size_t reuse =
        first < batch_free_ ? std::min(count, batch_free_ - first) : 0;
    // Shard 0 carves from Push's arena, so a one-shard build allocates
    // exactly as Pushes would.
    return ShardBuilder(
        this, &run, shard == 0 ? &arena_ : &run.arena,
        reuse > 0 ? free_nodes_.data() + (batch_free_ - first) : nullptr,
        reuse);
  }

  // Melds every run into the heap (one O(1) meld per shard) and drops the
  // reused nodes from the free list.
  void AdoptShards() {
    SDJ_DCHECK(free_nodes_.size() == batch_free_);
    size_t built = 0;
    for (size_t s = 0; s < active_runs_; ++s) {
      ShardRun& run = runs_[s];
      SDJ_CHECK(run.size == run.count);
      if (run.root != nullptr) root_ = Meld(root_, run.root);
      built += run.size;
      run.root = nullptr;
      run.size = 0;
      run.count = 0;
    }
    size_ += built;
    free_nodes_.resize(batch_free_ - std::min(built, batch_free_));
    active_runs_ = 0;
  }

 private:
  // The join pushes millions of entries per query; carving nodes out of
  // fixed-size blocks and recycling popped ones through a free list keeps
  // per-push cost at a bump allocation instead of a malloc round trip.
  // Handles stay stable because blocks never move.
  static constexpr size_t kNodesPerBlock = 1024;

  static Node* TakeFresh(Arena* arena) {
    if (arena->blocks.empty() || arena->next == kNodesPerBlock) {
      // Not make_unique: that value-initializes (memsets) the whole block.
      arena->blocks.emplace_back(new std::byte[kNodesPerBlock * sizeof(Node)]);
      arena->next = 0;
    }
    return reinterpret_cast<Node*>(arena->blocks.back().get()) +
           arena->next++;
  }

  // Raw storage for one node: a recycled one if any, else a fresh one.
  Node* TakeNode(Arena* arena) {
    if (free_nodes_.empty()) return TakeFresh(arena);
    Node* node = free_nodes_.back();
    free_nodes_.pop_back();
    return node;
  }

  void FreeNode(Node* node) {
    node->~Node();
    free_nodes_.push_back(node);
  }

  // Links two heap roots; returns the resulting root. Either may be null.
  // Touches only the two nodes (and a's old leftmost child), so shards may
  // meld disjoint subtrees concurrently.
  Node* Meld(Node* a, Node* b) const {
    if (a == nullptr) return b;
    if (b == nullptr) return a;
    if (cmp_(b->value, a->value)) std::swap(a, b);
    // b becomes the leftmost child of a.
    b->prev = a;
    b->sibling = a->child;
    if (a->child != nullptr) a->child->prev = b;
    a->child = b;
    a->sibling = nullptr;
    a->prev = nullptr;
    return a;
  }

  // Unlinks `node` (a non-root) from its parent/sibling list.
  void Detach(Node* node) {
    SDJ_DCHECK(node->prev != nullptr);
    if (node->prev->child == node) {
      node->prev->child = node->sibling;
    } else {
      node->prev->sibling = node->sibling;
    }
    if (node->sibling != nullptr) node->sibling->prev = node->prev;
    node->prev = nullptr;
    node->sibling = nullptr;
  }

  // The classic two-pass pairing: meld siblings left-to-right in pairs, then
  // meld the pair roots right-to-left. The pair roots are chained in reverse
  // through their (free) sibling links, so pops never allocate — not even
  // after a wide expansion leaves thousands of root children.
  Node* CombineSiblings(Node* first) {
    if (first == nullptr) return nullptr;
    Node* pairs = nullptr;  // pair roots, rightmost first
    while (first != nullptr) {
      Node* a = first;
      Node* b = first->sibling;
      first = (b != nullptr) ? b->sibling : nullptr;
      a->sibling = nullptr;
      a->prev = nullptr;
      if (b != nullptr) {
        b->sibling = nullptr;
        b->prev = nullptr;
      }
      Node* pair = Meld(a, b);
      pair->sibling = pairs;
      pairs = pair;
    }
    Node* result = nullptr;
    while (pairs != nullptr) {
      Node* next = pairs->sibling;
      pairs->sibling = nullptr;
      result = Meld(pairs, result);
      pairs = next;
    }
    return result;
  }

  // Runs the destructor of every live value; a no-op for trivially
  // destructible T, whose nodes are released with their blocks.
  void DestroyValues() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      // Iterative to avoid deep recursion on degenerate shapes.
      std::vector<Node*> stack;
      if (root_ != nullptr) stack.push_back(root_);
      while (!stack.empty()) {
        Node* n = stack.back();
        stack.pop_back();
        if (n->child != nullptr) stack.push_back(n->child);
        if (n->sibling != nullptr) stack.push_back(n->sibling);
        n->~Node();
      }
    }
  }

  static_assert(alignof(Node) <= alignof(std::max_align_t),
                "block storage relies on default new alignment");

  Compare cmp_;
  Arena arena_;                   // Push's nodes, and shard 0's
  std::vector<ShardRun> runs_;    // per-shard arenas and batch runs
  std::vector<Node*> free_nodes_;
  size_t active_runs_ = 0;        // runs in the open batch (0 = none)
  size_t batch_free_ = 0;         // free_nodes_.size() at BeginShards
  Node* root_ = nullptr;
  size_t size_ = 0;
};

}  // namespace sdj

#endif  // SDJOIN_UTIL_PAIRING_HEAP_H_
