// The shared best-first engine core (DESIGN.md §13).
//
// Every traversal in this repository — the incremental distance join and
// semi-join (Section 2.2/2.3; the within-distance join is the distance join
// restricted to [0, eps]) and incremental nearest- and farthest-neighbor
// search (the paper's reference [18] and Section 2.2.5) — is the same
// algorithm: a priority queue of index
// entries popped in key order, where popping an object(-pair) reports it and
// popping a node(-pair) expands it. This class owns everything those engines
// would otherwise duplicate:
//
//   * queue management: the in-memory pairing heap or the hybrid tiered
//     memory/disk queue (Section 3.2) behind one PairQueue interface;
//   * the serial pop loop with its safe points: StopToken polling,
//     hybrid-queue I/O-error propagation, obs PopSample / expansion
//     PhaseTimers (DESIGN.md §11/§12);
//   * TryPin + JoinStatus::kIoError propagation on every node-read path
//     (DESIGN.md §9) — PinDecode/MarkIoError, never an aborting Pin;
//   * SaveCore/RestoreCore: serialization of the queue (entries + tier
//     frontier), sequence counter, status, and statistics, with pool-counter
//     rebasing across the suspend/resume boundary;
//   * RectBatch decode-and-score scratch, and the sharded classify plus
//     in-place queue build that keeps multi-threaded expansion
//     bit-identical to serial (DESIGN.md §10).
//
// A concrete engine derives from this class (CRTP — `Derived` is the policy;
// no virtual dispatch on the hot path) and supplies only what differs:
//
//   PopAction OnPopped(const Entry&, Result*)  classify a popped entry:
//                                              report / skip / expand
//   bool Expand(const Entry&)                  create+enqueue child entries;
//                                              false => MarkIoError() fired
//   void PrepareNext()                         optional: runs first in Next()
//                                              (NN auto-resume clears
//                                              kSuspended here)
//   bool BeforeIteration()                     optional: pre-loop cap checks;
//                                              false stops with status_ set
//   bool OnQueueDrained()                      optional: true re-enters the
//                                              loop (estimation restart)
//
// The policy also owns its public options, result filling, and — because the
// config fingerprint is engine-specific — the SaveState/RestoreState framing
// around SaveCore/RestoreCore. See DESIGN.md §13 for the author's checklist.
#ifndef SDJOIN_CORE_BEST_FIRST_H_
#define SDJOIN_CORE_BEST_FIRST_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/hybrid_queue.h"
#include "core/join_result.h"
#include "core/join_stats.h"
#include "core/pair_entry.h"
#include "core/pair_queue.h"
#include "core/snapshot.h"
#include "geometry/code_screen.h"
#include "geometry/rect_batch.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "util/check.h"
#include "util/stop_token.h"
#include "util/thread_pool.h"

namespace sdj {

// The cross-cutting knobs every best-first engine shares; each engine copies
// them out of its own options struct at construction.
struct BestFirstConfig {
  TieBreakPolicy tie_break = TieBreakPolicy::kDepthFirst;
  bool use_hybrid_queue = false;
  HybridQueueOptions hybrid;
  int num_threads = 1;
  util::StopToken stop_token;
  obs::Metrics* metrics = nullptr;
};

// The four pool-derived JoinStats counters (node_io, node_accesses,
// io_retries, checksum_failures): the growth of the summed storage::IoStats
// of a fixed set of buffer pools since a baseline. BestFirstEngine and the
// sharded wrapper (core/shard_merge.h) both count this way — a wrapper must
// never sum per-shard deltas over shared pools.
class PoolBaseline {
 public:
  explicit PoolBaseline(std::vector<const storage::BufferPool*> pools)
      : pools_(std::move(pools)), base_(Now()) {}

  // Writes the counters accrued since the baseline into *s.
  void Fill(JoinStats* s) const {
    const storage::IoStats d = Now() - base_;
    s->node_io = d.buffer_misses;
    s->node_accesses = d.logical_reads;
    s->io_retries = d.read_retries + d.write_retries;
    s->checksum_failures = d.checksum_failures;
  }

  // Rebases so Fill continues from `saved`'s counters across a suspend/
  // resume boundary: base = now - saved. Modular uint64 arithmetic keeps
  // the deltas exact even when a new process's pools start cold.
  void Rebase(const JoinStats& saved) {
    base_ = Now();
    base_.buffer_misses -= saved.node_io;
    base_.logical_reads -= saved.node_accesses;
    base_.read_retries -= saved.io_retries;
    base_.checksum_failures -= saved.checksum_failures;
  }

 private:
  storage::IoStats Now() const {
    storage::IoStats total;
    for (const storage::BufferPool* pool : pools_) total += pool->stats();
    return total;
  }

  std::vector<const storage::BufferPool*> pools_;
  storage::IoStats base_;
};

// Verdict of Derived::OnPopped on one dequeued entry.
enum class PopAction : uint8_t {
  kReported,  // `out` filled; Next() returns true
  kSkip,      // entry consumed (pruned/filtered); continue popping
  kExpand,    // node entry; core times and runs Derived::Expand
};

// See file comment. `ResultT` is what Next() fills (JoinResult<Dim> for the
// pair engines, a neighbor record for the single-tree engines); it is
// exported as `Result` so JoinCursor can forward any engine generically.
template <int Dim, typename Derived, typename Index, typename ResultT>
class BestFirstEngine {
 public:
  using Result = ResultT;

  // Produces the next result; returns false once no further result exists,
  // the stop token fired, or an unrecoverable I/O failure occurred —
  // status() disambiguates. Results already returned are always a valid,
  // correctly ordered prefix.
  bool Next(ResultT* out) {
    SDJ_CHECK(out != nullptr);
    derived().PrepareNext();
    if (status_ != JoinStatus::kOk) return false;
    if (!derived().BeforeIteration()) return false;
    for (;;) {
      // Safe point (DESIGN.md §11): no entry is popped-but-unprocessed here,
      // so the queue and every policy structure are mutually consistent and
      // SaveState captures a resumable cursor.
      if (config_.stop_token.stop_requested()) {
        status_ = JoinStatus::kSuspended;
        return false;
      }
      if (queue_->Empty()) {
        if (queue_->io_error()) {
          status_ = JoinStatus::kIoError;
          return false;
        }
        if (derived().OnQueueDrained()) continue;
        // A failed drain hook (an unreadable root on restart) set kIoError.
        if (status_ == JoinStatus::kOk) status_ = JoinStatus::kExhausted;
        return false;
      }
      // The hybrid queue migrates entries between tiers inside Empty/Pop; a
      // disk-tier read failure there loses entries, so the remaining stream
      // is no longer guaranteed complete — stop with the partial prefix.
      if (queue_->io_error()) {
        status_ = JoinStatus::kIoError;
        return false;
      }
      // Pop cost is heap restructuring; Empty() above already refilled, so
      // the kRefill phase never nests inside this one. Sampled 1-in-16
      // (obs::PopSample) keyed on queue_pops, which SaveCore persists, so a
      // resumed cursor samples the same pops an uninterrupted run would.
      obs::PhaseTimer pop_timer(
          obs::PopSample(config_.metrics, stats_.queue_pops), obs::Op::kPop);
      PairEntry<Dim> e = queue_->Pop();
      pop_timer.Stop();
      ++stats_.queue_pops;
      const PopAction action = derived().OnPopped(e, out);
      if (action == PopAction::kReported) return true;
      if (action == PopAction::kSkip) continue;
      obs::PhaseTimer expand_timer(config_.metrics, obs::Op::kExpansion);
      if (!derived().Expand(e)) return false;  // status_ set to kIoError
    }
  }

  // Why iteration stopped (kOk while Next() still returns results). After a
  // kIoError the iterator stays stopped; results already produced remain
  // valid.
  JoinStatus status() const { return status_; }

  // Clears a kSuspended status so iteration can continue (after the caller
  // re-arms or replaces the StopSource). No-op in any other state.
  void ResumeSuspended() {
    if (status_ == JoinStatus::kSuspended) status_ = JoinStatus::kOk;
  }

  // Cumulative statistics (Table 1's measures among them). Node I/O is
  // derived from the indexes' buffer pools, so it assumes the pools are not
  // shared with concurrent work.
  const JoinStats& stats() const {
    stats_.max_queue_size =
        std::max<uint64_t>(stats_.max_queue_size, queue_->MaxSize());
    pool_baseline_.Fill(&stats_);
    stats_.spill_fallbacks =
        base_spill_fallbacks_ + queue_->spill_fallbacks();
    return stats_;
  }

  // Peak number of queue entries resident in memory (differs from
  // stats().max_queue_size only for the hybrid queue).
  size_t max_memory_queue_size() const { return queue_->MaxMemorySize(); }

  // Entries currently live in the pair queue (all tiers). The serving layer
  // (DESIGN.md §14) uses this as a session's memory-cost proxy when deciding
  // which sessions to checkpoint and evict under pressure.
  size_t queue_size() const { return queue_->Size(); }

  // ---- shard planning (core/shard_plan.h, DESIGN.md §18) ----

  // Runs exactly one pop+expand step of the serial loop, to deepen the
  // frontier during shard planning. Charges the same counters the serial
  // loop would (queue_pops here; the expansion charges its own), so a plan
  // built this way stays stats-identical to a serial prefix. Returns true
  // only when the head entry was classified kExpand and the expansion
  // succeeded; any other outcome (empty or errored queue, reportable or
  // skippable head, I/O failure) returns false and the planner must fall
  // back to an unsharded engine.
  bool PumpPlanStep() {
    if (status_ != JoinStatus::kOk || queue_->Empty() ||
        queue_->io_error()) {
      return false;
    }
    const Entry& top = queue_->Top();
    if (!top.item1.is_node() && !top.item2.is_node()) return false;
    obs::PhaseTimer pop_timer(
        obs::PopSample(config_.metrics, stats_.queue_pops), obs::Op::kPop);
    Entry e = queue_->Pop();
    pop_timer.Stop();
    ++stats_.queue_pops;
    ResultT scratch;
    if (derived().OnPopped(e, &scratch) != PopAction::kExpand) return false;
    obs::PhaseTimer expand_timer(config_.metrics, obs::Op::kExpansion);
    return derived().Expand(e);
  }

  // Copies every live queue entry into *out (unspecified order). Returns
  // false if the queue could not be fully read (an unreadable hybrid disk
  // page), in which case the plan must be abandoned.
  bool CollectPlanEntries(std::vector<PairEntry<Dim>>* out) {
    out->clear();
    return queue_->ForEach(
        [out](const Entry& e) { out->push_back(e); });
  }

  // Seeds a defer-seeded engine with externally planned entries. Does NOT
  // charge queue_pushes — the plan's seed engine already charged every push
  // the serial engine would have — and adopts the planner's sequence
  // counter so later enqueues tie-break exactly as a serial continuation.
  void AdoptPlanEntries(const std::vector<PairEntry<Dim>>& entries,
                        uint64_t next_seq) {
    for (const Entry& e : entries) queue_->Push(e);
    next_seq_ = next_seq;
  }

  uint64_t next_seq() const { return next_seq_; }

 protected:
  using Item = JoinItem<Dim>;
  using Entry = PairEntry<Dim>;

  static constexpr double kInf = std::numeric_limits<double>::infinity();
  // Candidate batches below this size are classified inline: the per-shard
  // handoff costs more than scoring a few dozen rectangles.
  static constexpr size_t kParallelGrain = 128;

  // `pools` are the buffer pools of every index the engine reads (one per
  // distinct index), folded into the pool-derived statistics.
  BestFirstEngine(std::vector<const storage::BufferPool*> pools,
                  const BestFirstConfig& config)
      : config_(config),
        pool_baseline_(std::move(pools)),
        workers_(config.num_threads),
        tallies_(workers_.num_threads()) {
    queue_ = MakeQueue();
  }

  // Non-virtual: engines are used through their concrete type.
  ~BestFirstEngine() = default;

  Derived& derived() { return static_cast<Derived&>(*this); }

  // ---- default policy hooks (a Derived overrides by shadowing) ----

  void PrepareNext() {}
  bool BeforeIteration() { return true; }
  bool OnQueueDrained() { return false; }

  // ---- queue construction ----

  std::unique_ptr<PairQueue<Dim>> MakeQueue() const {
    PairEntryCompare<Dim> cmp{config_.tie_break};
    if (config_.use_hybrid_queue) {
      // The queue shares the engine's sink (refill/spill phases, spill-file
      // page I/O) unless the caller wired its own.
      HybridQueueOptions hybrid = config_.hybrid;
      if (hybrid.metrics == nullptr) hybrid.metrics = config_.metrics;
      return std::make_unique<HybridPairQueue<Dim>>(cmp, hybrid);
    }
    return std::make_unique<MemoryPairQueue<Dim>>(cmp);
  }

  // ---- node reads (DESIGN.md §9) ----

  // The root item of a non-empty `tree`, read through TryPin like every
  // other node: false (status_ = kIoError) when the root page is unreadable,
  // so an engine seeded over a failing store stops instead of aborting.
  bool RootItem(const Index& tree, Item* out) {
    Rect<Dim> mbr;
    if (!tree.TryRootMbr(&mbr)) return MarkIoError();
    *out = Item{mbr, tree.root(), static_cast<int16_t>(tree.root_level()),
                JoinItemKind::kNode};
    return true;
  }

  // Records an unrecoverable node-page I/O failure. Returns false so callers
  // can `return MarkIoError();` straight out of the expansion path.
  bool MarkIoError() {
    status_ = JoinStatus::kIoError;
    return false;
  }

  // Pins one node page and decodes it into the given batch/ref scratch.
  // Returns false on an unreadable page WITHOUT touching status_ — callers
  // propagate with `return MarkIoError();` (never SDJ_CHECK). The pin spans
  // only the decode; expansions that must hold two pins simultaneously
  // (ProcessBoth) pin manually with the same TryPin contract.
  bool PinDecode(const Index& tree, uint64_t ref, RectBatch<Dim>* batch,
                 std::vector<uint64_t>* refs, bool* leaf, int* level) {
    typename Index::PinnedNode node =
        tree.TryPin(static_cast<storage::PageId>(ref));
    if (!node.ok()) return false;
    node.DecodeInto(batch, refs);
    *leaf = node.is_leaf();
    *level = node.level();
    return true;
  }

  // Runs a pinned node's screened decode (integer code screening on
  // quantized pages, DESIGN.md §17) and charges the screening counters.
  // Returns the number of entries screened out; every one of them is
  // provably out of range (the classify ladder would reject it at its
  // MINDIST-over-Dmax rung), so the CALLER must charge them as that rung's
  // verdict — the pair stream and all pre-existing counters then stay
  // byte-identical with screening on or off.
  size_t ScreenedDecode(const typename Index::PinnedNode& node,
                        const Rect<Dim>& query, double max_distance,
                        simd::Isa isa, RectBatch<Dim>* batch,
                        std::vector<uint64_t>* refs) {
    size_t dropped = 0;
    const bool ran = node.DecodeScreened(query, max_distance, isa,
                                         &screen_scratch_, batch, refs,
                                         &dropped);
    if (ran) {
      stats_.screened_candidates += batch->size() + dropped;
      stats_.screen_survivors += batch->size();
    }
    return dropped;
  }

  // PinDecode with integer code screening: decodes only the entries that
  // could possibly lie within `max_distance` of `query`. *screened_out gets
  // the dropped-entry count (see ScreenedDecode for the caller's counter
  // obligation); raw pages and unprunable grids behave exactly like
  // PinDecode with *screened_out == 0.
  bool PinDecodeScreened(const Index& tree, uint64_t ref,
                         const Rect<Dim>& query, double max_distance,
                         simd::Isa isa, RectBatch<Dim>* batch,
                         std::vector<uint64_t>* refs, bool* leaf, int* level,
                         size_t* screened_out) {
    typename Index::PinnedNode node =
        tree.TryPin(static_cast<storage::PageId>(ref));
    if (!node.ok()) return false;
    *screened_out =
        ScreenedDecode(node, query, max_distance, isa, batch, refs);
    *leaf = node.is_leaf();
    *level = node.level();
    return true;
  }

  // ---- child-item materialization ----

  // Turns entry `i` of a decoded node batch into a queue item. `object_kind`
  // is what leaf entries become (kObject, or kObjectRect in obr mode).
  Item MakeChildItem(const RectBatch<Dim>& batch,
                     const std::vector<uint64_t>& refs, size_t i, bool leaf,
                     int level, JoinItemKind object_kind) const {
    Item item;
    item.rect = batch.rect(i);
    item.ref = refs[i];
    if (leaf) {
      item.level = -1;
      item.kind = object_kind;
    } else {
      item.level = static_cast<int16_t>(level - 1);
      item.kind = JoinItemKind::kNode;
    }
    return item;
  }

  void BuildChildItems(const RectBatch<Dim>& batch,
                       const std::vector<uint64_t>& refs, bool leaf, int level,
                       JoinItemKind object_kind, std::vector<Item>* out) const {
    out->clear();
    out->reserve(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      out->push_back(MakeChildItem(batch, refs, i, leaf, level, object_kind));
    }
  }

  // ---- classify + enqueue (DESIGN.md §10) ----

  // An accepted candidate's scores, kept from classify to build.
  struct SlotScore {
    double distance;
    double key;
  };

  // Candidates per verdict of one ClassifyAndEnqueue call, indexed by the
  // policy's verdict enum.
  static constexpr size_t kMaxVerdicts = 8;
  using Tally = std::array<uint64_t, kMaxVerdicts>;

  // One classify shard's tally. Aligned: shards write their own tallies
  // concurrently and read the others' after the rendezvous.
  struct alignas(64) ShardTally {
    Tally verdicts{};
  };

  // Runs n candidate pairs through the policy's acceptance ladder,
  // `classify(i, &score)`, and enqueues the accepted ones in slot order.
  // classify returns the policy's verdict enum, which names kAccept and
  // counts at most kMaxVerdicts values in kCount; get_a/get_b map a slot to its
  // items. Returns the verdict counts: the policy charges its counters from
  // them, so a counter never depends on which mode ran.
  //
  // `pure` promises that classify reads only state no candidate can change
  // and writes nothing. Then each shard classifies its static slot range
  // (util/thread_pool.h) and tallies the verdicts; the shards rendezvous,
  // and each builds its survivors straight into queue storage
  // (PairQueue::BulkWriter) with seq = base + the accepted slots before it
  // in slot order. A one-shard batch (num_threads == 1, or fewer than
  // kParallelGrain candidates) runs the same code inline. Every verdict,
  // entry and seq is a pure function of its slot, so the stream and stats
  // are bit-identical to a serial run's for any thread count.
  //
  // Otherwise classify runs in slot order on the calling thread and each
  // survivor is pushed as it is accepted, so the next candidate sees the
  // state the acceptance left (estimator, bound tables).
  template <typename Classify, typename GetA, typename GetB>
  Tally ClassifyAndEnqueue(bool pure, size_t n, const Classify& classify,
                           const GetA& get_a, const GetB& get_b) {
    using Verdict = decltype(classify(size_t{0}, &slot_score_[0]));
    static_assert(static_cast<size_t>(Verdict::kCount) <= kMaxVerdicts);
    constexpr size_t kAccept = static_cast<size_t>(Verdict::kAccept);
    const auto fill = [&](size_t i, const SlotScore& score, uint64_t seq,
                          Entry& entry) {
      entry.key = score.key;
      entry.distance = score.distance;
      entry.item1 = get_a(i);
      entry.item2 = get_b(i);
      entry.seq = seq;
      FinalizePairMetadata(&entry);
    };
    Tally total{};
    if (n == 0) return total;
    if (!pure) {
      for (size_t i = 0; i < n; ++i) {
        SlotScore score;
        const size_t verdict = static_cast<size_t>(classify(i, &score));
        ++total[verdict];
        if (verdict != kAccept) continue;
        Entry entry;
        fill(i, score, next_seq_++, entry);
        queue_->Push(entry);
      }
      return total;
    }
    const bool parallel = workers_.num_threads() > 1 && n >= kParallelGrain;
    const size_t shards = parallel ? workers_.num_threads() : 1;
    slot_verdict_.resize(n);
    slot_score_.resize(n);
    const uint64_t base_seq = next_seq_;
    const auto run_shard = [&](size_t shard, size_t begin, size_t end) {
      ShardTally& tally = tallies_[shard];
      tally = ShardTally{};
      for (size_t i = begin; i < end; ++i) {
        slot_verdict_[i] =
            static_cast<uint8_t>(classify(i, &slot_score_[i]));
        ++tally.verdicts[slot_verdict_[i]];
      }
      if (parallel) workers_.Rendezvous();
      size_t first = 0;
      for (size_t s = 0; s < shard; ++s) {
        first += tallies_[s].verdicts[kAccept];
      }
      PairQueueWriter<Dim> out =
          queue_->BulkWriter(shard, first, tally.verdicts[kAccept]);
      uint64_t seq = base_seq + first;
      for (size_t i = begin; i < end; ++i) {
        if (slot_verdict_[i] != kAccept) continue;
        out.Add([&](Entry& entry) { fill(i, slot_score_[i], seq++, entry); });
      }
    };
    queue_->BeginBulk(shards, n);
    if (parallel) {
      workers_.ParallelFor(n, run_shard);
      ++stats_.parallel_expansions;
    } else {
      run_shard(0, 0, n);
    }
    for (size_t s = 0; s < shards; ++s) {
      for (size_t v = 0; v < kMaxVerdicts; ++v) {
        total[v] += tallies_[s].verdicts[v];
      }
    }
    queue_->EndBulk(total[kAccept]);
    next_seq_ += total[kAccept];
    return total;
  }

  // ---- serialization (DESIGN.md §11) ----

  // Whether the current state is capturable at all: an engine that already
  // failed (kIoError, kInvalidArgument) or whose queue lost entries cannot
  // produce a resumable snapshot. Engines check this before writing their
  // fingerprint.
  bool SaveAllowed() const {
    return status_ != JoinStatus::kIoError &&
           status_ != JoinStatus::kInvalidArgument && !queue_->io_error();
  }

  // Serializes the core state — sequence counter, status, statistics, queue
  // tier frontier and every live entry. The engine writes its config
  // fingerprint and policy scalars around this; `tail_bytes` is how much it
  // appends afterwards, reserved here with the entries so a multi-megabyte
  // snapshot is never reallocated and copied to grow. Returns false if the
  // queue entries cannot all be read (an unreadable hybrid disk page); `out`
  // must then be discarded.
  bool SaveCore(snapshot::Blob* out, size_t tail_bytes = 0) {
    stats();  // fold pool- and queue-derived counters into stats_
    out->PutU64(next_seq_);
    out->PutU8(static_cast<uint8_t>(status_));
    // Statistics: every counter, in kJoinStatFields order.
    for (const JoinStatField& f : kJoinStatFields) {
      out->PutU64(stats_.*f.member);
    }
    // Queue: frontier first, so restore classifies pushes into the same
    // tiers, then every live entry (order-free — the comparator is total)
    // as one fixed-width record each.
    out->PutU64(queue_->TierFrontier());
    out->PutU64(queue_->Size());
    out->Reserve(out->size() +
                 queue_->Size() * snapshot::EntryWireSize<Dim>() + tail_bytes);
    return queue_->ForEach(
        [out](const Entry& e) { snapshot::WriteEntry(out, e); });
  }

  // Counterpart of SaveCore; the caller has already verified its
  // fingerprint (snapshot::BlobReader::Expect). On success the rebuilt queue pops the exact sequence the
  // saved one would have (the entry comparator is a total order), and the
  // statistics are rebased against the *current* pool counters so stats()
  // keeps reporting totals across the suspend/resume boundary (modular
  // uint64 arithmetic keeps the deltas exact even when the new process's
  // pools start cold). On failure the engine is unusable and must be
  // reconstructed.
  bool RestoreCore(snapshot::BlobReader* in) {
    const uint64_t next_seq = in->GetU64();
    const uint8_t saved_status = in->GetU8();
    if (saved_status > static_cast<uint8_t>(JoinStatus::kInvalidArgument)) {
      return false;
    }
    JoinStats saved_stats;
    for (const JoinStatField& f : kJoinStatFields) {
      saved_stats.*f.member = in->GetU64();
    }
    const uint64_t frontier = in->GetU64();
    const uint64_t count = in->GetCount(snapshot::EntryWireSize<Dim>());
    if (!in->ok()) return false;
    // Release the old queue BEFORE building its replacement: a file-backed
    // hybrid spill must be closed before the new store truncates the path.
    queue_.reset();
    queue_ = MakeQueue();
    if (frontier > 0) queue_->RestoreTierFrontier(frontier);
    for (uint64_t i = 0; i < count; ++i) {
      Entry e;
      if (!snapshot::ReadEntry(in, &e)) return false;
      queue_->Push(e);
    }
    next_seq_ = next_seq;
    stats_ = saved_stats;
    pool_baseline_.Rebase(saved_stats);
    base_spill_fallbacks_ = saved_stats.spill_fallbacks;
    status_ = static_cast<JoinStatus>(saved_status);
    return true;
  }

  // ---- shared state ----

  // Mutable so NN-style engines can re-arm the stop token / metrics sink
  // after construction; the queue itself is built once in the constructor.
  BestFirstConfig config_;
  PoolBaseline pool_baseline_;
  util::ThreadPool workers_;
  std::unique_ptr<PairQueue<Dim>> queue_;

  // Expansion scratch, reused across Next() calls to avoid re-allocation on
  // the hot path. Only touched inside one Expand call at a time.
  RectBatch<Dim> batch1_;
  RectBatch<Dim> batch2_;
  std::vector<uint64_t> refs1_;
  std::vector<uint64_t> refs2_;
  std::vector<double> mind1_;
  std::vector<double> mind2_;
  std::vector<Item> left_;
  std::vector<Item> right_;
  std::vector<uint8_t> slot_verdict_;
  std::vector<SlotScore> slot_score_;
  std::vector<ShardTally> tallies_;  // one per classify shard
  code_screen::ScreenScratch<Dim> screen_scratch_;

  uint64_t next_seq_ = 0;
  JoinStatus status_ = JoinStatus::kOk;
  // Spill fallbacks accumulated before the last RestoreCore (the restored
  // queue's own counter restarts at zero).
  uint64_t base_spill_fallbacks_ = 0;
  mutable JoinStats stats_;
};

}  // namespace sdj

#endif  // SDJOIN_CORE_BEST_FIRST_H_
