// Sharded best-first execution: K independent shard engines behind a k-way
// frontier merge (DESIGN.md §18).
//
// Layer 2 and 3 of the sharded stack (layer 1, the plan, is
// core/shard_plan.h): each shard is a completely ordinary best-first engine
// — its own queue (hybrid tiers included), its own JoinStats, its own
// classify threads — seeded with one disjoint group of the post-root
// frontier. A persistent producer thread per shard pulls results into a
// small bounded buffer, and the consumer emits the globally next result by
// popping the best buffered head.
//
// THE MERGE-FRONTIER INVARIANT that makes this correct: every shard emits
// its results in nondecreasing key order (nonincreasing for farthest-first),
// so a shard's buffered head lower-bounds everything that shard will ever
// produce. Taking the best head over all shards — ties broken by shard
// index — therefore yields a globally sorted stream, which is the serial
// engine's stream (the serial engine emits the same multiset, sorted, with
// equal-key runs ordered by its internal tie-break; see DESIGN.md §18 for
// the equal-distance caveat).
//
// Cross-cutting behavior threads through the merge rather than being
// re-implemented per shard:
//   * kIoError: a dead shard's unproduced results all lie at or past its
//     last produced key, so the merge keeps emitting other shards' heads
//     strictly below that key, then fails — the emitted stream is a valid
//     prefix of the serial stream, exactly like a serial engine's I/O stop.
//   * StopToken: polled at merge-level pops (the wrapper's safe point);
//     shard engines run with a cleared token and park between Next() calls,
//     which are precisely the serial loop's safe points.
//   * SaveState/RestoreState: the wrapper quiesces every producer, then
//     frames the per-shard engine snapshots together with the merge cursor
//     (emitted count, per-shard terminal states, and the buffered results
//     that have left their engines but not yet the merge).
//   * Statistics: merged totals are the plan's seed stats plus each shard's
//     counters via JoinStats::MergeFrom; the four pool-derived counters are
//     re-derived from a wrapper-owned PoolBaseline (per-shard deltas on a
//     shared pool would multi-count). At exhaustion every counter equals the
//     serial engine's except max_queue_size (disjoint per-shard peaks; the
//     merge reports their max) and parallel_expansions — the same two
//     already excluded from cross-config comparisons.
#ifndef SDJOIN_CORE_SHARD_MERGE_H_
#define SDJOIN_CORE_SHARD_MERGE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/distance_join.h"
#include "core/env_knobs.h"
#include "core/join_result.h"
#include "core/join_stats.h"
#include "core/semi_join.h"
#include "core/shard_plan.h"
#include "core/snapshot.h"
#include "core/within_join.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "util/check.h"
#include "util/stop_token.h"

namespace sdj::shard {

// ---- result wire format (buffered-result serialization) ----

// Results buffered between a shard engine and the merge cannot be re-derived
// on restore (their engines have already advanced past them), so the wrapper
// snapshot carries them verbatim. One generic writer covers both result
// shapes (JoinResult and NeighborResult).
template <int Dim, typename ResultT>
void WriteMergeResult(snapshot::Blob* out, const ResultT& r) {
  if constexpr (requires { r.id1; }) {
    out->PutU64(static_cast<uint64_t>(r.id1));
    out->PutU64(static_cast<uint64_t>(r.id2));
    out->PutBytes(r.rect1.lo.coords.data(), 8 * Dim);
    out->PutBytes(r.rect1.hi.coords.data(), 8 * Dim);
    out->PutBytes(r.rect2.lo.coords.data(), 8 * Dim);
    out->PutBytes(r.rect2.hi.coords.data(), 8 * Dim);
  } else {
    out->PutU64(static_cast<uint64_t>(r.id));
    out->PutBytes(r.rect.lo.coords.data(), 8 * Dim);
    out->PutBytes(r.rect.hi.coords.data(), 8 * Dim);
  }
  out->PutDouble(r.distance);
}

template <int Dim, typename ResultT>
bool ReadMergeResult(snapshot::BlobReader* in, ResultT* r) {
  if constexpr (requires { r->id1; }) {
    r->id1 = static_cast<ObjectId>(in->GetU64());
    r->id2 = static_cast<ObjectId>(in->GetU64());
    in->GetBytes(r->rect1.lo.coords.data(), 8 * Dim);
    in->GetBytes(r->rect1.hi.coords.data(), 8 * Dim);
    in->GetBytes(r->rect2.lo.coords.data(), 8 * Dim);
    in->GetBytes(r->rect2.hi.coords.data(), 8 * Dim);
  } else {
    r->id = static_cast<ObjectId>(in->GetU64());
    in->GetBytes(r->rect.lo.coords.data(), 8 * Dim);
    in->GetBytes(r->rect.hi.coords.data(), 8 * Dim);
  }
  r->distance = in->GetDouble();
  return in->ok();
}

// ---- the k-way frontier merge ----

// Producer-thread merge over K shard engines. One consumer (the wrapper's
// Next caller) at a time; producers only touch their own engine and slot.
// Every slot field is protected by mu_; engines are handed between a parked
// producer and the consumer through the idle flag (set and read under mu_,
// so the handoff is a proper happens-before edge — TSan-clean).
template <int Dim, typename EngineT, typename ResultT>
class FrontierMerge {
 public:
  // Per-shard lookahead: enough to overlap shard expansion with the merge,
  // small enough that capped runs stop shard work promptly.
  static constexpr size_t kLookahead = 4;

  struct Slot {
    std::unique_ptr<EngineT> engine;
    std::deque<ResultT> buffer;  // produced, not yet emitted
    bool done = false;           // engine returned false (terminal below)
    JoinStatus terminal = JoinStatus::kOk;
    double last_key = 0.0;  // distance of the newest produced result
    bool has_last = false;
    bool idle = true;  // producer parked (engine at a safe point)
    std::thread thread;
  };

  FrontierMerge() = default;
  ~FrontierMerge() { StopThreads(); }
  FrontierMerge(const FrontierMerge&) = delete;
  FrontierMerge& operator=(const FrontierMerge&) = delete;

  void Init(std::vector<std::unique_ptr<EngineT>> engines, bool descending) {
    SDJ_CHECK(!started_ && slots_.empty());
    descending_ = descending;
    slots_.reserve(engines.size());
    for (auto& engine : engines) {
      Slot slot;
      slot.engine = std::move(engine);
      slots_.push_back(std::move(slot));
    }
  }

  bool initialized() const { return !slots_.empty(); }
  size_t shard_count() const { return slots_.size(); }
  std::vector<Slot>& slots() { return slots_; }
  JoinStatus status() const { return status_; }
  uint64_t merge_pops() const { return merge_pops_; }

  // Emits the globally next result; false once the merged stream ended —
  // status() then reports kExhausted or kIoError.
  bool Next(ResultT* out) {
    if (status_ != JoinStatus::kOk) return false;
    EnsureStarted();
    std::unique_lock<std::mutex> lk(mu_);
    paused_ = false;
    cv_.notify_all();
    cv_.wait(lk, [&] { return HeadsReady(); });
    // Failed-shard bound: a dead shard's unproduced results all lie at or
    // past its last produced key, so nothing at or past the tightest such
    // key is guaranteed complete.
    double bound = 0.0;
    bool have_bound = false;
    for (const Slot& s : slots_) {
      if (!s.done || s.terminal != JoinStatus::kIoError) continue;
      if (!s.has_last) {
        // Died before producing anything: no complete prefix exists.
        status_ = JoinStatus::kIoError;
        return false;
      }
      if (!have_bound || Before(s.last_key, bound)) bound = s.last_key;
      have_bound = true;
    }
    int best = -1;
    for (size_t k = 0; k < slots_.size(); ++k) {
      if (slots_[k].buffer.empty()) continue;
      if (best < 0 || Before(slots_[k].buffer.front().distance,
                             slots_[static_cast<size_t>(best)]
                                 .buffer.front()
                                 .distance)) {
        best = static_cast<int>(k);
      }
    }
    if (best < 0) {
      status_ = have_bound ? JoinStatus::kIoError : JoinStatus::kExhausted;
      return false;
    }
    Slot& winner = slots_[static_cast<size_t>(best)];
    if (have_bound && !Before(winner.buffer.front().distance, bound)) {
      status_ = JoinStatus::kIoError;
      return false;
    }
    *out = std::move(winner.buffer.front());
    winner.buffer.pop_front();
    ++merge_pops_;
    cv_.notify_all();  // the winner's producer can refill
    return true;
  }

  // Parks every producer at an engine safe point (between Next calls). The
  // caller may then read or serialize the shard engines from its own thread.
  void Quiesce() {
    if (!started_) return;
    std::unique_lock<std::mutex> lk(mu_);
    paused_ = true;
    cv_.notify_all();
    cv_.wait(lk, [&] { return AllIdle(); });
  }

  void Resume() {
    if (!started_) return;
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
    cv_.notify_all();
  }

  // Joins every producer (for destruction and RestoreState). Threads restart
  // lazily on the next Next() call, re-reading whatever slot state the
  // caller rebuilt in between.
  void StopThreads() {
    if (!started_) return;
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
      cv_.notify_all();
    }
    for (Slot& s : slots_) {
      if (s.thread.joinable()) s.thread.join();
    }
    started_ = false;
    stop_ = false;
    paused_ = false;
    for (Slot& s : slots_) s.idle = true;
  }

  // RestoreState support: overwrites the merge-level cursor.
  void RestoreVerdict(JoinStatus status, uint64_t merge_pops) {
    status_ = status;
    merge_pops_ = merge_pops;
  }

 private:
  bool Before(double a, double b) const {
    return descending_ ? a > b : a < b;
  }

  // Every slot has a buffered head or is terminal; the best head is then
  // provably the globally next result.
  bool HeadsReady() const {
    for (const Slot& s : slots_) {
      if (s.buffer.empty() && !s.done) return false;
    }
    return true;
  }

  bool AllIdle() const {
    for (const Slot& s : slots_) {
      if (!s.idle) return false;
    }
    return true;
  }

  void EnsureStarted() {
    if (started_) return;
    started_ = true;
    for (Slot& s : slots_) {
      s.thread = std::thread([this, slot = &s] { ProducerLoop(slot); });
    }
  }

  void ProducerLoop(Slot* s) {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      while (!stop_ &&
             (paused_ || s->done || s->buffer.size() >= kLookahead)) {
        s->idle = true;
        cv_.notify_all();
        cv_.wait(lk);
      }
      if (stop_) break;
      s->idle = false;
      lk.unlock();
      ResultT r;
      const bool got = s->engine->Next(&r);
      lk.lock();
      if (got) {
        s->last_key = r.distance;
        s->has_last = true;
        s->buffer.push_back(std::move(r));
      } else {
        s->done = true;
        s->terminal = s->engine->status();
      }
      s->idle = true;
      cv_.notify_all();
    }
    s->idle = true;
    cv_.notify_all();
  }

  std::vector<Slot> slots_;
  bool descending_ = false;
  bool started_ = false;

  std::mutex mu_;
  std::condition_variable cv_;
  bool paused_ = false;
  bool stop_ = false;

  JoinStatus status_ = JoinStatus::kOk;  // kOk | kExhausted | kIoError
  uint64_t merge_pops_ = 0;
};

// ---- the shared sharded-engine wrapper ----

// Common machinery of every Sharded* policy wrapper: the one shard builder
// (BuildShards), passthrough mode (the plan failed or K < 2 — one ordinary
// engine, zero threads), the merge-level Next loop with its StopToken safe
// point and result cap, merged statistics with a wrapper-owned pool
// baseline, and SaveState/RestoreState framing. A Derived constructor only
// states its eligibility rules and how to construct one engine.
template <int Dim, typename EngineT, typename ResultT>
class ShardedEngine {
 public:
  using Result = ResultT;

  bool Next(ResultT* out) {
    SDJ_CHECK(out != nullptr);
    if (passthrough_ != nullptr) return passthrough_->Next(out);
    if (auto_resume_ && status_ == JoinStatus::kSuspended) {
      status_ = JoinStatus::kOk;
    }
    if (status_ != JoinStatus::kOk) return false;
    if (max_results_ > 0 && emitted_ >= max_results_) {
      status_ = JoinStatus::kExhausted;
      return false;
    }
    // Merge-level safe point (DESIGN.md §11): shard engines run with a
    // cleared token and park between their own Next calls, so after
    // Quiesce every engine is serializable.
    if (stop_token_.stop_requested()) {
      status_ = JoinStatus::kSuspended;
      merge_.Quiesce();
      return false;
    }
    if (!merge_.Next(out)) {
      status_ = merge_.status();
      return false;
    }
    ++emitted_;
    return true;
  }

  JoinStatus status() const {
    if (passthrough_ != nullptr) return passthrough_->status();
    return status_;
  }

  void ResumeSuspended() {
    if (passthrough_ != nullptr) {
      passthrough_->ResumeSuspended();
      return;
    }
    if (status_ == JoinStatus::kSuspended) {
      status_ = JoinStatus::kOk;
      merge_.Resume();
    }
  }

  // Merged statistics: seed stats + every shard via JoinStats::MergeFrom,
  // pairs_reported overwritten with what the merge actually emitted (shard
  // counters can run ahead by the bounded lookahead mid-stream; at
  // exhaustion the totals match the serial engine — see file comment for
  // the two excluded counters), and the pool-derived counters re-derived
  // from the wrapper-owned pool baseline.
  const JoinStats& stats() const {
    if (passthrough_ != nullptr) return EngineStats(*passthrough_);
    merge_.Quiesce();
    merged_ = seed_stats_;
    for (const auto& slot : merge_.slots()) {
      merged_.MergeFrom(EngineStats(*slot.engine));
    }
    merged_.pairs_reported = emitted_;
    pool_baseline_.Fill(&merged_);
    if (status_ == JoinStatus::kOk) merge_.Resume();
    return merged_;
  }

  // Live queue entries across every shard plus the buffered results in
  // flight — the serving layer's memory-cost proxy (DESIGN.md §14).
  size_t queue_size() const {
    if (passthrough_ != nullptr) return passthrough_->queue_size();
    merge_.Quiesce();
    size_t total = 0;
    for (const auto& slot : merge_.slots()) {
      total += slot.engine->queue_size() + slot.buffer.size();
    }
    if (status_ == JoinStatus::kOk) merge_.Resume();
    return total;
  }

  // Peak in-memory entries; per-shard peaks are concurrent on disjoint
  // queues, so the honest total is their sum.
  size_t max_memory_queue_size() const {
    if (passthrough_ != nullptr) return passthrough_->max_memory_queue_size();
    merge_.Quiesce();
    size_t total = 0;
    for (const auto& slot : merge_.slots()) {
      total += slot.engine->max_memory_queue_size();
    }
    if (status_ == JoinStatus::kOk) merge_.Resume();
    return total;
  }

  // 1 in passthrough mode, else the plan's effective shard count.
  int effective_shards() const {
    return passthrough_ != nullptr ? 1
                                   : static_cast<int>(merge_.shard_count());
  }

  // Merge-level pops (results emitted by the k-way merge). Deliberately NOT
  // a JoinStats field: adding it would change the stats wire format and
  // every golden fixture for a counter only the wrapper can produce.
  uint64_t shard_merge_pops() const {
    return passthrough_ != nullptr ? 0 : merge_.merge_pops();
  }

  // Per-shard counter snapshots (bench reporting: per-shard expansions).
  std::vector<JoinStats> shard_stats() const {
    std::vector<JoinStats> out;
    if (passthrough_ != nullptr) return out;
    merge_.Quiesce();
    out.reserve(merge_.shard_count());
    for (const auto& slot : merge_.slots()) {
      out.push_back(EngineStats(*slot.engine));
    }
    if (status_ == JoinStatus::kOk) merge_.Resume();
    return out;
  }

  // ---- snapshot support (DESIGN.md §11) ----

  // Wrapper framing (mode + shard count) around either the passthrough
  // engine's snapshot or the per-shard snapshots plus the merge cursor.
  // Same safe-point contract as the engines'.
  bool SaveState(snapshot::Blob* out) {
    out->Append(Fingerprint());
    if (passthrough_ != nullptr) return passthrough_->SaveState(out);
    merge_.Quiesce();
    if (status_ == JoinStatus::kIoError ||
        status_ == JoinStatus::kInvalidArgument) {
      return false;
    }
    for (const auto& slot : merge_.slots()) {
      // A dead shard cannot be resumed (its engine refuses SaveState and
      // its stream is incomplete): the merged cursor is unsaveable, exactly
      // like a serial engine after kIoError.
      if (slot.done && slot.terminal == JoinStatus::kIoError) return false;
    }
    out->PutU64(emitted_);
    out->PutU8(static_cast<uint8_t>(status_));
    JoinStats pool;
    pool_baseline_.Fill(&pool);
    out->PutU64(pool.node_io);
    out->PutU64(pool.node_accesses);
    out->PutU64(pool.io_retries);
    out->PutU64(pool.checksum_failures);
    for (auto& slot : merge_.slots()) {
      out->PutBool(slot.done);
      out->PutU8(static_cast<uint8_t>(slot.terminal));
      out->PutBool(slot.has_last);
      out->PutDouble(slot.last_key);
      out->PutU64(slot.buffer.size());
      for (const ResultT& r : slot.buffer) {
        WriteMergeResult<Dim>(out, r);
      }
      snapshot::Blob engine_blob;
      if (!slot.engine->SaveState(&engine_blob)) return false;
      out->PutU64(engine_blob.size());
      out->Append(engine_blob);
    }
    if (status_ == JoinStatus::kOk) merge_.Resume();
    return true;
  }

  // Counterpart of SaveState. The wrapper must have been constructed over
  // the same trees with the same options: the constructor re-runs the shard
  // plan deterministically, so mode and shard count must match the saved
  // ones, and each shard engine verifies its own fingerprint.
  bool RestoreState(snapshot::BlobReader* in) {
    if (!in->Expect(Fingerprint())) return false;
    if (passthrough_ != nullptr) return passthrough_->RestoreState(in);
    merge_.StopThreads();
    const uint64_t emitted = in->GetU64();
    const uint8_t status = in->GetU8();
    if (status != static_cast<uint8_t>(JoinStatus::kOk) &&
        status != static_cast<uint8_t>(JoinStatus::kExhausted) &&
        status != static_cast<uint8_t>(JoinStatus::kSuspended)) {
      return false;
    }
    JoinStats pool;
    pool.node_io = in->GetU64();
    pool.node_accesses = in->GetU64();
    pool.io_retries = in->GetU64();
    pool.checksum_failures = in->GetU64();
    if (!in->ok()) return false;
    for (auto& slot : merge_.slots()) {
      slot.done = in->GetBool();
      const uint8_t terminal = in->GetU8();
      if (terminal > static_cast<uint8_t>(JoinStatus::kInvalidArgument)) {
        return false;
      }
      slot.terminal = static_cast<JoinStatus>(terminal);
      slot.has_last = in->GetBool();
      slot.last_key = in->GetDouble();
      const uint64_t buffered = in->GetCount(8);
      if (!in->ok()) return false;
      slot.buffer.clear();
      for (uint64_t i = 0; i < buffered; ++i) {
        ResultT r;
        if (!ReadMergeResult<Dim>(in, &r)) return false;
        slot.buffer.push_back(std::move(r));
      }
      const uint64_t blob_size = in->GetCount(1);
      if (!in->ok()) return false;
      std::vector<char> blob(blob_size);
      if (blob_size > 0 && !in->GetBytes(blob.data(), blob_size)) {
        return false;
      }
      snapshot::BlobReader engine_in(blob.data(), blob.size());
      if (!slot.engine->RestoreState(&engine_in)) return false;
    }
    if (!in->ok()) return false;
    emitted_ = emitted;
    status_ = static_cast<JoinStatus>(status);
    merge_.RestoreVerdict(status_ == JoinStatus::kExhausted
                              ? JoinStatus::kExhausted
                              : JoinStatus::kOk,
                          emitted_);
    // Rebase exactly as RestoreCore does: stats() keeps reporting totals
    // across the boundary.
    pool_baseline_.Rebase(pool);
    return true;
  }

 protected:
  static constexpr uint32_t kMagic = 0x534A5348;  // "SJSH"
  static constexpr uint32_t kVersion = 1;

  explicit ShardedEngine(std::vector<const storage::BufferPool*> pools)
      : pool_baseline_(std::move(pools)) {}

  ~ShardedEngine() = default;
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  // For option adapters whose options match no engine configuration (a
  // semi-join without a filter): drops the passthrough engine, so Next()
  // returns false and status() reports kInvalidArgument.
  void RejectOptions() {
    passthrough_.reset();
    status_ = JoinStatus::kInvalidArgument;
  }

  // The engines' full JoinStats regardless of what their stats() returns
  // (the neighbor engines surface IncNearestStats there).
  static const JoinStats& EngineStats(const EngineT& engine) {
    if constexpr (requires { engine.engine_stats(); }) {
      return engine.engine_stats();
    } else {
      return engine.stats();
    }
  }

  // The one shard builder every Derived constructor calls. `make(options)`
  // constructs one engine; `eligible` is the Derived's partitionability
  // rule. Runs the plan on a seed engine (one classify thread, one shard,
  // cleared stop token), then adopts either one passthrough engine with
  // the caller's options or one defer-seeded engine per plan group, each
  // with its own hybrid spill path. `allow_item2_fallback` is Scatter's;
  // `max_results` caps the merged stream (0 = none); `auto_resume` gives
  // NN semantics (a kSuspended status self-clears in Next).
  template <typename Options, typename Make>
  void BuildShards(const Options& options, bool eligible,
                   bool allow_item2_fallback, bool descending,
                   uint64_t max_results, bool auto_resume, const Make& make) {
    const int requested = env_knobs::ResolveShards(options.shards);
    Plan<Dim> plan;
    if (eligible && requested >= 2) {
      Options seed_options = options;
      if constexpr (requires { seed_options.num_threads; }) {
        seed_options.num_threads = 1;
      }
      seed_options.shards = 1;
      seed_options.defer_seed = false;
      seed_options.stop_token = util::StopToken{};
      const std::unique_ptr<EngineT> seed = make(seed_options);
      plan = BuildFromSeed<Dim>(seed.get(), requested, allow_item2_fallback);
      if (plan.ok()) plan.seed_stats = EngineStats(*seed);
    }
    if (!plan.ok()) {
      passthrough_ = make(options);
      return;
    }
    std::vector<std::unique_ptr<EngineT>> engines;
    engines.reserve(plan.groups.size());
    for (size_t k = 0; k < plan.groups.size(); ++k) {
      Options shard_options = options;
      shard_options.shards = 1;
      shard_options.defer_seed = true;
      shard_options.stop_token = util::StopToken{};
      if (shard_options.use_hybrid_queue &&
          !shard_options.hybrid.spill_path.empty()) {
        // Per-shard hybrid queues must not collide on one spill file.
        shard_options.hybrid.spill_path += ".shard" + std::to_string(k);
      }
      std::unique_ptr<EngineT> engine = make(shard_options);
      engine->AdoptPlanEntries(plan.groups[k], plan.next_seq);
      engines.push_back(std::move(engine));
    }
    seed_stats_ = plan.seed_stats;
    stop_token_ = options.stop_token;
    max_results_ = max_results;
    auto_resume_ = auto_resume;
    merge_.Init(std::move(engines), descending);
  }

 private:
  // Wrapper framing: mode and shard count, which the constructor's
  // deterministic re-plan must reproduce. Each engine section carries its
  // own fingerprint.
  snapshot::Blob Fingerprint() const {
    snapshot::Blob fp;
    fp.PutU32(kMagic);
    fp.PutU32(kVersion);
    fp.PutU32(static_cast<uint32_t>(Dim));
    fp.PutBool(passthrough_ == nullptr);
    fp.PutU32(static_cast<uint32_t>(effective_shards()));
    return fp;
  }

  PoolBaseline pool_baseline_;
  std::unique_ptr<EngineT> passthrough_;
  mutable FrontierMerge<Dim, EngineT, ResultT> merge_;
  JoinStats seed_stats_;
  util::StopToken stop_token_;
  uint64_t max_results_ = 0;  // merge-level result cap; 0 = unlimited
  bool auto_resume_ = false;  // NN semantics: kSuspended self-clears in Next
  uint64_t emitted_ = 0;
  JoinStatus status_ = JoinStatus::kOk;
  mutable JoinStats merged_;
};

}  // namespace sdj::shard

namespace sdj {

// ---- the sharded policy wrappers ----

// Sharded incremental distance join: behaves exactly like DistanceJoin (same
// constructor shape, same pair stream, same statistics at exhaustion) but
// executes options.shards independent engines behind the frontier merge.
// Falls back to one ordinary engine whenever the plan cannot prove a
// partition: fewer than two distinct root-entry subtrees, an estimator
// (whose pop-time cutoffs and restarts consult global state), reverse order
// (reported distances are exact MINDIST while the traversal orders by
// MAXDIST upper bounds, so per-shard result distances need not be monotone
// and the merge has no sound key), an exact-object-distance callback (obr
// resolution consults the engine's own queue head), or user object
// predicates (which may be stateful and order-sensitive).
template <int Dim, typename Index = RTree<Dim>>
class ShardedDistanceJoin
    : public shard::ShardedEngine<Dim, DistanceJoin<Dim, Index>,
                                  JoinResult<Dim>> {
  using BaseT =
      shard::ShardedEngine<Dim, DistanceJoin<Dim, Index>, JoinResult<Dim>>;

 public:
  ShardedDistanceJoin(const Index& tree1, const Index& tree2,
                      const DistanceJoinOptions& options,
                      JoinFilters<Dim> filters = JoinFilters<Dim>{},
                      SemiJoinFilter semi_filter = SemiJoinFilter::kNone,
                      SemiJoinBound semi_bound = SemiJoinBound::kNone)
      : BaseT({&tree1.pool(), &tree2.pool()}) {
    // Invalid options run unplanned, so the passthrough engine reports
    // them before any shard is built.
    const bool eligible = options.num_threads >= 1 &&
                          !options.estimate_max_distance &&
                          !options.reverse_order &&
                          options.exact_object_distance == nullptr &&
                          filters.object_filter1 == nullptr &&
                          filters.object_filter2 == nullptr;
    // Semi-joins partition S_o and the bound tables by first-item id, so
    // only an item1 scatter is sound for them (Outside included: each shard
    // keeps its own S_o).
    const bool symmetric = semi_filter == SemiJoinFilter::kNone &&
                           semi_bound == SemiJoinBound::kNone;
    this->BuildShards(
        options, eligible, /*allow_item2_fallback=*/symmetric,
        /*descending=*/false, /*max_results=*/options.max_pairs,
        /*auto_resume=*/false, [&](const DistanceJoinOptions& o) {
          return std::make_unique<DistanceJoin<Dim, Index>>(
              tree1, tree2, o, filters, semi_filter, semi_bound);
        });
  }
};

// Sharded distance semi-join: the same option adapter as DistanceSemiJoin,
// over ShardedDistanceJoin. Every filter and bound shards cleanly because
// the plan scatters by item1 only, so each first object's S_o bit and bound
// entries live in exactly one shard; the merge enforces max_pairs. When the
// root expansion descended the second tree (one distinct item1), there is
// no item1 scatter and the wrapper runs one passthrough engine.
template <int Dim, typename Index = RTree<Dim>>
class ShardedDistanceSemiJoin : public ShardedDistanceJoin<Dim, Index> {
 public:
  ShardedDistanceSemiJoin(const Index& tree1, const Index& tree2,
                          const SemiJoinOptions& options,
                          JoinFilters<Dim> filters = JoinFilters<Dim>{})
      : ShardedDistanceJoin<Dim, Index>(
            tree1, tree2, SemiEngineOptions(options), std::move(filters),
            options.filter, options.bound) {
    if (!options.IsSemiJoin()) this->RejectOptions();
  }
};

// Sharded incremental within-distance join: the same option adapter as
// IncWithinJoin, over ShardedDistanceJoin. An Even join with a fixed range
// is always eligible, and the item2 scatter fallback applies when the root
// expansion descended the second tree.
template <int Dim, typename Index = RTree<Dim>>
class ShardedWithinJoin : public ShardedDistanceJoin<Dim, Index> {
 public:
  ShardedWithinJoin(const Index& tree1, const Index& tree2,
                    const WithinJoinOptions& options)
      : ShardedDistanceJoin<Dim, Index>(tree1, tree2,
                                        AsDistanceJoinOptions(options)) {}
};

}  // namespace sdj

#endif  // SDJOIN_CORE_SHARD_MERGE_H_
