// Zero-cost-when-disabled metrics layer (DESIGN.md §12).
//
// A Metrics object owns one log-scale LatencyHistogram per instrumented
// operation (Op) plus an optional TraceSink. Engines, the hybrid queue, the
// buffer pool, and the snapshot store each hold a `Metrics*` that defaults
// to null; every instrumentation point is a PhaseTimer whose entire disabled
// cost is one null-pointer test — no clock read, no atomic, no allocation.
//
// Determinism contract (CLAUDE.md): recorded *durations* are wall-clock and
// therefore vary run to run, but event *counts* are part of the
// deterministic output — a parallel (num_threads > 1) run must record
// exactly the serial run's counts. Workers never hold timers; every
// instrumented phase runs on the caller's serial path or inside the
// (serially driven) storage layer. Histogram merging is bucket-wise addition, so
// summaries are independent of merge order.
#ifndef SDJOIN_OBS_METRICS_H_
#define SDJOIN_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>

#include "obs/trace.h"

namespace sdj::obs {

// Instrumented operations. The first group are engine phases (scoped
// PhaseTimers around whole steps); the second are storage-layer operations;
// the third are serving-layer phases (DESIGN.md §14), recorded into both the
// manager-wide sink and the owning session's sink.
enum class Op : uint8_t {
  kExpansion = 0,   // engine: expand one queue entry into child pairs
  kPop,             // engine: pop the next entry off the priority queue
  kRefill,          // hybrid queue: heap ran dry, tier migration stall
  kSpill,           // hybrid queue: push one entry to the disk tier
  kCheckpoint,      // cursor: SaveState + snapshot commit
  kRestore,         // cursor: read snapshot + RestoreState
  kSnapshotCommit,  // snapshot store: shadow-paged WriteSnapshot
  kPageRead,        // buffer pool: physical page read (incl. retries)
  kPageWrite,       // buffer pool: physical page write (incl. retries)
  kPageSync,        // buffer pool: file sync
  kServeSlice,      // session manager: one Next() slice of one session
  kSessionEvict,    // session manager: checkpoint + drop a session's engine
  kSessionRehydrate,  // session manager: rebuild + restore an evicted session
  kSnapshotEncode,  // cursor: SaveState into the snapshot blob
  kSnapshotSync,    // snapshot store: one of the two syncs of a commit
  kSnapshotRead,    // snapshot store: read + verify a snapshot (all probes)
};
inline constexpr int kNumOps = 16;

inline const char* OpName(Op op) {
  switch (op) {
    case Op::kExpansion:      return "expansion";
    case Op::kPop:            return "pop";
    case Op::kRefill:         return "refill";
    case Op::kSpill:          return "spill";
    case Op::kCheckpoint:     return "checkpoint";
    case Op::kRestore:        return "restore";
    case Op::kSnapshotCommit: return "snapshot_commit";
    case Op::kPageRead:       return "page_read";
    case Op::kPageWrite:      return "page_write";
    case Op::kPageSync:       return "page_sync";
    case Op::kServeSlice:     return "serve_slice";
    case Op::kSessionEvict:   return "session_evict";
    case Op::kSessionRehydrate: return "session_rehydrate";
    case Op::kSnapshotEncode: return "snapshot_encode";
    case Op::kSnapshotSync:   return "snapshot_sync";
    case Op::kSnapshotRead:   return "snapshot_read";
  }
  return "unknown";
}

// Plain-value percentile summary of one histogram. Percentiles are bucket
// upper bounds (capped at the exact observed max), so they are conservative
// and — because bucket counts add commutatively — identical however the
// underlying recordings were sharded and merged.
struct HistogramSummary {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t p50_ns = 0;
  uint64_t p95_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t max_ns = 0;
};

// Log-scale (power-of-two buckets) latency histogram. Record() is lock-free
// and safe to call concurrently (the buffer pool records under multi-thread
// pins); all counters are relaxed atomics, mirroring AtomicIoStats.
class LatencyHistogram {
 public:
  // Bucket b holds durations with bit width b: [2^(b-1), 2^b). Bucket 0 is
  // exactly 0 ns; the last bucket absorbs everything >= ~2^46 ns (~20h).
  static constexpr int kNumBuckets = 48;

  void Record(uint64_t ns) {
    buckets_[BucketOf(ns)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    uint64_t prev = max_ns_.load(std::memory_order_relaxed);
    while (ns > prev && !max_ns_.compare_exchange_weak(
                            prev, ns, std::memory_order_relaxed)) {
    }
  }

  // Bucket-wise addition; commutative and associative, so merge order never
  // changes the resulting Summary().
  void MergeFrom(const LatencyHistogram& other) {
    for (int b = 0; b < kNumBuckets; ++b) {
      buckets_[b].fetch_add(other.buckets_[b].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
    }
    count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    total_ns_.fetch_add(other.total_ns_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    const uint64_t other_max = other.max_ns_.load(std::memory_order_relaxed);
    uint64_t prev = max_ns_.load(std::memory_order_relaxed);
    while (other_max > prev && !max_ns_.compare_exchange_weak(
                                   prev, other_max,
                                   std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t total_ns() const {
    return total_ns_.load(std::memory_order_relaxed);
  }
  uint64_t max_ns() const { return max_ns_.load(std::memory_order_relaxed); }

  HistogramSummary Summary() const {
    HistogramSummary s;
    uint64_t buckets[kNumBuckets];
    for (int b = 0; b < kNumBuckets; ++b) {
      buckets[b] = buckets_[b].load(std::memory_order_relaxed);
      s.count += buckets[b];
    }
    s.total_ns = total_ns();
    s.max_ns = max_ns();
    s.p50_ns = Percentile(buckets, s.count, s.max_ns, 0.50);
    s.p95_ns = Percentile(buckets, s.count, s.max_ns, 0.95);
    s.p99_ns = Percentile(buckets, s.count, s.max_ns, 0.99);
    return s;
  }

 private:
  static int BucketOf(uint64_t ns) {
    const int width = std::bit_width(ns);
    return width < kNumBuckets ? width : kNumBuckets - 1;
  }

  // Upper bound of bucket b (inclusive): 0 for bucket 0, else 2^b - 1.
  static uint64_t BucketUpperNs(int b) {
    return b == 0 ? 0 : (uint64_t{1} << b) - 1;
  }

  static uint64_t Percentile(const uint64_t* buckets, uint64_t count,
                             uint64_t max_ns, double p) {
    if (count == 0) return 0;
    // Rank of the percentile element (1-based, nearest-rank definition:
    // ceil(p * count), so p99 of 3 samples is the max).
    uint64_t rank =
        static_cast<uint64_t>(std::ceil(p * static_cast<double>(count)));
    if (rank < 1) rank = 1;
    if (rank > count) rank = count;
    uint64_t cumulative = 0;
    for (int b = 0; b < kNumBuckets; ++b) {
      cumulative += buckets[b];
      if (cumulative >= rank) {
        const uint64_t upper = BucketUpperNs(b);
        return upper < max_ns ? upper : max_ns;
      }
    }
    return max_ns;
  }

  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> total_ns_{0};
  std::atomic<uint64_t> max_ns_{0};
};

// Plain-value snapshot of a whole Metrics object (copyable; benches embed it
// in their result rows).
struct MetricsSummary {
  HistogramSummary op[kNumOps];

  const HistogramSummary& of(Op o) const {
    return op[static_cast<int>(o)];
  }
};

// One histogram per Op plus an optional trace sink. Not copyable (atomics);
// share by pointer. The trace pointer must be set before instrumented code
// runs and the sink must outlive every component holding this Metrics.
class Metrics {
 public:
  LatencyHistogram& hist(Op o) { return hists_[static_cast<int>(o)]; }
  const LatencyHistogram& hist(Op o) const {
    return hists_[static_cast<int>(o)];
  }

  void set_trace(TraceSink* sink) { trace_ = sink; }
  TraceSink* trace() const { return trace_; }

  void MergeFrom(const Metrics& other) {
    for (int i = 0; i < kNumOps; ++i) hists_[i].MergeFrom(other.hists_[i]);
  }

  MetricsSummary Summary() const {
    MetricsSummary s;
    for (int i = 0; i < kNumOps; ++i) s.op[i] = hists_[i].Summary();
    return s;
  }

 private:
  LatencyHistogram hists_[kNumOps];
  TraceSink* trace_ = nullptr;
};

// Pop sampling. Pops outnumber every other instrumented phase by an order
// of magnitude and take single-digit microseconds each, so timing all of
// them costs more than the latency distribution is worth: the histogram
// samples every 16th pop instead. A trace sink disables sampling — a
// timeline with 15/16 of its pops missing would violate the phase-coverage
// property (§12). Keyed on the engine's pop sequence number (not a random
// draw), so histogram counts stay deterministic and serial/parallel runs
// record identical counts.
inline constexpr uint64_t kPopSampleMask = 15;

inline Metrics* PopSample(Metrics* metrics, uint64_t pop_seq) {
  if (metrics == nullptr) return nullptr;
  if (metrics->trace() == nullptr && (pop_seq & kPopSampleMask) != 0) {
    return nullptr;
  }
  return metrics;
}

// Scoped timer for one Op. With a null Metrics the constructor, Stop, and
// destructor each cost exactly one pointer test — the disabled-overhead
// contract of DESIGN.md §12. `also` (optional) receives the same histogram
// sample but no trace event: the serving layer times one phase into a
// session sink and the manager sink, which share one trace.
class PhaseTimer {
 public:
  PhaseTimer(Metrics* metrics, Op op, Metrics* also = nullptr)
      : metrics_(metrics), also_(also), op_(op) {
    if (metrics_ != nullptr) start_ns_ = MonotonicNowNs();
  }
  ~PhaseTimer() { Stop(); }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  // Records the elapsed time (idempotent; the destructor calls it too).
  void Stop() {
    if (metrics_ == nullptr) return;
    const uint64_t duration_ns = MonotonicNowNs() - start_ns_;
    metrics_->hist(op_).Record(duration_ns);
    if (also_ != nullptr) also_->hist(op_).Record(duration_ns);
    if (TraceSink* sink = metrics_->trace(); sink != nullptr) {
      sink->AddComplete(OpName(op_), start_ns_, duration_ns);
    }
    metrics_ = nullptr;
  }

 private:
  Metrics* metrics_;
  Metrics* const also_;
  const Op op_;
  uint64_t start_ns_ = 0;
};

}  // namespace sdj::obs

#endif  // SDJOIN_OBS_METRICS_H_
