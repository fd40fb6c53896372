// Performance counters for the incremental join algorithms, matching the
// measures the paper reports (Table 1: execution time, object distance
// calculations, maximum queue size, node I/O) plus diagnostics for the
// pruning machinery.
#ifndef SDJOIN_CORE_JOIN_STATS_H_
#define SDJOIN_CORE_JOIN_STATS_H_

#include <algorithm>
#include <cstdint>
#include <iterator>

namespace sdj {

// Cumulative counters over the lifetime of one join iterator.
struct JoinStats {
  uint64_t pairs_reported = 0;
  // Exact object-to-object distance computations (Table 1 "Dist. Calc.").
  uint64_t object_distance_calcs = 0;
  // All distance-function evaluations, including node-level MINDIST/MAXDIST.
  uint64_t total_distance_calcs = 0;
  uint64_t queue_pushes = 0;
  uint64_t queue_pops = 0;
  // Largest number of pairs simultaneously in the priority queue
  // (Table 1 "Queue Size").
  uint64_t max_queue_size = 0;
  // Buffer-pool misses on R-tree nodes during the join (Table 1 "Node I/O").
  uint64_t node_io = 0;
  // R-tree node accesses (buffer hits + misses).
  uint64_t node_accesses = 0;
  uint64_t nodes_expanded = 0;
  // Pairs rejected by the [Dmin, Dmax] range tests of Figure 5.
  uint64_t pruned_by_range = 0;
  // Pairs rejected by the estimated maximum distance (Section 2.2.4).
  uint64_t pruned_by_estimate = 0;
  // Pairs rejected by semi-join d_max bounds (Local/GlobalNodes/GlobalAll).
  uint64_t pruned_by_bound = 0;
  // Items rejected by selection windows / object predicates (JoinFilters).
  uint64_t pruned_by_filter = 0;
  // Pairs skipped because their first object was already reported
  // (semi-join Inside1/Inside2 filtering).
  uint64_t filtered_reported = 0;
  // Full restarts forced by over-aggressive maximum-distance estimation.
  uint64_t restarts = 0;
  // Page reads/writes re-issued after transient or checksum faults, across
  // both trees' pools (and recovered — retries that ran out surface as
  // JoinStatus::kIoError instead).
  uint64_t io_retries = 0;
  // Page reads that failed checksum verification (each is also retried).
  uint64_t checksum_failures = 0;
  // Hybrid-queue pushes that fell back to the in-memory overflow tier
  // because the disk tier could not accept them.
  uint64_t spill_fallbacks = 0;
  // Batched distance-kernel calls (geometry/rect_batch.h). Distance-calc
  // counters above keep their algorithmic meaning — they count the
  // computations the scalar engine would perform, whether a kernel or a
  // scalar call produced the value.
  uint64_t batch_kernel_invocations = 0;
  // Expansions whose child-pair scoring was sharded across worker threads
  // (num_threads > 1 and enough candidates to amortize the handoff).
  uint64_t parallel_expansions = 0;
  // Entries run through the integer code-screening stage on quantized pages
  // (DESIGN.md §17), and how many survived to be decoded. Screening only
  // removes entries the classify ladder would prune as out-of-range — the
  // pair stream and every counter above are identical with screening on or
  // off; these two are the only screening-dependent counters, so the golden
  // fixtures deliberately exclude them.
  uint64_t screened_candidates = 0;
  uint64_t screen_survivors = 0;

  // Folds another engine's counters into this one. Every counter is a sum
  // except max_queue_size: peaks on disjoint queues are concurrent, so the
  // fleet-wide peak is the max, not the total. This is the ONE aggregation
  // used everywhere (shard merge, bench reporting) — ad-hoc field sums have
  // already double-counted once and are banned by tests/shard_stream_test.cc.
  void MergeFrom(const JoinStats& other);
};

// How MergeFrom folds one counter.
enum class StatMerge : uint8_t { kSum, kMax };

// One JoinStats counter: its name, its member, and how it merges.
struct JoinStatField {
  const char* name;
  uint64_t JoinStats::*member;
  StatMerge merge;
};

// Every JoinStats counter, in struct order. The snapshot stats section
// (core/best_first.h), BENCH JSON "stats" blocks, MergeFrom and the test
// comparators all walk this table, so a counter is declared in the struct
// and listed here — nowhere else. The order is wire format: never reorder.
inline constexpr JoinStatField kJoinStatFields[] = {
    {"pairs_reported", &JoinStats::pairs_reported, StatMerge::kSum},
    {"object_distance_calcs", &JoinStats::object_distance_calcs,
     StatMerge::kSum},
    {"total_distance_calcs", &JoinStats::total_distance_calcs,
     StatMerge::kSum},
    {"queue_pushes", &JoinStats::queue_pushes, StatMerge::kSum},
    {"queue_pops", &JoinStats::queue_pops, StatMerge::kSum},
    {"max_queue_size", &JoinStats::max_queue_size, StatMerge::kMax},
    {"node_io", &JoinStats::node_io, StatMerge::kSum},
    {"node_accesses", &JoinStats::node_accesses, StatMerge::kSum},
    {"nodes_expanded", &JoinStats::nodes_expanded, StatMerge::kSum},
    {"pruned_by_range", &JoinStats::pruned_by_range, StatMerge::kSum},
    {"pruned_by_estimate", &JoinStats::pruned_by_estimate, StatMerge::kSum},
    {"pruned_by_bound", &JoinStats::pruned_by_bound, StatMerge::kSum},
    {"pruned_by_filter", &JoinStats::pruned_by_filter, StatMerge::kSum},
    {"filtered_reported", &JoinStats::filtered_reported, StatMerge::kSum},
    {"restarts", &JoinStats::restarts, StatMerge::kSum},
    {"io_retries", &JoinStats::io_retries, StatMerge::kSum},
    {"checksum_failures", &JoinStats::checksum_failures, StatMerge::kSum},
    {"spill_fallbacks", &JoinStats::spill_fallbacks, StatMerge::kSum},
    {"batch_kernel_invocations", &JoinStats::batch_kernel_invocations,
     StatMerge::kSum},
    {"parallel_expansions", &JoinStats::parallel_expansions, StatMerge::kSum},
    {"screened_candidates", &JoinStats::screened_candidates, StatMerge::kSum},
    {"screen_survivors", &JoinStats::screen_survivors, StatMerge::kSum},
};
static_assert(sizeof(JoinStats) ==
                  std::size(kJoinStatFields) * sizeof(uint64_t),
              "every JoinStats counter must be listed in kJoinStatFields");

inline void JoinStats::MergeFrom(const JoinStats& other) {
  for (const JoinStatField& f : kJoinStatFields) {
    uint64_t& mine = this->*f.member;
    const uint64_t theirs = other.*f.member;
    mine = f.merge == StatMerge::kMax ? std::max(mine, theirs)
                                      : mine + theirs;
  }
}

}  // namespace sdj

#endif  // SDJOIN_CORE_JOIN_STATS_H_
