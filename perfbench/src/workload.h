// The workload interface, and Drive(), which turns units of work into the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/distance_join.h"
#include "core/join_stats.h"
#include "core/within_join.h"
#include "harness.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "runner.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // scratch files, traces and self-time tables
};

// Inputs of the per-layer metrics, gathered over one traced unit.
struct LayerInputs {
  sdj::JoinStats stats;            // engine counters, summed over queries
  sdj::obs::MetricsSummary lib;    // library phase histograms (exact totals)
  IoTotals io;                     // durable writes and syncs
  double wall_s = 0.0;             // traced query time
  double cpu_s = 0.0;              // process CPU over that time
  uint64_t page_reads = 0;         // buffer-pool misses
  uint64_t page_accesses = 0;      // buffer-pool lookups
  // Serving / durable cursor (serve_evict only).
  uint64_t checkpoints = 0;
  uint64_t checkpoint_ns = 0;
  uint64_t commit_ns = 0;
  uint64_t restore_ns = 0;
  uint64_t evictions = 0;
  uint64_t rehydrations = 0;
  uint64_t yields = 0;
};

// One workload. A unit is a fixed, seed-determined batch of queries (or
// serving sessions); Drive() repeats units until the run's time is up.
class Workload {
 public:
  virtual ~Workload() = default;

  // Runs one unit, appending timings to `log`. A non-null `metrics` is the
  // traced configuration: attach it through the public options.
  virtual void RunUnit(QueryLog* log, sdj::obs::Metrics* metrics) = 0;
  // Checks the unit's outputs against the oracles (untimed); counts each
  // failed query in log->failed and explains it on stdout.
  virtual void CheckUnit(QueryLog* log) = 0;
  // Per-layer counters of the traced unit just run, beyond what Drive()
  // collects; checks that they reconcile with the engines' own stats.
  virtual void CollectLayers(const QueryLog& log, LayerInputs* in,
                             Report* report) = 0;
};

// Set-up facts Drive() reports.
struct SetupFacts {
  SetupTimes times;
  uint64_t tree_pages = 0;
  std::vector<Span> spans;
  uint64_t origin_ns = 0;  // time zero of the trace
};

// Runs units until `cfg.seconds` of query time have passed and reports the
// end-to-end metrics. Between units it repeats the set-up in child
// processes (RepeatSetUp), so setup_s is a median over the whole run. With
// cfg.trace, alternates untraced and traced units instead and reports the
// per-layer metrics of the first traced unit (and writes its Chrome trace
// and self-time table to cfg.out_dir).
void Drive(const RunConfig& cfg, const SetupFacts& setup, Workload* workload,
           Report* report);

// Checks one query's stream and counts a mismatch as a failed query.
void Expect(const std::string& diff, const char* what, QueryLog* log);

// Engine options with every knob an SDJ_* variable could override set
// explicitly (num_threads, shards, screen_codes, kernel_isa = the best ISA
// the CPU supports), Euclidean and depth-first unless changed.
sdj::DistanceJoinOptions JoinOptions(sdj::obs::Metrics* metrics);
sdj::WithinJoinOptions WithinOptions(double epsilon, sdj::obs::Metrics* metrics);

// CollectLayers for workloads that run one engine at a time: page reads
// come from the engines' node_io, and the traced page-read and pop events
// must equal the engines' node_io and queue_pops.
void CollectEngineLayers(const QueryLog& log, LayerInputs* in, Report* report);

// Each workload's set-up (what its instance is built from) and its
// constructor, which takes the built instance.
SetupParams JoinTopkSetup(const RunConfig& cfg);
std::unique_ptr<Workload> MakeJoinTopk(const RunConfig& cfg, Instance inst);
SetupParams SimultaneousParSetup(const RunConfig& cfg);
std::unique_ptr<Workload> MakeSimultaneousPar(const RunConfig& cfg,
                                              Instance inst);
SetupParams BoundedQuantizedSetup(const RunConfig& cfg);
std::unique_ptr<Workload> MakeBoundedQuantized(const RunConfig& cfg,
                                               Instance inst);
SetupParams ServeEvictSetup(const RunConfig& cfg);
std::unique_ptr<Workload> MakeServeEvict(const RunConfig& cfg, Instance inst);

// The harness self-test (percentiles, oracle sensitivity, failure counting).
int RunSelfTest(const std::string& out_dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
