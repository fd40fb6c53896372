// Reproduces Table 1: performance measures of the incremental distance join
// (depth-first tie-break, one node at a time, even traversal) producing 1 to
// 100,000 result pairs of Water x Roads.
//
// Paper values (Sun Ultra 1): time grows from 6.9s (1 pair) to 23.8s (100k),
// nearly flat between 10 and 10,000 pairs; queue size ~1.0M -> 2.2M; node
// I/O 3,019 -> 28,356. The shape — cheap first pair, flat middle, sharp rise
// at 100k — is the reproduction target.
#include <benchmark/benchmark.h>

#include <utility>

#include "bench_common.h"
#include "core/distance_join.h"
#include "core/shard_merge.h"
#include "core/within_join.h"

namespace sdj::bench {
namespace {

void RunJoin(benchmark::State& state, uint64_t pairs,
             const DistanceJoinOptions& options, const std::string& series) {
  for (auto _ : state) {
    ColdCaches();
    // Fresh per-iteration sink; detached from the shared pools before it
    // goes out of scope. SDJ_BENCH_METRICS=0 reverts to the uninstrumented
    // run (for overhead measurements).
    obs::Metrics metrics;
    DistanceJoinOptions run_options = options;
    if (MetricsEnabled()) {
      run_options.metrics = &metrics;
      WaterTree().pool().SetMetrics(&metrics);
      RoadsTree().pool().SetMetrics(&metrics);
    }
    WallTimer timer;
    DistanceJoin<2> join(WaterTree(), RoadsTree(), run_options);
    JoinResult<2> result;
    uint64_t produced = 0;
    while (produced < pairs && join.Next(&result)) ++produced;
    const double seconds = timer.Seconds();
    if (MetricsEnabled()) {
      WaterTree().pool().SetMetrics(nullptr);
      RoadsTree().pool().SetMetrics(nullptr);
    }
    state.SetIterationTime(seconds);
    const JoinStats& stats = join.stats();
    state.counters["dist_calc"] = static_cast<double>(stats.object_distance_calcs);
    state.counters["queue_size"] = static_cast<double>(stats.max_queue_size);
    state.counters["node_io"] = static_cast<double>(stats.node_io);
    AddRow({series, produced, seconds, stats, "", run_options.num_threads,
            metrics.Summary()});
  }
}

// Sharded series (DESIGN.md §18): the same drain through K independent
// shard engines behind the k-way frontier merge. The pair stream (and thus
// the result columns) is bit-identical to the serial run; Node I/O may move
// because shards pull pages in merge order, not global traversal order.
void RunShardedJoin(benchmark::State& state, uint64_t pairs,
                    const DistanceJoinOptions& options,
                    const std::string& series) {
  for (auto _ : state) {
    ColdCaches();
    obs::Metrics metrics;
    DistanceJoinOptions run_options = options;
    if (MetricsEnabled()) {
      run_options.metrics = &metrics;
      WaterTree().pool().SetMetrics(&metrics);
      RoadsTree().pool().SetMetrics(&metrics);
    }
    WallTimer timer;
    ShardedDistanceJoin<2> join(WaterTree(), RoadsTree(), run_options);
    JoinResult<2> result;
    uint64_t produced = 0;
    while (produced < pairs && join.Next(&result)) ++produced;
    const double seconds = timer.Seconds();
    if (MetricsEnabled()) {
      WaterTree().pool().SetMetrics(nullptr);
      RoadsTree().pool().SetMetrics(nullptr);
    }
    state.SetIterationTime(seconds);
    const JoinStats& stats = join.stats();
    state.counters["dist_calc"] = static_cast<double>(stats.object_distance_calcs);
    state.counters["queue_size"] = static_cast<double>(stats.max_queue_size);
    state.counters["node_io"] = static_cast<double>(stats.node_io);
    Row row{series, produced, seconds, stats, "", run_options.num_threads,
            metrics.Summary()};
    row.shards = join.effective_shards();
    row.shard_merge_pops = join.shard_merge_pops();
    for (const JoinStats& shard : join.shard_stats()) {
      row.shard_expansions.push_back(shard.nodes_expanded);
    }
    AddRow(row);
  }
}

// Within-distance series: drain IncWithinJoin at eps = the distance of join
// pair #k, so the result count (and the work) tracks the Table 1 rows it sits
// next to. Exercises the shared best-first core through its newest policy.
void RunWithin(benchmark::State& state, uint64_t k, const std::string& series) {
  const double eps = JoinDistanceAt(k);
  for (auto _ : state) {
    ColdCaches();
    obs::Metrics metrics;
    WithinJoinOptions options;
    options.epsilon = eps;
    if (MetricsEnabled()) {
      options.metrics = &metrics;
      WaterTree().pool().SetMetrics(&metrics);
      RoadsTree().pool().SetMetrics(&metrics);
    }
    WallTimer timer;
    IncWithinJoin<2> join(WaterTree(), RoadsTree(), options);
    JoinResult<2> result;
    uint64_t produced = 0;
    while (join.Next(&result)) ++produced;
    const double seconds = timer.Seconds();
    if (MetricsEnabled()) {
      WaterTree().pool().SetMetrics(nullptr);
      RoadsTree().pool().SetMetrics(nullptr);
    }
    state.SetIterationTime(seconds);
    const JoinStats& stats = join.stats();
    state.counters["dist_calc"] = static_cast<double>(stats.object_distance_calcs);
    state.counters["queue_size"] = static_cast<double>(stats.max_queue_size);
    state.counters["node_io"] = static_cast<double>(stats.node_io);
    AddRow({series, produced, seconds, stats, "", options.num_threads,
            metrics.Summary()});
  }
}

void RegisterAll() {
  for (uint64_t k : {1ull, 10ull, 100ull, 1000ull, 10000ull, 100000ull}) {
    const uint64_t pairs = ScaledPairs(k);
    benchmark::RegisterBenchmark(
        ("Table1/pairs:" + std::to_string(pairs)).c_str(),
        [pairs](benchmark::State& state) {
          RunJoin(state, pairs, DistanceJoinOptions{},  // Even/DepthFirst
                  "Even/DepthFirst");
        })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  // Threads sweep on the Simultaneous policy, whose fan-out^2 expansions are
  // where the sharded classify applies (DESIGN.md §10). The result columns
  // and Node I/O must be identical across thread counts — only the wall
  // clock may move.
  const uint64_t pairs = ScaledPairs(100000ull);
  for (const int threads : {1, 2, 4}) {
    benchmark::RegisterBenchmark(
        ("Table1/simultaneous_threads:" + std::to_string(threads)).c_str(),
        [pairs, threads](benchmark::State& state) {
          DistanceJoinOptions options;
          options.node_policy = NodeProcessingPolicy::kSimultaneous;
          options.num_threads = threads;
          RunJoin(state, pairs, options,
                  "Simultaneous/t=" + std::to_string(threads));
        })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  // Sharded grid (shards x threads) on the same Simultaneous drain: shard-
  // level parallelism vs the classify-only rows above at equal thread
  // budget (s=4,t=1 and s=2,t=2 vs t=4; s=4,t=2 shows the combined headroom).
  for (const auto& [shards, threads] :
       {std::pair<int, int>{2, 1}, {2, 2}, {4, 1}, {4, 2}}) {
    benchmark::RegisterBenchmark(
        ("Table1/sharded_s" + std::to_string(shards) + "_t" +
         std::to_string(threads))
            .c_str(),
        [pairs, shards, threads](benchmark::State& state) {
          DistanceJoinOptions options;
          options.node_policy = NodeProcessingPolicy::kSimultaneous;
          options.num_threads = threads;
          options.shards = shards;
          RunShardedJoin(state, pairs, options,
                         "Sharded/s=" + std::to_string(shards) +
                             ",t=" + std::to_string(threads));
        })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  // Within-distance join at the 1k- and 100k-pair distance cutoffs.
  for (uint64_t k : {1000ull, 100000ull}) {
    const uint64_t scaled = ScaledPairs(k);
    benchmark::RegisterBenchmark(
        ("Table1/within:" + std::to_string(scaled)).c_str(),
        [scaled, k](benchmark::State& state) {
          RunWithin(state, scaled, "Within/eps@" + std::to_string(k));
        })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace sdj::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  sdj::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  sdj::bench::PrintTable(
      "Table 1: incremental distance join, Even/DepthFirst, Water x Roads");
  return 0;
}
