// Checkpoint-overhead sweep for the durable join cursor (DESIGN.md §11):
// drains the same Water x Roads pair budget through a JoinCursor with
// checkpoint intervals from "never" down to "every 100 pairs", plus one
// suspend-at-midpoint/resume run. The no-checkpoint row is the baseline; the
// gap to each interval row is the cost of durability at that granularity.
//
// Expectation: snapshot cost grows with queue size (every checkpoint encodes,
// checksums, writes and syncs the whole queue) while the join itself is flat
// in between — coarse intervals should be nearly free. Each row's metrics
// block splits the cursor's cost into snapshot_encode, snapshot_commit (with
// its two snapshot_sync calls), and, for the resume row, snapshot_read and
// restore (DESIGN.md §12).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/distance_join.h"
#include "core/join_cursor.h"
#include "obs/metrics.h"
#include "util/stop_token.h"

namespace sdj::bench {
namespace {

std::string SnapshotPath() {
  return "bench_checkpoint.snap";
}

// Drains `pairs` pairs through a cursor that checkpoints every
// `checkpoint_every` reported pairs (0 = never).
void RunCheckpointed(benchmark::State& state, uint64_t pairs,
                     uint64_t checkpoint_every, const std::string& series) {
  for (auto _ : state) {
    ColdCaches();
    std::remove(SnapshotPath().c_str());
    obs::Metrics metrics;
    WallTimer timer;
    DistanceJoin<2> join(WaterTree(), RoadsTree(), DistanceJoinOptions{});
    CursorOptions cursor_options;
    cursor_options.snapshot_path = SnapshotPath();
    cursor_options.checkpoint_every = checkpoint_every;
    if (MetricsEnabled()) cursor_options.metrics = &metrics;
    JoinCursor<2, DistanceJoin<2>> cursor(&join, cursor_options);
    JoinResult<2> result;
    uint64_t produced = 0;
    while (produced < pairs && cursor.Next(&result)) ++produced;
    const double seconds = timer.Seconds();
    state.SetIterationTime(seconds);
    state.counters["checkpoints"] =
        static_cast<double>(cursor.cursor_stats().checkpoints_written);
    AddRow({series, produced, seconds, join.stats(),
            "ckpts=" + std::to_string(cursor.cursor_stats().checkpoints_written),
            1, metrics.Summary()});
  }
  std::remove(SnapshotPath().c_str());
}

// Suspends at the midpoint, tears everything down, then resumes from the
// snapshot and drains the rest — the end-to-end durability round trip.
void RunSuspendResume(benchmark::State& state, uint64_t pairs,
                      const std::string& series) {
  for (auto _ : state) {
    ColdCaches();
    std::remove(SnapshotPath().c_str());
    obs::Metrics metrics;
    WallTimer timer;
    uint64_t produced = 0;
    {
      util::StopSource stop;
      DistanceJoinOptions options;
      options.stop_token = stop.token();
      DistanceJoin<2> join(WaterTree(), RoadsTree(), options);
      CursorOptions cursor_options;
      cursor_options.snapshot_path = SnapshotPath();
      if (MetricsEnabled()) cursor_options.metrics = &metrics;
      JoinCursor<2, DistanceJoin<2>> cursor(&join, cursor_options);
      JoinResult<2> result;
      while (produced < pairs / 2 && cursor.Next(&result)) ++produced;
      stop.RequestStop();
      while (cursor.Next(&result)) ++produced;  // runs to the safe point
    }
    JoinStats stats;
    {
      DistanceJoin<2> join(WaterTree(), RoadsTree(), DistanceJoinOptions{});
      CursorOptions cursor_options;
      cursor_options.snapshot_path = SnapshotPath();
      if (MetricsEnabled()) cursor_options.metrics = &metrics;
      JoinCursor<2, DistanceJoin<2>> cursor(&join, cursor_options);
      const bool resumed = cursor.ResumeLatest();
      JoinResult<2> result;
      while (produced < pairs && cursor.Next(&result)) ++produced;
      stats = join.stats();
      stats.pairs_reported = produced;  // report the combined run's total
      state.counters["resumed"] = resumed ? 1 : 0;
    }
    const double seconds = timer.Seconds();
    state.SetIterationTime(seconds);
    AddRow({series, produced, seconds, stats, "suspend@50%+resume", 1,
            metrics.Summary()});
  }
  std::remove(SnapshotPath().c_str());
}

void RegisterAll() {
  const uint64_t pairs = ScaledPairs(100000ull);
  // Intervals below ~10k pairs serialize the ~2M-entry queue so often that
  // checkpointing dominates the run; the sweep stops where the trend is clear.
  for (const uint64_t every : {0ull, 50000ull, 10000ull}) {
    const uint64_t scaled_every = every == 0 ? 0 : ScaledPairs(every);
    const std::string series =
        every == 0 ? "NoCheckpoint"
                   : "Every" + std::to_string(scaled_every);
    benchmark::RegisterBenchmark(
        ("Checkpoint/every:" + std::to_string(scaled_every)).c_str(),
        [pairs, scaled_every, series](benchmark::State& state) {
          RunCheckpointed(state, pairs, scaled_every, series);
        })
        ->Iterations(1)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark(
      "Checkpoint/suspend_resume",
      [pairs](benchmark::State& state) {
        RunSuspendResume(state, pairs, "SuspendResume");
      })
      ->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
}

}  // namespace
}  // namespace sdj::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  sdj::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  sdj::bench::PrintTable(
      "Checkpoint overhead: durable cursor vs plain join, Water x Roads");
  return 0;
}
