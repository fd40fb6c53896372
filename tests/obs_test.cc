// Tests for the observability layer (DESIGN.md §12): latency histograms,
// merge determinism, PhaseTimer, the Chrome-trace sink, and the engine
// determinism contract (metrics must never change the pair stream, and
// parallel runs must record the serial run's event counts).
#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance_join.h"
#include "join_test_util.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace sdj {
namespace {

using obs::HistogramSummary;
using obs::LatencyHistogram;
using obs::Metrics;
using obs::MetricsSummary;
using obs::Op;
using obs::PhaseTimer;
using obs::TraceSink;

TEST(LatencyHistogram, EmptySummaryIsAllZero) {
  LatencyHistogram h;
  const HistogramSummary s = h.Summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.total_ns, 0u);
  EXPECT_EQ(s.p50_ns, 0u);
  EXPECT_EQ(s.p95_ns, 0u);
  EXPECT_EQ(s.p99_ns, 0u);
  EXPECT_EQ(s.max_ns, 0u);
}

TEST(LatencyHistogram, BasicCountsAndBounds) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(1);
  h.Record(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.total_ns(), 1001u);
  EXPECT_EQ(h.max_ns(), 1000u);
  const HistogramSummary s = h.Summary();
  // Percentiles are bucket upper bounds capped at the exact max: the p50
  // element (rank 2) is the 1-ns recording, whose bucket tops out at 1.
  EXPECT_EQ(s.p50_ns, 1u);
  EXPECT_EQ(s.p99_ns, 1000u);  // capped at max, not bucket upper 1023
  EXPECT_EQ(s.max_ns, 1000u);
}

TEST(LatencyHistogram, SingleValuePercentilesEqualThatValue) {
  LatencyHistogram h;
  h.Record(12345);
  const HistogramSummary s = h.Summary();
  EXPECT_EQ(s.p50_ns, 12345u);
  EXPECT_EQ(s.p95_ns, 12345u);
  EXPECT_EQ(s.p99_ns, 12345u);
  EXPECT_EQ(s.max_ns, 12345u);
}

TEST(LatencyHistogram, MergeIsOrderIndependent) {
  // The same recordings, sharded two different ways and merged in two
  // different orders, must produce bit-identical summaries — this is what
  // lets a parallel engine merge per-worker histograms deterministically.
  Rng rng(42);
  std::vector<uint64_t> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(rng.NextBounded(1u << 20));
  }
  LatencyHistogram serial;
  for (uint64_t v : values) serial.Record(v);

  LatencyHistogram shards[4];
  for (size_t i = 0; i < values.size(); ++i) {
    shards[i % 4].Record(values[i]);
  }
  LatencyHistogram forward;
  for (int i = 0; i < 4; ++i) forward.MergeFrom(shards[i]);
  LatencyHistogram backward;
  for (int i = 3; i >= 0; --i) backward.MergeFrom(shards[i]);

  const HistogramSummary a = serial.Summary();
  const HistogramSummary b = forward.Summary();
  const HistogramSummary c = backward.Summary();
  for (const HistogramSummary* s : {&b, &c}) {
    EXPECT_EQ(s->count, a.count);
    EXPECT_EQ(s->total_ns, a.total_ns);
    EXPECT_EQ(s->p50_ns, a.p50_ns);
    EXPECT_EQ(s->p95_ns, a.p95_ns);
    EXPECT_EQ(s->p99_ns, a.p99_ns);
    EXPECT_EQ(s->max_ns, a.max_ns);
  }
}

TEST(LatencyHistogram, ConcurrentRecordMatchesSerial) {
  Rng rng(7);
  std::vector<uint64_t> values;
  for (int i = 0; i < 40000; ++i) {
    values.push_back(rng.NextBounded(1u << 24));
  }
  LatencyHistogram serial;
  for (uint64_t v : values) serial.Record(v);

  LatencyHistogram concurrent;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&concurrent, &values, t] {
      for (size_t i = t; i < values.size(); i += 4) {
        concurrent.Record(values[i]);
      }
    });
  }
  for (auto& th : threads) th.join();

  const HistogramSummary a = serial.Summary();
  const HistogramSummary b = concurrent.Summary();
  EXPECT_EQ(b.count, a.count);
  EXPECT_EQ(b.total_ns, a.total_ns);
  EXPECT_EQ(b.p50_ns, a.p50_ns);
  EXPECT_EQ(b.p95_ns, a.p95_ns);
  EXPECT_EQ(b.p99_ns, a.p99_ns);
  EXPECT_EQ(b.max_ns, a.max_ns);
}

TEST(PhaseTimer, NullMetricsIsANoOp) {
  PhaseTimer timer(nullptr, Op::kExpansion);
  timer.Stop();  // must not crash; also exercises idempotent Stop
}

TEST(PhaseTimer, RecordsExactlyOnce) {
  Metrics metrics;
  {
    PhaseTimer timer(&metrics, Op::kRefill);
    timer.Stop();
    timer.Stop();  // idempotent
  }                // destructor must not double-record
  EXPECT_EQ(metrics.hist(Op::kRefill).count(), 1u);
  EXPECT_EQ(metrics.hist(Op::kExpansion).count(), 0u);
}

TEST(PhaseTimer, FeedsTraceSink) {
  TraceSink sink;
  Metrics metrics;
  metrics.set_trace(&sink);
  { PhaseTimer timer(&metrics, Op::kSpill); }
  { PhaseTimer timer(&metrics, Op::kCheckpoint); }
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, BoundedBufferCountsDrops) {
  TraceSink sink(/*max_events=*/2);
  sink.AddComplete("a", 0, 10);
  sink.AddComplete("b", 10, 10);
  sink.AddComplete("c", 20, 10);
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.dropped(), 1u);
}

TEST(TraceSink, WriteJsonEmitsChromeTraceSchema) {
  TraceSink sink;
  const uint64_t now = obs::MonotonicNowNs();
  sink.AddComplete("expansion", now, 1500);
  sink.AddComplete("page_read", now + 2000, 800);
  const std::string path = ::testing::TempDir() + "/sdj_trace_test.json";
  ASSERT_TRUE(sink.WriteJson(path));

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);

  // The keys chrome://tracing / Perfetto require of a JSON-object trace.
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(content.find("\"name\": \"expansion\""), std::string::npos);
  EXPECT_NE(content.find("\"name\": \"page_read\""), std::string::npos);
  EXPECT_NE(content.find("\"dropped_events\": 0"), std::string::npos);
  EXPECT_NE(content.find("\"ts\": "), std::string::npos);
  EXPECT_NE(content.find("\"dur\": "), std::string::npos);
  // Exactly two events: one comma-separated pair, no trailing comma.
  EXPECT_EQ(std::count(content.begin(), content.end(), '{'),
            4);  // root, otherData, two events
}

// --- engine integration: metrics must never change the join's output ---

std::vector<Point<2>> RandomPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point<2>> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    points.push_back({rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)});
  }
  return points;
}

struct JoinRun {
  std::vector<JoinResult<2>> pairs;
  JoinStats stats;
  MetricsSummary metrics;
};

JoinRun RunJoin(const RTree<2>& a, const RTree<2>& b, int threads,
                bool with_metrics) {
  Metrics metrics;
  DistanceJoinOptions options;
  options.node_policy = NodeProcessingPolicy::kSimultaneous;
  options.num_threads = threads;
  options.max_pairs = 3000;
  if (with_metrics) options.metrics = &metrics;
  DistanceJoin<2> join(a, b, options);
  JoinRun run;
  JoinResult<2> pair;
  while (join.Next(&pair)) run.pairs.push_back(pair);
  run.stats = join.stats();
  run.metrics = metrics.Summary();
  return run;
}

void ExpectSameStream(const JoinRun& a, const JoinRun& b) {
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (size_t i = 0; i < a.pairs.size(); ++i) {
    EXPECT_EQ(a.pairs[i].id1, b.pairs[i].id1) << "pair " << i;
    EXPECT_EQ(a.pairs[i].id2, b.pairs[i].id2) << "pair " << i;
    EXPECT_DOUBLE_EQ(a.pairs[i].distance, b.pairs[i].distance) << "pair " << i;
  }
}

TEST(ObsEngine, MetricsDoNotChangeThePairStreamOrStats) {
  const RTree<2> ta = test::BuildPointTree(RandomPoints(600, 1));
  const RTree<2> tb = test::BuildPointTree(RandomPoints(600, 2));
  const JoinRun off = RunJoin(ta, tb, 1, /*with_metrics=*/false);
  const JoinRun on = RunJoin(ta, tb, 1, /*with_metrics=*/true);
  ExpectSameStream(off, on);
  EXPECT_EQ(off.stats.node_io, on.stats.node_io);
  EXPECT_EQ(off.stats.queue_pushes, on.stats.queue_pushes);
  EXPECT_GT(on.metrics.of(Op::kExpansion).count, 0u);
  EXPECT_EQ(off.metrics.of(Op::kExpansion).count, 0u);
}

TEST(ObsEngine, ParallelRunRecordsSerialEventCounts) {
  // The determinism contract: a parallel run's pair stream, stats, and
  // *recorded event counts* are identical to the serial run's (durations of
  // course differ). Workers never hold timers — only the caller's serial
  // path records — so the histogram counts must match exactly.
  const RTree<2> ta = test::BuildPointTree(RandomPoints(600, 3));
  const RTree<2> tb = test::BuildPointTree(RandomPoints(600, 4));
  const JoinRun serial = RunJoin(ta, tb, 1, /*with_metrics=*/true);
  const JoinRun parallel = RunJoin(ta, tb, 4, /*with_metrics=*/true);
  ExpectSameStream(serial, parallel);
  EXPECT_EQ(serial.stats.node_io, parallel.stats.node_io);
  EXPECT_EQ(serial.stats.nodes_expanded, parallel.stats.nodes_expanded);
  EXPECT_EQ(serial.stats.queue_pushes, parallel.stats.queue_pushes);
  for (int i = 0; i < obs::kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    EXPECT_EQ(serial.metrics.of(op).count, parallel.metrics.of(op).count)
        << obs::OpName(op);
  }
  EXPECT_GT(serial.metrics.of(Op::kExpansion).count, 0u);
}

}  // namespace
}  // namespace sdj
