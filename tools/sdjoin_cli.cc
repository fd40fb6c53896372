// Command-line front end for the sdjoin library.
//
//   sdjoin_cli gen      --out=pts.csv --n=10000 --kind=clustered [--seed=1]
//   sdjoin_cli join     --a=a.csv --b=b.csv [--k=100] [--max-distance=D]
//                       [--min-distance=D] [--metric=euclidean|manhattan|
//                       chessboard] [--policy=even|basic|simultaneous]
//                       [--reverse] [--estimate] [--threads=N] [--shards=N:
//                       partition the pair space into N independent engines
//                       behind a k-way frontier merge (DESIGN.md §18);
//                       output-identical, 0 = SDJ_SHARDS or 1 — also on
//                       semijoin and --within] [--print=10]
//                       [--kernel=auto|scalar|sse2|avx2|avx512: SIMD path
//                       for the distance kernels (DESIGN.md §15); every
//                       path is bit-identical, unsupported requests
//                       degrade — also on semijoin]
//                       [--within=EPS: within-distance join — every pair
//                       with distance <= EPS, ascending; the Even join with
//                       --max-distance=EPS, so it replaces the shaping
//                       flags above]
//                       [--inject-faults=<seed>] [--fault-read-rate=R]
//                       [--fault-write-rate=R] [--fault-bit-flip-rate=R]
//                       [--fault-hard-read-after=N]
//   sdjoin_cli semijoin --a=a.csv --b=b.csv [--k=...] [--bound=none|local|
//                       globalnodes|globalall] [--filter=outside|inside1|
//                       inside2] [--print=10]
//   sdjoin_cli nn       --a=a.csv --x=X --y=Y [--k=5]
//   sdjoin_cli stats    --a=a.csv
//   sdjoin_cli serve    --a=a.csv --b=b.csv [--sessions=4] [--batch=32]
//                       [--max-results=0] [--slice-us=0] [--budget-entries=N]
//                       [--state-dir=DIR] [--resume] [--checkpoint-every=N]
//                       [--suspend-after-rounds=N] [--snapshot-slots=2]
//                       [--inject-faults=<seed>] [--print=3]
//   sdjoin_cli scrub    --file=store.snap [--kind=snapshot|pages]
//                       [--page-size=4096] [--snapshot-slots=2]
//                       [--expect-pages=N] [--repair]
//                       (offline checksum/slot verification and repair —
//                       tools/scrub_command.h, DESIGN.md §16; also built
//                       standalone as sdjoin_scrub)
//
// serve multiplexes --sessions concurrent incremental traversals (rotating
// join / semi-join / Manhattan-join kinds) through one SessionManager
// (DESIGN.md §14), round-robin in --batch-result turns. --slice-us arms a
// deadline per Next(): a session that overruns yields (its stream is
// unchanged) and the driver rotates. --budget-entries caps resident
// pair-queue entries; exceeding it checkpoint-evicts the coldest sessions,
// which rehydrate transparently when the rotation returns. With
// --state-dir, sessions are crash-recoverable: --suspend-after-rounds
// checkpoints everything and exits 4, and a later run with --resume
// recovers the table and continues every session where it left off.
// --inject-faults here targets the snapshot stores and the session table
// (not the trees): transient faults are absorbed by bounded retries, and a
// session whose checkpoint cannot commit degrades to pinned-resident
// instead of failing. A failed session (exit 3) never disturbs the others.
//
// join and semijoin also accept durable-cursor flags (DESIGN.md §11):
//   --snapshot=<file>      snapshot store for checkpoints and resume
//   --checkpoint-every=N   checkpoint every N reported pairs (0 = only on
//                          suspension)
//   --suspend-after=N      suspend deterministically after N reported pairs
//   --max-seconds=S        suspend when the wall-clock deadline passes
//   --resume               load the newest valid snapshot before iterating
//
// and observability flags (DESIGN.md §12):
//   --metrics              print a per-phase latency table (expansion,
//                          refill, spill, checkpoint, page I/O) after the run
//   --trace=<file>         additionally write Chrome-trace JSON (load into
//                          chrome://tracing or https://ui.perfetto.dev);
//                          implies --metrics
//
// Flag interaction matrix (tested in tests/cli_test.cc):
//   --threads x --resume        the pair stream is output-identical for every
//                               thread count and the thread count is not part
//                               of the snapshot fingerprint, so a run
//                               suspended with --threads=1 may resume with
//                               --threads=4 and vice versa.
//   --inject-faults x --resume  fault injection covers the snapshot store as
//                               well as the trees: checkpoints that fail to
//                               commit are counted and the join continues
//                               under the previous snapshot; torn or corrupt
//                               slots are skipped on resume (fallback), and if
//                               no valid snapshot remains the join restarts
//                               from scratch with a warning.
//   --inject-faults x --threads parallel workers see the same retry/checksum
//                               recovery as the serial engine; a hard fault
//                               ends the run with an identical error-point
//                               prefix for any thread count.
// Exit codes: 0 = result exhausted, 1 = bad input, 2 = usage error,
// 3 = io-error (reported pairs are a valid prefix), 4 = suspended (snapshot
// committed; rerun with --resume to continue).
//
// Datasets are "x,y" CSV files (data/dataset_io.h); object ids are row
// numbers. Every command prints a short cost report (distance calculations,
// queue size, node I/O) alongside its results.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/distance_join.h"
#include "core/join_cursor.h"
#include "core/semi_join.h"
#include "core/shard_merge.h"
#include "data/dataset_io.h"
#include "data/generators.h"
#include "geometry/simd.h"
#include "nn/inc_nearest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtree/rtree.h"
#include "serve/erased_engine.h"
#include "serve/session_manager.h"
#include "storage/fault_injection.h"
#include "util/stop_token.h"

#include "scrub_command.h"

namespace {

using sdj::DistanceJoin;
using sdj::DistanceJoinOptions;
using sdj::DistanceSemiJoin;
using sdj::JoinResult;
using sdj::JoinStats;
using sdj::JoinStatus;
using sdj::Metric;
using sdj::Point;
using sdj::Rect;
using sdj::RTree;

// --key=value flag map; positional arguments are rejected.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg);
        ok_ = false;
        continue;
      }
      const char* eq = std::strchr(arg, '=');
      if (eq == nullptr) {
        values_[std::string(arg + 2)] = "true";
      } else {
        values_[std::string(arg + 2, eq)] = std::string(eq + 1);
      }
    }
  }

  bool ok() const { return ok_; }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }
  long GetLong(const std::string& key, long fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atol(it->second.c_str());
  }
  bool GetBool(const std::string& key) const {
    return Get(key, "") == "true";
  }
  bool Has(const std::string& key) const {
    return values_.find(key) != values_.end();
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
};

bool LoadRequired(const Flags& flags, const std::string& key,
                  std::vector<Point<2>>* points) {
  const std::string path = flags.Get(key, "");
  if (path.empty()) {
    std::fprintf(stderr, "missing required flag --%s=<csv>\n", key.c_str());
    return false;
  }
  if (!sdj::data::LoadPointsCsv(path, points)) {
    std::fprintf(stderr, "failed to load %s\n", path.c_str());
    return false;
  }
  return true;
}

RTree<2> IndexPoints(const std::vector<Point<2>>& points,
                     const sdj::RTreeOptions& options = sdj::RTreeOptions{}) {
  RTree<2> tree(options);
  std::vector<RTree<2>::Entry> entries;
  entries.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    entries.push_back({Rect<2>::FromPoint(points[i]), i});
  }
  tree.BulkLoad(std::move(entries));
  return tree;
}

// --inject-faults=<seed> turns on a deterministic fault schedule under both
// trees' page stores: transient read/write faults (recovered by buffer-pool
// retries) plus occasional bit flips (caught by page checksums and re-read).
// The finer-grained --fault-* flags override the default rates; a hard-fault
// schedule (--fault-hard-read-after=N) makes the join stop with io-error
// after a valid partial prefix.
bool ApplyFaultFlags(const Flags& flags, sdj::RTreeOptions* options) {
  const std::string seed = flags.Get("inject-faults", "");
  if (seed.empty()) return false;
  sdj::storage::FaultInjectionOptions faults;
  faults.seed = static_cast<uint64_t>(std::atoll(seed.c_str()));
  faults.transient_read_rate = flags.GetDouble("fault-read-rate", 0.01);
  faults.transient_write_rate = flags.GetDouble("fault-write-rate", 0.01);
  faults.bit_flip_read_rate = flags.GetDouble("fault-bit-flip-rate", 0.002);
  const long hard_read = flags.GetLong("fault-hard-read-after", -1);
  if (hard_read >= 0) {
    faults.hard_read_after = static_cast<uint64_t>(hard_read);
  }
  options->fault_injection = faults;
  // Shrink the buffer pool so the join actually performs physical I/O;
  // otherwise the whole tree stays cached and the injector never fires.
  options->buffer_pages = static_cast<uint32_t>(flags.GetLong("buffer", 16));
  return true;
}

void PrintFaultCounters(const char* label,
                        const sdj::storage::FaultInjectingPageFile* injector) {
  if (injector == nullptr) return;
  const sdj::storage::FaultCounters& c = injector->counters();
  std::printf(
      "# faults[%s]: %llu reads, %llu writes, %llu transient-read, "
      "%llu transient-write, %llu hard-read, %llu bit-flips\n",
      label, static_cast<unsigned long long>(c.reads),
      static_cast<unsigned long long>(c.writes),
      static_cast<unsigned long long>(c.transient_read_faults),
      static_cast<unsigned long long>(c.transient_write_faults),
      static_cast<unsigned long long>(c.hard_read_faults),
      static_cast<unsigned long long>(c.bit_flips));
}

// --metrics / --trace=FILE plumbing (DESIGN.md §12). One Metrics sink covers
// the engine, both trees' buffer pools, the hybrid queue, and the snapshot
// store; --trace additionally records each timed phase as a Chrome-trace
// complete event.
struct ObsSetup {
  bool enabled = false;
  std::string trace_path;
  sdj::obs::TraceSink sink;
  sdj::obs::Metrics metrics;

  void Init(const Flags& flags) {
    trace_path = flags.Get("trace", "");
    enabled = flags.GetBool("metrics") || !trace_path.empty();
    if (!trace_path.empty()) metrics.set_trace(&sink);
  }

  // Null when disabled, so instrumented code pays only a pointer test.
  sdj::obs::Metrics* get() { return enabled ? &metrics : nullptr; }

  // Prints the per-phase latency table and writes the trace file. Returns
  // false if the trace file could not be written.
  bool Finish() {
    if (!enabled) return true;
    const sdj::obs::MetricsSummary summary = metrics.Summary();
    std::printf(
        "# phase            count   total_ms    p50_us    p95_us    p99_us"
        "    max_us\n");
    for (int i = 0; i < sdj::obs::kNumOps; ++i) {
      const sdj::obs::Op op = static_cast<sdj::obs::Op>(i);
      const sdj::obs::HistogramSummary& h = summary.of(op);
      if (h.count == 0) continue;
      std::printf("# %-15s %7llu %10.3f %9.1f %9.1f %9.1f %9.1f\n",
                  sdj::obs::OpName(op),
                  static_cast<unsigned long long>(h.count),
                  static_cast<double>(h.total_ns) * 1e-6,
                  static_cast<double>(h.p50_ns) * 1e-3,
                  static_cast<double>(h.p95_ns) * 1e-3,
                  static_cast<double>(h.p99_ns) * 1e-3,
                  static_cast<double>(h.max_ns) * 1e-3);
    }
    if (trace_path.empty()) return true;
    if (!sink.WriteJson(trace_path)) {
      std::fprintf(stderr, "failed to write trace %s\n", trace_path.c_str());
      return false;
    }
    std::printf("# trace: %zu events written to %s (%llu dropped)\n",
                sink.size(), trace_path.c_str(),
                static_cast<unsigned long long>(sink.dropped()));
    return true;
  }
};

// Reports the terminal status; non-ok statuses exit non-zero so scripts can
// distinguish a complete result (0) from a valid partial prefix (3) and a
// resumable suspension (4).
int ReportStatus(JoinStatus status, const std::string& snapshot_path) {
  if (status == JoinStatus::kIoError) {
    std::fprintf(stderr,
                 "io-error: join stopped early; reported pairs are a valid "
                 "prefix of the full result\n");
    return 3;
  }
  if (status == JoinStatus::kSuspended) {
    std::fprintf(stderr,
                 "suspended: state checkpointed%s%s; rerun with --resume to "
                 "continue\n",
                 snapshot_path.empty() ? "" : " to ",
                 snapshot_path.c_str());
    return 4;
  }
  if (status == JoinStatus::kInvalidArgument) {
    std::fprintf(stderr, "invalid-argument: object ids are not dense\n");
    return 2;
  }
  return 0;
}

void PrintCosts(const JoinStats& stats);

// Shared join/semijoin driver: iterates `engine` through a JoinCursor,
// honoring the durable-cursor flags (see file header). `stop_source` must be
// the source behind the engine's stop token. Prints pairs and cursor
// bookkeeping; the caller prints costs and fault counters afterwards.
template <typename Engine>
int DriveJoin(Engine* engine, const Flags& flags,
              sdj::util::StopSource* stop_source,
              const std::optional<sdj::storage::FaultInjectionOptions>&
                  fault_injection,
              sdj::obs::Metrics* metrics) {
  sdj::CursorOptions cursor_options;
  cursor_options.snapshot_path = flags.Get("snapshot", "");
  cursor_options.checkpoint_every =
      static_cast<uint64_t>(flags.GetLong("checkpoint-every", 0));
  cursor_options.fault_injection = fault_injection;
  cursor_options.metrics = metrics;
  sdj::JoinCursor<2, Engine> cursor(engine, cursor_options);
  if (!cursor_options.snapshot_path.empty() && !cursor.ok()) {
    std::fprintf(stderr, "cannot open snapshot store %s\n",
                 cursor_options.snapshot_path.c_str());
    return 1;
  }
  if (flags.GetBool("resume")) {
    if (cursor_options.snapshot_path.empty()) {
      std::fprintf(stderr, "--resume requires --snapshot=<file>\n");
      return 2;
    }
    if (!cursor.ResumeLatest()) {
      std::fprintf(stderr,
                   "no usable snapshot in %s; starting from scratch\n",
                   cursor_options.snapshot_path.c_str());
    }
  }
  const double max_seconds = flags.GetDouble("max-seconds", 0.0);
  if (max_seconds > 0.0) {
    stop_source->SetDeadlineAfter(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(max_seconds)));
  }
  const long suspend_after = flags.GetLong("suspend-after", 0);
  const long print = flags.GetLong("print", 10);
  JoinResult<2> pair;
  long produced = 0;
  while (cursor.Next(&pair)) {
    if (produced < print) {
      std::printf("%llu,%llu,%.6f\n",
                  static_cast<unsigned long long>(pair.id1),
                  static_cast<unsigned long long>(pair.id2), pair.distance);
    }
    ++produced;
    if (suspend_after > 0 && produced >= suspend_after) {
      stop_source->RequestStop();
    }
  }
  PrintCosts(engine->stats());
  const sdj::CursorStats& cs = cursor.cursor_stats();
  if (cs.checkpoints_written > 0 || cs.checkpoint_failures > 0 ||
      cs.snapshot_fallbacks > 0 || cs.resumes > 0) {
    std::printf(
        "# cursor: %llu checkpoints, %llu checkpoint failures, "
        "%llu snapshot fallbacks, %llu resumes\n",
        static_cast<unsigned long long>(cs.checkpoints_written),
        static_cast<unsigned long long>(cs.checkpoint_failures),
        static_cast<unsigned long long>(cs.snapshot_fallbacks),
        static_cast<unsigned long long>(cs.resumes));
  }
  return ReportStatus(cursor.status(), cursor_options.snapshot_path);
}

// --kernel=auto|scalar|sse2|avx2|avx512 selects the SIMD distance-kernel
// path (DESIGN.md §15). Unsupported requests degrade to the nearest
// supported path; every path is bit-identical, so output never changes.
bool ParseKernel(const Flags& flags, sdj::simd::Isa* isa) {
  const std::string name = flags.Get("kernel", "auto");
  if (!sdj::simd::ParseIsa(name.c_str(), isa)) {
    std::fprintf(stderr, "unknown kernel: %s (auto|scalar|sse2|avx2|avx512)\n",
                 name.c_str());
    return false;
  }
  return true;
}

// --shards=N partitions the pair space into N independent best-first
// engines behind the k-way frontier merge (DESIGN.md §18). 0 (the default)
// defers to SDJ_SHARDS, falling back to 1 (the ordinary serial engines);
// the stream is output-identical at every shard count.
bool ParseShards(const Flags& flags, int* shards) {
  const long value = flags.GetLong("shards", 0);
  if (value < 0) {
    std::fprintf(stderr, "--shards must be >= 0 (0 = SDJ_SHARDS or 1)\n");
    return false;
  }
  *shards = static_cast<int>(value);
  return true;
}

// --screen=on|off overrides integer code screening on quantized pages
// (DESIGN.md §17; default on, or off when SDJ_SCREEN=off). Screening never
// changes the pair stream, only how out-of-range candidates are rejected.
bool ParseScreen(const Flags& flags, bool* screen) {
  const std::string name = flags.Get("screen", *screen ? "on" : "off");
  if (name == "on") {
    *screen = true;
  } else if (name == "off") {
    *screen = false;
  } else {
    std::fprintf(stderr, "unknown screen setting: %s (on|off)\n",
                 name.c_str());
    return false;
  }
  return true;
}

bool ParseMetric(const std::string& name, Metric* metric) {
  if (name == "euclidean") {
    *metric = Metric::kEuclidean;
  } else if (name == "manhattan") {
    *metric = Metric::kManhattan;
  } else if (name == "chessboard") {
    *metric = Metric::kChessboard;
  } else {
    std::fprintf(stderr, "unknown metric: %s\n", name.c_str());
    return false;
  }
  return true;
}

void PrintCosts(const JoinStats& stats) {
  std::printf(
      "# cost: %llu pairs, %llu object dist calcs, %llu queue inserts, "
      "max queue %llu, node I/O %llu\n",
      static_cast<unsigned long long>(stats.pairs_reported),
      static_cast<unsigned long long>(stats.object_distance_calcs),
      static_cast<unsigned long long>(stats.queue_pushes),
      static_cast<unsigned long long>(stats.max_queue_size),
      static_cast<unsigned long long>(stats.node_io));
  if (stats.io_retries > 0 || stats.checksum_failures > 0 ||
      stats.spill_fallbacks > 0) {
    std::printf(
        "# resilience: %llu I/O retries, %llu checksum failures, "
        "%llu spill fallbacks\n",
        static_cast<unsigned long long>(stats.io_retries),
        static_cast<unsigned long long>(stats.checksum_failures),
        static_cast<unsigned long long>(stats.spill_fallbacks));
  }
}

int CmdGen(const Flags& flags) {
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "gen requires --out=<csv>\n");
    return 1;
  }
  const size_t n = static_cast<size_t>(flags.GetLong("n", 10000));
  const uint64_t seed = static_cast<uint64_t>(flags.GetLong("seed", 1));
  const Rect<2> extent({flags.GetDouble("x0", 0.0), flags.GetDouble("y0", 0.0)},
                       {flags.GetDouble("x1", 100000.0),
                        flags.GetDouble("y1", 100000.0)});
  const std::string kind = flags.Get("kind", "uniform");
  std::vector<Point<2>> points;
  if (kind == "uniform") {
    points = sdj::data::GenerateUniform(n, extent, seed);
  } else if (kind == "clustered") {
    sdj::data::ClusterOptions options;
    options.num_points = n;
    options.extent = extent;
    options.num_clusters = static_cast<int>(flags.GetLong("clusters", 32));
    options.seed = seed;
    points = sdj::data::GenerateClustered(options);
  } else if (kind == "polyline") {
    sdj::data::PolylineOptions options;
    options.num_points = n;
    options.extent = extent;
    options.num_polylines = static_cast<int>(flags.GetLong("lines", 100));
    options.seed = seed;
    points = sdj::data::GeneratePolylines(options);
  } else {
    std::fprintf(stderr, "unknown kind: %s\n", kind.c_str());
    return 1;
  }
  if (!sdj::data::SavePointsCsv(out, points)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu %s points to %s\n", points.size(), kind.c_str(),
              out.c_str());
  return 0;
}

int CmdJoin(const Flags& flags) {
  std::vector<Point<2>> a;
  std::vector<Point<2>> b;
  if (!LoadRequired(flags, "a", &a) || !LoadRequired(flags, "b", &b)) return 1;
  sdj::RTreeOptions tree_options;
  const bool faulty = ApplyFaultFlags(flags, &tree_options);
  // Declared before the trees: their pools hold the Metrics pointer until
  // destruction (final flushes record page writes), so the sink must outlive
  // them.
  ObsSetup obs;
  obs.Init(flags);
  RTree<2> ta = IndexPoints(a, tree_options);
  RTree<2> tb = IndexPoints(b, tree_options);

  // --within=EPS is the within-distance join: the Even join restricted to
  // [0, EPS] (Section 2.2.3), still streamed by ascending distance. The
  // flags that would reshape that range or order are rejected.
  const bool within = flags.Has("within");
  if (within) {
    for (const char* incompatible : {"policy", "estimate", "reverse",
                                     "min-distance", "max-distance", "k"}) {
      if (flags.Has(incompatible)) {
        std::fprintf(stderr, "--within is incompatible with --%s\n",
                     incompatible);
        return 1;
      }
    }
  }

  DistanceJoinOptions options;
  if (!ParseMetric(flags.Get("metric", "euclidean"), &options.metric)) {
    return 1;
  }
  if (!ParseKernel(flags, &options.kernel_isa)) return 1;
  if (!ParseScreen(flags, &options.screen_codes)) return 1;
  const std::string policy = flags.Get("policy", "even");
  if (policy == "even") {
    options.node_policy = sdj::NodeProcessingPolicy::kEven;
  } else if (policy == "basic") {
    options.node_policy = sdj::NodeProcessingPolicy::kBasic;
  } else if (policy == "simultaneous") {
    options.node_policy = sdj::NodeProcessingPolicy::kSimultaneous;
  } else {
    std::fprintf(stderr, "unknown policy: %s\n", policy.c_str());
    return 1;
  }
  options.min_distance = flags.GetDouble("min-distance", 0.0);
  options.max_distance =
      within ? flags.GetDouble("within", 0.0)
             : flags.GetDouble("max-distance",
                               std::numeric_limits<double>::infinity());
  if (within && options.max_distance < 0.0) {
    std::fprintf(stderr, "--within must be >= 0\n");
    return 1;
  }
  options.max_pairs = static_cast<uint64_t>(flags.GetLong("k", 0));
  options.reverse_order = flags.GetBool("reverse");
  if (flags.GetBool("estimate")) {
    if (options.max_pairs == 0) {
      std::fprintf(stderr, "--estimate requires --k\n");
      return 1;
    }
    options.estimate_max_distance = true;
  }
  const long threads = flags.GetLong("threads", 1);
  if (threads < 1) {
    std::fprintf(stderr, "--threads must be >= 1\n");
    return 1;
  }
  options.num_threads = static_cast<int>(threads);
  if (!ParseShards(flags, &options.shards)) return 1;
  sdj::util::StopSource stop_source;
  options.stop_token = stop_source.token();

  options.metrics = obs.get();
  ta.pool().SetMetrics(obs.get());
  tb.pool().SetMetrics(obs.get());

  // At one shard, and for shapes the planner cannot partition (--reverse,
  // --estimate), the wrapper runs one plain passthrough engine.
  sdj::ShardedDistanceJoin<2> join(ta, tb, options);
  int rc = DriveJoin(&join, flags, &stop_source, tree_options.fault_injection,
                     obs.get());
  if (faulty) {
    PrintFaultCounters("a", ta.injector());
    PrintFaultCounters("b", tb.injector());
  }
  if (!obs.Finish() && rc == 0) rc = 1;
  return rc;
}

int CmdSemiJoin(const Flags& flags) {
  std::vector<Point<2>> a;
  std::vector<Point<2>> b;
  if (!LoadRequired(flags, "a", &a) || !LoadRequired(flags, "b", &b)) return 1;
  sdj::RTreeOptions tree_options;
  const bool faulty = ApplyFaultFlags(flags, &tree_options);
  ObsSetup obs;  // before the trees — see CmdJoin
  obs.Init(flags);
  RTree<2> ta = IndexPoints(a, tree_options);
  RTree<2> tb = IndexPoints(b, tree_options);

  sdj::SemiJoinOptions options;
  if (!ParseMetric(flags.Get("metric", "euclidean"), &options.join.metric)) {
    return 1;
  }
  if (!ParseKernel(flags, &options.join.kernel_isa)) return 1;
  if (!ParseScreen(flags, &options.join.screen_codes)) return 1;
  options.join.max_pairs = static_cast<uint64_t>(flags.GetLong("k", 0));
  const std::string bound = flags.Get("bound", "globalall");
  if (bound == "none") {
    options.bound = sdj::SemiJoinBound::kNone;
  } else if (bound == "local") {
    options.bound = sdj::SemiJoinBound::kLocal;
  } else if (bound == "globalnodes") {
    options.bound = sdj::SemiJoinBound::kGlobalNodes;
  } else if (bound == "globalall") {
    options.bound = sdj::SemiJoinBound::kGlobalAll;
  } else {
    std::fprintf(stderr, "unknown bound: %s\n", bound.c_str());
    return 1;
  }
  const std::string filter = flags.Get("filter", "inside2");
  if (filter == "outside") {
    options.filter = sdj::SemiJoinFilter::kOutside;
  } else if (filter == "inside1") {
    options.filter = sdj::SemiJoinFilter::kInside1;
  } else if (filter == "inside2") {
    options.filter = sdj::SemiJoinFilter::kInside2;
  } else {
    std::fprintf(stderr, "unknown filter: %s\n", filter.c_str());
    return 1;
  }

  if (!ParseShards(flags, &options.join.shards)) return 1;
  sdj::util::StopSource stop_source;
  options.join.stop_token = stop_source.token();

  options.join.metrics = obs.get();
  ta.pool().SetMetrics(obs.get());
  tb.pool().SetMetrics(obs.get());

  sdj::ShardedDistanceSemiJoin<2> semi(ta, tb, options);
  int rc = DriveJoin(&semi, flags, &stop_source, tree_options.fault_injection,
                     obs.get());
  if (faulty) {
    PrintFaultCounters("a", ta.injector());
    PrintFaultCounters("b", tb.injector());
  }
  if (!obs.Finish() && rc == 0) rc = 1;
  return rc;
}

int CmdNn(const Flags& flags) {
  std::vector<Point<2>> a;
  if (!LoadRequired(flags, "a", &a)) return 1;
  RTree<2> tree = IndexPoints(a);
  const Point<2> query{flags.GetDouble("x", 0.0), flags.GetDouble("y", 0.0)};
  const size_t k = static_cast<size_t>(flags.GetLong("k", 5));
  for (const auto& hit : sdj::KNearest(tree, query, k)) {
    std::printf("%llu,%.6f\n", static_cast<unsigned long long>(hit.id),
                hit.distance);
  }
  return 0;
}

int CmdStats(const Flags& flags) {
  std::vector<Point<2>> a;
  if (!LoadRequired(flags, "a", &a)) return 1;
  RTree<2> tree = IndexPoints(a);
  std::printf("objects: %zu\nheight: %d\nnodes: %zu (leaves %zu)\n",
              tree.size(), tree.height(), tree.num_nodes(),
              tree.num_leaves());
  std::printf("fan-out: max %u, min %u\n", tree.max_entries(),
              tree.min_entries());
  const Rect<2> mbr = tree.RootMbr();
  std::printf("extent: %s\n", mbr.ToString().c_str());
  std::string error;
  std::printf("valid: %s\n", tree.Validate(&error) ? "yes" : error.c_str());
  return 0;
}

// The serve command's session-kind rotation: index i gets kinds[i % 3].
// The kind is encoded in the crash-recovery tag ("<kind>:<i>") so --resume
// can rebuild the identical engine configuration (the snapshot fingerprint
// rejects anything else).
sdj::serve::SessionManager<2>::EngineFactory MakeServeFactory(
    const std::string& kind, const RTree<2>& ta, const RTree<2>& tb) {
  if (kind == "join" || kind == "manhattan") {
    const Metric metric =
        kind == "join" ? Metric::kEuclidean : Metric::kManhattan;
    return [&ta, &tb, metric](sdj::util::StopToken token)
               -> std::unique_ptr<sdj::serve::ErasedEngine<2>> {
      DistanceJoinOptions options;
      options.metric = metric;
      options.stop_token = std::move(token);
      return sdj::serve::Erase<2>(
          std::make_unique<DistanceJoin<2>>(ta, tb, options));
    };
  }
  if (kind == "semi") {
    return [&ta, &tb](sdj::util::StopToken token)
               -> std::unique_ptr<sdj::serve::ErasedEngine<2>> {
      sdj::SemiJoinOptions options;
      options.join.stop_token = std::move(token);
      return sdj::serve::Erase<2>(
          std::make_unique<DistanceSemiJoin<2>>(ta, tb, options));
    };
  }
  return nullptr;
}

int CmdServe(const Flags& flags) {
  std::vector<Point<2>> a;
  std::vector<Point<2>> b;
  if (!LoadRequired(flags, "a", &a) || !LoadRequired(flags, "b", &b)) return 1;
  ObsSetup obs;  // before the trees — see CmdJoin
  obs.Init(flags);
  RTree<2> ta = IndexPoints(a);
  RTree<2> tb = IndexPoints(b);
  ta.pool().SetMetrics(obs.get());
  tb.pool().SetMetrics(obs.get());

  sdj::serve::ServeOptions options;
  options.state_dir = flags.Get("state-dir", "");
  options.memory_budget_entries = static_cast<uint64_t>(
      flags.GetLong("budget-entries", 1L << 20));
  options.slice = std::chrono::microseconds(flags.GetLong("slice-us", 0));
  options.checkpoint_every =
      static_cast<uint64_t>(flags.GetLong("checkpoint-every", 0));
  options.snapshot_slots =
      static_cast<uint32_t>(flags.GetLong("snapshot-slots", 2));
  options.metrics = obs.get();
  const std::string fault_seed = flags.Get("inject-faults", "");
  if (!fault_seed.empty()) {
    // Targets the durable serving state (snapshot stores + session table);
    // the trees stay clean — per-tree faults are the join command's domain.
    sdj::storage::FaultInjectionOptions faults;
    faults.seed = static_cast<uint64_t>(std::atoll(fault_seed.c_str()));
    faults.transient_read_rate = flags.GetDouble("fault-read-rate", 0.01);
    faults.transient_write_rate = flags.GetDouble("fault-write-rate", 0.01);
    options.fault_injection = faults;
  }
  sdj::serve::SessionManager<2> manager(options);

  const bool resume = flags.GetBool("resume");
  if (resume && options.state_dir.empty()) {
    std::fprintf(stderr, "--resume requires --state-dir=<dir>\n");
    return 2;
  }
  const char* kinds[] = {"join", "semi", "manhattan"};
  if (resume) {
    const size_t recovered = manager.Recover(
        [&ta, &tb](const sdj::serve::SessionRecord& record) {
          const std::string kind =
              record.tag.substr(0, record.tag.find(':'));
          return MakeServeFactory(kind, ta, tb);
        });
    std::printf("# recovered %zu session(s)\n", recovered);
  } else {
    const long sessions = flags.GetLong("sessions", 4);
    if (sessions < 1) {
      std::fprintf(stderr, "--sessions must be >= 1\n");
      return 2;
    }
    for (long i = 0; i < sessions; ++i) {
      const std::string kind = kinds[i % 3];
      std::string tag = kind;
      tag += ':';
      tag += std::to_string(i);
      const auto admit =
          manager.Admit(tag, MakeServeFactory(kind, ta, tb));
      if (admit.status != sdj::serve::ServeStatus::kOk) {
        std::fprintf(stderr, "# session %s rejected: %s\n", tag.c_str(),
                     ServeStatusName(admit.status));
      }
    }
  }

  const long batch = std::max(1L, flags.GetLong("batch", 32));
  const uint64_t max_results =
      static_cast<uint64_t>(flags.GetLong("max-results", 0));
  const long suspend_rounds = flags.GetLong("suspend-after-rounds", 0);
  const long print = flags.GetLong("print", 3);

  struct Client {
    sdj::serve::SessionManager<2>::SessionId id;
    uint64_t produced = 0;
    bool done = false;
    bool failed = false;
  };
  std::vector<Client> clients;
  for (const auto id : manager.SessionIds()) clients.push_back({id});
  if (clients.empty()) {
    std::fprintf(stderr, "no sessions to serve\n");
    return 1;
  }

  bool suspended = false;
  long rounds = 0;
  bool active = true;
  while (active && !suspended) {
    active = false;
    for (Client& client : clients) {
      if (client.done) continue;
      active = true;
      for (long i = 0; i < batch && !client.done; ++i) {
        JoinResult<2> result;
        const sdj::serve::ServeStatus status =
            manager.Next(client.id, &result);
        switch (status) {
          case sdj::serve::ServeStatus::kOk:
            if (client.produced < static_cast<uint64_t>(print)) {
              std::printf("%llu,%llu,%llu,%.6f\n",
                          static_cast<unsigned long long>(client.id),
                          static_cast<unsigned long long>(result.id1),
                          static_cast<unsigned long long>(result.id2),
                          result.distance);
            }
            ++client.produced;
            if (max_results > 0 && client.produced >= max_results) {
              manager.Close(client.id);
              client.done = true;
            }
            break;
          case sdj::serve::ServeStatus::kYield:
            i = batch;  // slice expired: rotate to the next session
            break;
          case sdj::serve::ServeStatus::kExhausted:
            client.done = true;
            break;
          default:
            std::fprintf(stderr, "# session %llu: %s\n",
                         static_cast<unsigned long long>(client.id),
                         ServeStatusName(status));
            client.done = true;
            client.failed = true;
            break;
        }
      }
    }
    if (suspend_rounds > 0 && ++rounds >= suspend_rounds && active) {
      for (Client& client : clients) {
        if (!client.done) manager.Checkpoint(client.id);
      }
      suspended = true;
    }
  }

  bool any_failed = false;
  for (const Client& client : clients) {
    any_failed = any_failed || client.failed;
    const auto counters = manager.counters(client.id);
    std::printf(
        "# session %llu tag=%s state=%s results=%llu yields=%llu "
        "evictions=%llu rehydrations=%llu%s\n",
        static_cast<unsigned long long>(client.id),
        manager.tag(client.id).c_str(),
        SessionStateName(manager.state(client.id)),
        static_cast<unsigned long long>(counters.results),
        static_cast<unsigned long long>(counters.yields),
        static_cast<unsigned long long>(counters.evictions),
        static_cast<unsigned long long>(counters.rehydrations),
        counters.pinned_resident ? " pinned-resident" : "");
  }
  const sdj::serve::ServeStats& stats = manager.stats();
  std::printf(
      "# serve: %llu admitted, %llu recovered, %llu rejected, "
      "%llu evictions, %llu rehydrations, %llu pinned, %llu failed\n",
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.recovered_sessions),
      static_cast<unsigned long long>(stats.rejected_overload),
      static_cast<unsigned long long>(stats.evictions),
      static_cast<unsigned long long>(stats.rehydrations),
      static_cast<unsigned long long>(stats.pinned_sessions),
      static_cast<unsigned long long>(stats.failed_sessions));
  int rc = 0;
  if (any_failed) rc = 3;
  if (suspended) {
    std::fprintf(stderr,
                 "suspended: %ld round(s) served, sessions checkpointed to "
                 "%s; rerun with --resume to continue\n",
                 rounds, options.state_dir.c_str());
    rc = 4;
  }
  if (!obs.Finish() && rc == 0) rc = 1;
  return rc;
}

int PrintUsage() {
  std::fprintf(stderr,
               "usage: sdjoin_cli <gen|join|semijoin|nn|stats|serve|scrub>"
               " [--flags]\n"
               "scrub: scrub --file=<path> [--kind=snapshot|pages]\n"
               "  [--page-size=4096] [--snapshot-slots=2] [--repair]\n"
               "  (offline checksum/slot verification and repair; see\n"
               "  tools/scrub_command.h — exits 1 when corruption is found)\n"
               "serving: serve --a= --b= [--sessions=4] [--batch=32]\n"
               "  [--slice-us=N] [--budget-entries=N] [--state-dir=DIR]\n"
               "  [--suspend-after-rounds=N] [--resume]\n"
               "  [--inject-faults=<seed>: snapshot-store faults]\n"
               "within-distance join: join --within=EPS (all pairs with\n"
               "  distance <= EPS, streamed ascending)\n"
               "durable cursors (join/semijoin): --snapshot=<file>\n"
               "  --checkpoint-every=N --suspend-after=N --max-seconds=S\n"
               "  --resume; combine freely with --threads=N (resume may\n"
               "  change the thread count) and --inject-faults=<seed>\n"
               "  (covers the snapshot store; torn snapshots fall back)\n"
               "sharding (join/semijoin): --shards=N runs N independent\n"
               "  best-first engines behind a k-way frontier merge\n"
               "  (DESIGN.md §18; output-identical; 0 = SDJ_SHARDS or 1;\n"
               "  resume requires the same shard count)\n"
               "observability (join/semijoin): --metrics prints a per-phase\n"
               "  latency table; --trace=<file> writes Chrome-trace JSON\n"
               "kernels (join/semijoin): --kernel=auto|scalar|sse2|avx2|\n"
               "  avx512 picks the SIMD distance-kernel path (bit-identical\n"
               "  output on every path; unsupported requests degrade)\n"
               "screening (join/semijoin): --screen=on|off toggles integer\n"
               "  code screening on quantized pages (default on, or the\n"
               "  SDJ_SCREEN env setting; never changes the pair stream)\n"
               "exit codes: 0 exhausted, 1 bad input, 2 usage error,\n"
               "  3 io-error (valid prefix), 4 suspended (resumable)\n"
               "see the header of tools/sdjoin_cli.cc for details\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return PrintUsage();
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  if (!flags.ok()) return 2;
  if (command == "gen") return CmdGen(flags);
  if (command == "join") return CmdJoin(flags);
  if (command == "semijoin") return CmdSemiJoin(flags);
  if (command == "nn") return CmdNn(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "scrub") return sdj::tools::RunScrubCommand(argc, argv, 2);
  return PrintUsage();
}
