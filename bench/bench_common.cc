#include "bench_common.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/distance_join.h"
#include "core/join_stats.h"
#include "core/semi_join.h"
#include "data/datasets.h"
#include "geometry/simd.h"
#include "util/check.h"

#ifndef SDJ_GIT_SHA
#define SDJ_GIT_SHA "unknown"
#endif

namespace sdj::bench {

namespace {

RTreeOptions PaperTreeOptions() {
  RTreeOptions options;
  options.page_size = 2048;    // fan-out 51 (paper: 50)
  options.buffer_pages = 128;  // 256K of buffer, as in Section 3.1
  return options;
}

std::unique_ptr<RTree<2>> BuildTree(const std::vector<Point<2>>& points) {
  auto tree = std::make_unique<RTree<2>>(PaperTreeOptions());
  for (size_t i = 0; i < points.size(); ++i) {
    tree->Insert(Rect<2>::FromPoint(points[i]), i);
  }
  return tree;
}

std::vector<Row>& Rows() {
  static std::vector<Row>* rows = new std::vector<Row>;
  return *rows;
}

// Cached prefix distances of the default join / semi-join.
std::vector<double>& JoinPrefix() {
  static std::vector<double>* prefix = new std::vector<double>;
  return *prefix;
}
std::vector<double>& SemiPrefix() {
  static std::vector<double>* prefix = new std::vector<double>;
  return *prefix;
}

}  // namespace

double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("SDJ_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    // Strict parse: atof's silent 0.0 for garbage (and a NaN passing the
    // range checks below, both being false) must not leak into dataset
    // sizing — warn and run at full scale instead.
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end == env || *end != '\0' || !(v > 0.0) || v > 1.0) {
      std::fprintf(stderr,
                   "warning: ignoring SDJ_BENCH_SCALE=\"%s\" "
                   "(want a number in (0, 1]); using 1.0\n",
                   env);
      return 1.0;
    }
    return v;
  }();
  return scale;
}

const std::vector<Point<2>>& WaterPoints() {
  static const std::vector<Point<2>>* points =
      new std::vector<Point<2>>(data::MakeWater(Scale()));
  return *points;
}

const std::vector<Point<2>>& RoadsPoints() {
  static const std::vector<Point<2>>* points =
      new std::vector<Point<2>>(data::MakeRoads(Scale()));
  return *points;
}

const RTree<2>& WaterTree() {
  static const RTree<2>* tree = BuildTree(WaterPoints()).release();
  return *tree;
}

const RTree<2>& RoadsTree() {
  static const RTree<2>* tree = BuildTree(RoadsPoints()).release();
  return *tree;
}

uint64_t ScaledPairs(uint64_t k) {
  const double scaled = static_cast<double>(k) * Scale() * Scale();
  return scaled < 1.0 ? 1 : static_cast<uint64_t>(scaled);
}

uint64_t ScaledSemiPairs(uint64_t k) {
  const double scaled = static_cast<double>(k) * Scale();
  const uint64_t v = scaled < 1.0 ? 1 : static_cast<uint64_t>(scaled);
  return std::min<uint64_t>(v, WaterTree().size());
}

double JoinDistanceAt(uint64_t k) {
  SDJ_CHECK(k >= 1);
  std::vector<double>& prefix = JoinPrefix();
  if (prefix.size() < k) {
    prefix.clear();
    DistanceJoinOptions options;
    DistanceJoin<2> join(WaterTree(), RoadsTree(), options);
    JoinResult<2> pair;
    while (prefix.size() < k && join.Next(&pair)) {
      prefix.push_back(pair.distance);
    }
  }
  SDJ_CHECK(prefix.size() >= k);
  return prefix[k - 1];
}

double SemiDistanceAt(uint64_t k) {
  SDJ_CHECK(k >= 1);
  std::vector<double>& prefix = SemiPrefix();
  if (prefix.size() < k) {
    prefix.clear();
    SemiJoinOptions options;
    options.bound = SemiJoinBound::kGlobalAll;
    DistanceSemiJoin<2> semi(WaterTree(), RoadsTree(), options);
    JoinResult<2> pair;
    while (prefix.size() < k && semi.Next(&pair)) {
      prefix.push_back(pair.distance);
    }
  }
  SDJ_CHECK(prefix.size() >= k);
  return prefix[k - 1];
}

void ColdCaches() {
  WaterTree().pool().Invalidate();
  RoadsTree().pool().Invalidate();
}

bool MetricsEnabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("SDJ_BENCH_METRICS");
    return env == nullptr || std::string(env) != "0";
  }();
  return enabled;
}

void AddRow(const Row& row) { Rows().push_back(row); }

namespace {

// This binary's name with the "bench_" prefix dropped ("table1", ...).
std::string BenchName() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  std::string name = "unknown";
  if (n > 0) {
    buf[n] = '\0';
    name = buf;
    const size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
  }
  if (name.rfind("bench_", 0) == 0) name = name.substr(6);
  return name;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\u%04x", c);
      out += hex;
    } else {
      out += c;
    }
  }
  return out;
}

void JsonStat(std::FILE* f, const char* key, uint64_t value, bool last) {
  std::fprintf(f, "        \"%s\": %llu%s\n", key,
               static_cast<unsigned long long>(value), last ? "" : ",");
}

// One per-phase latency object: {"count": N, "total_ms": ..., "p50_us": ...,
// "p95_us": ..., "p99_us": ..., "max_us": ...}. Every Op is emitted (zeros
// when unused) so the schema is fixed for scripts/compare_bench.py.
void JsonMetrics(std::FILE* f, const obs::MetricsSummary& metrics) {
  std::fprintf(f, "      \"metrics\": {\n");
  for (int i = 0; i < obs::kNumOps; ++i) {
    const obs::Op op = static_cast<obs::Op>(i);
    const obs::HistogramSummary& h = metrics.of(op);
    std::fprintf(f,
                 "        \"%s\": {\"count\": %llu, \"total_ms\": %.6f, "
                 "\"p50_us\": %.3f, \"p95_us\": %.3f, \"p99_us\": %.3f, "
                 "\"max_us\": %.3f}%s\n",
                 obs::OpName(op), static_cast<unsigned long long>(h.count),
                 static_cast<double>(h.total_ns) * 1e-6,
                 static_cast<double>(h.p50_ns) * 1e-3,
                 static_cast<double>(h.p95_ns) * 1e-3,
                 static_cast<double>(h.p99_ns) * 1e-3,
                 static_cast<double>(h.max_ns) * 1e-3,
                 i + 1 < obs::kNumOps ? "," : "");
  }
  std::fprintf(f, "      }\n");
}

// Writes every recorded row to BENCH_<name>.json so sweeps over bench
// binaries stay parseable without scraping the stdout table.
void WriteJson(const std::string& title) {
  const std::string path = "BENCH_" + BenchName() + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"%s\",\n", JsonEscape(BenchName()).c_str());
  std::fprintf(f, "  \"title\": \"%s\",\n", JsonEscape(title).c_str());
  std::fprintf(f, "  \"scale\": %.17g,\n", Scale());
  // Provenance stamp: the revision the binary was built from (configure-time
  // `git rev-parse`, bench/CMakeLists.txt) and the machine's thread budget,
  // so archived JSON rows stay comparable across machines and commits.
  std::fprintf(f, "  \"git_sha\": \"%s\",\n", JsonEscape(SDJ_GIT_SHA).c_str());
  // Kernel-ISA stamp: which SIMD tier the host supports and which one the
  // kAuto dispatch actually picked (DESIGN.md §15). compare_bench.py refuses
  // to gate wall-clock across different dispatch choices — the numbers are
  // not comparable.
  std::fprintf(f, "  \"kernel_isa_detected\": \"%s\",\n",
               simd::IsaName(simd::DetectIsa()));
  std::fprintf(f, "  \"kernel_isa\": \"%s\",\n",
               simd::IsaName(simd::Resolve(simd::Isa::kAuto)));
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"water_points\": %zu,\n", WaterPoints().size());
  std::fprintf(f, "  \"roads_points\": %zu,\n", RoadsPoints().size());
  std::fprintf(f, "  \"rows\": [\n");
  const std::vector<Row>& rows = Rows();
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const JoinStats& s = row.stats;
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"series\": \"%s\",\n",
                 JsonEscape(row.series).c_str());
    std::fprintf(f, "      \"note\": \"%s\",\n", JsonEscape(row.note).c_str());
    std::fprintf(f, "      \"threads\": %d,\n", row.threads);
    std::fprintf(f, "      \"shards\": %d,\n", row.shards);
    std::fprintf(f, "      \"pairs\": %llu,\n",
                 static_cast<unsigned long long>(row.pairs));
    std::fprintf(f, "      \"wall_ms\": %.6f,\n", row.seconds * 1e3);
    std::fprintf(f, "      \"node_io\": %llu,\n",
                 static_cast<unsigned long long>(s.node_io));
    // Sharded-run counters (DESIGN.md §18); zero/empty on serial rows.
    std::fprintf(f, "      \"shard_merge_pops\": %llu,\n",
                 static_cast<unsigned long long>(row.shard_merge_pops));
    std::fprintf(f, "      \"shard_expansions\": [");
    for (size_t k = 0; k < row.shard_expansions.size(); ++k) {
      std::fprintf(f, "%s%llu", k == 0 ? "" : ", ",
                   static_cast<unsigned long long>(row.shard_expansions[k]));
    }
    std::fprintf(f, "],\n");
    std::fprintf(f, "      \"stats\": {\n");
    const size_t num_stats = std::size(kJoinStatFields);
    for (size_t k = 0; k < num_stats; ++k) {
      const JoinStatField& field = kJoinStatFields[k];
      JsonStat(f, field.name, s.*field.member, k + 1 == num_stats);
    }
    std::fprintf(f, "      },\n");
    JsonMetrics(f, row.metrics);
    std::fprintf(f, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
}

}  // namespace

void PrintTable(const std::string& title) {
  std::printf("\n=== %s (scale %.3g: |Water|=%zu, |Roads|=%zu) ===\n",
              title.c_str(), Scale(), WaterPoints().size(),
              RoadsPoints().size());
  std::printf("%-34s %10s %4s %4s %9s %13s %13s %10s %14s  %s\n", "series",
              "pairs", "thr", "shd", "time(s)", "dist.calc", "queue size",
              "node I/O", "rtry/cks/spill", "note");
  for (const Row& row : Rows()) {
    char resilience[64];
    std::snprintf(resilience, sizeof(resilience), "%llu/%llu/%llu",
                  static_cast<unsigned long long>(row.stats.io_retries),
                  static_cast<unsigned long long>(row.stats.checksum_failures),
                  static_cast<unsigned long long>(row.stats.spill_fallbacks));
    std::printf("%-34s %10llu %4d %4d %9.3f %13llu %13llu %10llu %14s  %s\n",
                row.series.c_str(),
                static_cast<unsigned long long>(row.pairs), row.threads,
                row.shards, row.seconds,
                static_cast<unsigned long long>(row.stats.object_distance_calcs),
                static_cast<unsigned long long>(row.stats.max_queue_size),
                static_cast<unsigned long long>(row.stats.node_io),
                resilience, row.note.c_str());
  }
  std::fflush(stdout);
  WriteJson(title);
}

WallTimer::WallTimer()
    : start_ns_(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count())) {}

double WallTimer::Seconds() const {
  const uint64_t now = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return static_cast<double>(now - start_ns_) * 1e-9;
}

}  // namespace sdj::bench
