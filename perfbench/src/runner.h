// Closed-loop query execution: one query at a time through the public
// engine API, with every Next() timed from raw clock reads.
#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/join_result.h"
#include "core/join_stats.h"
#include "harness.h"
#include "nn/neighbor_core.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "rtree/rtree.h"

namespace perfbench {

// Measurements of a run of queries, accumulated query by query.
struct QueryLog {
  // A unit mixes query kinds whose latencies differ by up to 10^4x, so the
  // per-query latencies are also kept per kind (set `kind` before each
  // query): a median over the pooled samples can sit in the gap between two
  // kinds and jump between them from run to run.
  int kind = 0;
  std::map<int, std::vector<double>> first_result_ms;  // construction -> first result
  std::map<int, std::vector<double>> query_ms;  // construction -> last pulled result
  std::vector<double> next_us;          // each Next() after the first result
  uint64_t queries = 0;
  uint64_t failed = 0;
  uint64_t results = 0;
  double timed_s = 0.0;      // construction -> engine destroyed, summed
  double cpu_s = 0.0;        // process CPU over the same intervals
  sdj::JoinStats stats;      // JoinStats::MergeFrom over every query
  // Smallest share of a query's wall time covered by its spans, over
  // queries of at least a millisecond: below that, the clock reads around
  // each Next() are themselves a visible share of the query.
  double min_coverage = 1.0;
  std::vector<Span>* spans = nullptr;  // benchmark spans, when tracing
  uint64_t next_query_id = 1;

  double results_per_s() const {
    return timed_s > 0.0 ? static_cast<double>(results) / timed_s : 0.0;
  }
  void AddSpan(const char* name, uint64_t start, uint64_t end, uint64_t query) {
    if (spans != nullptr) spans->push_back({name, start, end - start, query});
  }
};

inline StreamItem ToItem(const sdj::JoinResult<2>& r) {
  return {r.id1, r.id2, r.distance};
}
inline StreamItem ToItem(const sdj::NeighborResult<2>& r) {
  return {0, r.id, r.distance};
}

template <typename Engine>
sdj::JoinStats EngineStats(const Engine& e) {
  if constexpr (requires { e.engine_stats(); }) {
    return e.engine_stats();
  } else {
    return e.stats();
  }
}

// Attaches `metrics` to the trees' buffer pools for one scope (no-op for
// null), so page reads of the query are timed but an oracle's are not.
class ScopedPoolMetrics {
 public:
  ScopedPoolMetrics(std::initializer_list<const sdj::RTree<2>*> trees,
                    sdj::obs::Metrics* metrics)
      : trees_(trees), metrics_(metrics) {
    if (metrics_ == nullptr) return;
    for (const sdj::RTree<2>* t : trees_) t->pool().SetMetrics(metrics_);
  }
  ~ScopedPoolMetrics() {
    if (metrics_ == nullptr) return;
    for (const sdj::RTree<2>* t : trees_) t->pool().SetMetrics(nullptr);
  }
  ScopedPoolMetrics(const ScopedPoolMetrics&) = delete;
  ScopedPoolMetrics& operator=(const ScopedPoolMetrics&) = delete;

 private:
  std::vector<const sdj::RTree<2>*> trees_;
  sdj::obs::Metrics* metrics_;
};

// Runs one query: constructs the engine with `make()`, pulls up to `limit`
// results (0 = until the engine stops), then destroys it. Results go to
// `out`; timings, stats and spans to `log`. Returns whether the engine ended
// healthy (limit reached or kExhausted); the caller counts failures.
template <typename Make>
bool RunQuery(Make&& make, uint64_t limit, std::vector<StreamItem>* out,
              QueryLog* log) {
  const uint64_t q = log->next_query_id++;
  out->clear();
  // Growing the result vector mid-query would land in the gaps between
  // Next() spans.
  out->reserve(limit != 0 ? limit : size_t{1} << 18);
  const double cpu0 = CpuSeconds();
  const uint64_t t0 = NowNs();
  auto engine = make();
  const uint64_t t1 = NowNs();
  log->AddSpan("bench.construct", t0, t1, q);
  uint64_t covered = t1 - t0;
  uint64_t last_end = t1;
  typename std::remove_reference_t<decltype(*engine)>::Result result;
  while (limit == 0 || out->size() < limit) {
    const uint64_t a = NowNs();
    const bool ok = engine->Next(&result);
    const uint64_t b = NowNs();
    log->AddSpan("bench.next", a, b, q);
    covered += b - a;
    last_end = b;
    if (out->empty()) {
      if (ok) {
        log->first_result_ms[log->kind].push_back(
            static_cast<double>(b - t0) * 1e-6);
      }
    } else {
      log->next_us.push_back(static_cast<double>(b - a) * 1e-3);
    }
    if (!ok) break;
    out->push_back(ToItem(result));
  }
  const bool healthy = (limit != 0 && out->size() >= limit) ||
                       engine->status() == sdj::JoinStatus::kExhausted;
  log->stats.MergeFrom(EngineStats(*engine));
  const uint64_t t2 = NowNs();
  engine.reset();
  const uint64_t t3 = NowNs();
  log->AddSpan("bench.close", t2, t3, q);
  log->AddSpan("bench.query", t0, t3, q);
  covered += t3 - t2;
  log->query_ms[log->kind].push_back(static_cast<double>(last_end - t0) * 1e-6);
  log->timed_s += static_cast<double>(t3 - t0) * 1e-9;
  log->cpu_s += CpuSeconds() - cpu0;
  log->results += out->size();
  ++log->queries;
  if (t3 - t0 >= 1000000) {
    log->min_coverage = std::min(
        log->min_coverage,
        static_cast<double>(covered) / static_cast<double>(t3 - t0));
  }
  return healthy;
}

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_
