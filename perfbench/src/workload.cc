#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "geometry/simd.h"

namespace perfbench {

namespace {

// Large enough that no traced unit drops an event (tracing turns off pop
// sampling, so a 100k-pair join alone records ~10^6 events); the buffer
// grows on demand, so the cap costs nothing until used.
constexpr size_t kMaxTraceEvents = size_t{1} << 27;

double Ms(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

// The median latency of a mix: each query kind's own median (p50 of its raw
// samples), combined over the kinds by geometric mean, so every kind weighs
// the same whatever its scale and a change to any one kind moves the value.
// Each kind's median is printed too.
void AddMixMedian(const std::string& name,
                  const std::map<int, std::vector<double>>& by_kind,
                  Report* r) {
  std::vector<double> medians;
  size_t samples = 0;
  for (const auto& [kind, values] : by_kind) {
    medians.push_back(Median(values));
    samples += values.size();
    r->AddInfo(name + "[kind " + std::to_string(kind) + "]", medians.back(),
               "ms", "p50 of " + std::to_string(values.size()) +
                         " raw samples of this kind");
  }
  if (medians.empty()) r->Fail("metric " + name + " has no samples");
  char note[128];
  std::snprintf(note, sizeof(note),
                "geometric mean of %zu per-kind medians (%zu raw samples)",
                medians.size(), samples);
  r->Add(name, GeoMean(medians), "ms", note);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void AddEndToEnd(const QueryLog& log, const SetupTimes& setup, double peak_mb,
                 const char* peak_note, Report* r) {
  char note[96];
  const std::vector<double>& reps = setup.total_s;
  std::snprintf(note, sizeof(note), "median of %zu set-ups (%.4g to %.4g s)",
                reps.size(), *std::min_element(reps.begin(), reps.end()),
                *std::max_element(reps.begin(), reps.end()));
  r->Add("setup_s", Median(reps), "s", note);
  AddMixMedian("first_result_ms_p50", log.first_result_ms, r);
  AddMixMedian("query_ms_p50", log.query_ms, r);
  r->AddPercentile("next_us_p50", log.next_us, 0.5, "us");
  r->AddPercentile("next_us_p99", log.next_us, 0.99, "us");
  std::snprintf(note, sizeof(note), "%llu results in %.3f s of query time",
                static_cast<unsigned long long>(log.results), log.timed_s);
  r->Add("results_per_s", log.results_per_s(), "1/s", note);
  r->Add("peak_rss_mb", peak_mb, "MB", peak_note);
  // The 90th percentile needs at least ten samples beyond it.
  std::vector<double> all_queries;
  for (const auto& [kind, values] : log.query_ms) {
    all_queries.insert(all_queries.end(), values.begin(), values.end());
  }
  if (all_queries.size() >= 100) {
    r->AddInfo("query_ms_p90", Percentile(all_queries, 0.9), "ms",
               "p90 of " + std::to_string(all_queries.size()) +
                   " raw samples, all kinds");
  }
  r->AddInfo("failed_frac",
             Ratio(static_cast<double>(log.failed),
                   static_cast<double>(log.queries)),
             "ratio",
             std::to_string(log.failed) + " of " +
                 std::to_string(log.queries) + " queries");
}

void AddPerLayer(const LayerInputs& in, const SetupTimes& setup,
                 uint64_t tree_pages, double untraced_rps, double traced_rps,
                 Report* r) {
  const sdj::JoinStats& s = in.stats;
  const sdj::obs::MetricsSummary& lib = in.lib;
  using sdj::obs::Op;
  r->Add("storage.page_reads", static_cast<double>(in.page_reads), "count");
  r->Add("storage.hit_ratio",
         in.page_accesses > 0
             ? 1.0 - Ratio(static_cast<double>(in.page_reads),
                           static_cast<double>(in.page_accesses))
             : 0.0,
         "ratio");
  r->Add("storage.page_read_ms", Ms(lib.of(Op::kPageRead).total_ns), "ms");
  r->Add("storage.page_writes", static_cast<double>(in.io.writes), "count");
  r->Add("storage.page_syncs", static_cast<double>(in.io.syncs), "count");
  r->Add("storage.write_ms", Ms(in.io.write_ns + in.io.sync_ns), "ms");
  r->Add("data.generate_s", Median(setup.generate_s), "s");
  r->Add("rtree.build_s", Median(setup.build_s), "s");
  r->Add("rtree.pages", static_cast<double>(tree_pages), "count");
  r->Add("geometry.dist_calcs", static_cast<double>(s.total_distance_calcs),
         "count");
  r->Add("geometry.kernel_calls",
         static_cast<double>(s.batch_kernel_invocations), "count");
  r->Add("geometry.screen_candidates",
         static_cast<double>(s.screened_candidates), "count");
  r->Add("geometry.screen_survivor_ratio",
         Ratio(static_cast<double>(s.screen_survivors),
               static_cast<double>(s.screened_candidates)),
         "ratio");
  r->Add("core.queue_pushes", static_cast<double>(s.queue_pushes), "count");
  r->Add("core.queue_pops", static_cast<double>(s.queue_pops), "count");
  r->Add("core.peak_queue_entries", static_cast<double>(s.max_queue_size),
         "count");
  r->Add("core.useful_pop_ratio",
         Ratio(static_cast<double>(s.pairs_reported),
               static_cast<double>(s.queue_pops)),
         "ratio");
  r->Add("core.pop_ms", Ms(lib.of(Op::kPop).total_ns), "ms");
  r->Add("core.nodes_expanded", static_cast<double>(s.nodes_expanded), "count");
  r->Add("core.expansion_ms", Ms(lib.of(Op::kExpansion).total_ns), "ms");
  r->Add("core.expansion_share",
         Ratio(static_cast<double>(lib.of(Op::kExpansion).total_ns) * 1e-9,
               in.wall_s),
         "ratio");
  r->Add("core.pruned_by_range", static_cast<double>(s.pruned_by_range),
         "count");
  r->Add("core.pruned_by_bound", static_cast<double>(s.pruned_by_bound),
         "count");
  r->Add("core.parallel_share",
         Ratio(static_cast<double>(s.parallel_expansions),
               static_cast<double>(s.nodes_expanded)),
         "ratio");
  r->Add("proc.cpu_per_wall", Ratio(in.cpu_s, in.wall_s), "ratio");
  r->Add("snapshot.checkpoints", static_cast<double>(in.checkpoints), "count");
  r->Add("snapshot.checkpoint_ms", Ms(in.checkpoint_ns), "ms");
  r->Add("snapshot.commit_ms", Ms(in.commit_ns), "ms");
  r->Add("snapshot.restore_ms", Ms(in.restore_ns), "ms");
  r->Add("snapshot.bytes", static_cast<double>(in.io.write_bytes), "bytes");
  r->Add("serve.evictions", static_cast<double>(in.evictions), "count");
  r->Add("serve.rehydrations", static_cast<double>(in.rehydrations), "count");
  r->Add("serve.evict_ms", Ms(lib.of(Op::kSessionEvict).total_ns), "ms");
  r->Add("serve.rehydrate_ms", Ms(lib.of(Op::kSessionRehydrate).total_ns),
         "ms");
  r->Add("serve.yields", static_cast<double>(in.yields), "count");
  r->Add("trace.overhead", Ratio(untraced_rps, traced_rps), "ratio",
         "untraced / traced results_per_s");
}

// Repeats the set-up between units (see RepeatSetUp) for about
// kSetupShare of the query time so far, and at least kMinSetups times in
// all, so setup_s is a median over set-ups spread across the whole run.
class SetupSampler {
 public:
  static constexpr double kSetupShare = 0.1;
  static constexpr size_t kMinSetups = 5;

  SetupSampler(const RunConfig& cfg, const SetupFacts& setup)
      : cfg_(cfg), times_(setup.times) {}

  void AfterUnit(double query_s) {
    while (ok_ && spent_s_ < kSetupShare * query_s) Repeat();
  }
  const SetupTimes& Finish() {
    while (ok_ && times_.total_s.size() < kMinSetups) Repeat();
    return times_;
  }

 private:
  void Repeat() {
    const uint64_t start = NowNs();
    ok_ = RepeatSetUp(cfg_.workload, cfg_.seed, cfg_.out_dir, &times_);
    spent_s_ += static_cast<double>(NowNs() - start) * 1e-9;
  }

  const RunConfig& cfg_;
  SetupTimes times_;
  double spent_s_ = 0.0;
  bool ok_ = true;
};

void Accumulate(const QueryLog& unit, QueryLog* total) {
  total->queries += unit.queries;
  total->failed += unit.failed;
  total->results += unit.results;
  total->timed_s += unit.timed_s;
}

}  // namespace

void Expect(const std::string& diff, const char* what, QueryLog* log) {
  if (diff.empty()) return;
  ++log->failed;
  std::printf("oracle mismatch (%s): %s\n", what, diff.c_str());
}

sdj::DistanceJoinOptions JoinOptions(sdj::obs::Metrics* metrics) {
  sdj::DistanceJoinOptions options;
  options.metric = sdj::Metric::kEuclidean;
  options.node_policy = sdj::NodeProcessingPolicy::kEven;
  options.tie_break = sdj::TieBreakPolicy::kDepthFirst;
  options.num_threads = 1;
  options.shards = 1;
  options.kernel_isa = sdj::simd::DetectIsa();
  options.screen_codes = true;
  options.metrics = metrics;
  return options;
}

sdj::WithinJoinOptions WithinOptions(double epsilon,
                                     sdj::obs::Metrics* metrics) {
  sdj::WithinJoinOptions options;
  options.epsilon = epsilon;
  options.metric = sdj::Metric::kEuclidean;
  options.tie_break = sdj::TieBreakPolicy::kDepthFirst;
  options.num_threads = 1;
  options.shards = 1;
  options.kernel_isa = sdj::simd::DetectIsa();
  options.screen_codes = true;
  options.metrics = metrics;
  return options;
}

void CollectEngineLayers(const QueryLog& log, LayerInputs* in,
                         Report* report) {
  in->page_reads = log.stats.node_io;
  in->page_accesses = log.stats.node_accesses;
  const uint64_t traced_reads = in->lib.of(sdj::obs::Op::kPageRead).count;
  const uint64_t traced_pops = in->lib.of(sdj::obs::Op::kPop).count;
  if (traced_reads != log.stats.node_io) {
    report->Fail("page_read events " + std::to_string(traced_reads) +
                 " != node_io " + std::to_string(log.stats.node_io));
  }
  if (traced_pops != log.stats.queue_pops) {
    report->Fail("pop events " + std::to_string(traced_pops) +
                 " != queue_pops " + std::to_string(log.stats.queue_pops));
  }
}

void Drive(const RunConfig& cfg, const SetupFacts& setup, Workload* workload,
           Report* report) {
  if (!cfg.trace) {
    QueryLog log;
    // Reserved before timing so regrowth copies stay out of peak_rss_mb;
    // untouched capacity costs no resident memory.
    log.next_us.reserve(size_t{1} << 24);
    // The peak is taken over the timed units alone: the mark restarts before
    // each one, so set-up and the oracle checks between units cannot set it.
    double peak_mb = 0.0;
    bool unit_peaks = true;
    SetupSampler sampler(cfg, setup);
    do {
      unit_peaks = ResetPeakRss() && unit_peaks;
      workload->RunUnit(&log, nullptr);
      peak_mb = std::max(peak_mb, PeakRssMb());
      workload->CheckUnit(&log);
      sampler.AfterUnit(log.timed_s);
    } while (log.timed_s < cfg.seconds);
    AddEndToEnd(log, sampler.Finish(), peak_mb,
                unit_peaks ? "largest VmHWM over the timed units"
                           : "process peak (the mark cannot be reset here)",
                report);
    report->attempted = log.queries;
    report->failed = log.failed;
    return;
  }

  QueryLog untraced;
  QueryLog traced;
  LayerInputs layers;
  bool have_layers = false;
  SetupSampler sampler(cfg, setup);
  do {
    workload->RunUnit(&untraced, nullptr);
    workload->CheckUnit(&untraced);
    sampler.AfterUnit(untraced.timed_s + traced.timed_s);

    sdj::obs::Metrics metrics;
    sdj::obs::TraceSink sink(kMaxTraceEvents);
    const uint64_t mark = NowNs();
    sink.AddComplete(kClockMark, mark, 0);
    metrics.set_trace(&sink);
    std::vector<Span> spans;
    QueryLog unit;
    // Reserved so no regrowth copy lands in the gaps between a query's spans.
    unit.next_us.reserve(size_t{1} << 22);
    if (!have_layers) {
      spans.reserve(setup.spans.size() + (size_t{1} << 20));
      spans = setup.spans;
      unit.spans = &spans;
    }
    const IoTotals io0 = ReadIoTotals();
    workload->RunUnit(&unit, &metrics);
    const IoTotals io = ReadIoTotals() - io0;
    workload->CheckUnit(&unit);
    Accumulate(unit, &traced);
    if (have_layers) continue;
    have_layers = true;

    layers.stats = unit.stats;
    layers.lib = metrics.Summary();
    layers.io = io;
    layers.wall_s = unit.timed_s;
    layers.cpu_s = unit.cpu_s;
    workload->CollectLayers(unit, &layers, report);
    if (sink.dropped() != 0) {
      report->Fail("trace sink dropped " + std::to_string(sink.dropped()) +
                   " events");
    }
    if (unit.min_coverage < 0.9) {
      report->Fail("benchmark spans cover only " +
                   std::to_string(unit.min_coverage) +
                   " of a query of at least 1 ms");
    }
    const std::string trace_path =
        cfg.out_dir + "/trace_" + cfg.workload + ".json";
    const std::string table_path =
        cfg.out_dir + "/selftime_" + cfg.workload + ".txt";
    std::string table;
    if (!WriteTrace(sink, mark, spans, setup.origin_ns, trace_path,
                    table_path, &table)) {
      report->Fail("cannot write " + trace_path);
    }
    std::printf("traced unit: %llu queries, %zu library events, %zu spans, "
                "min span coverage (queries >= 1 ms) %.4f\n",
                static_cast<unsigned long long>(unit.queries), sink.size() - 1,
                spans.size(), unit.min_coverage);
    std::printf("chrome trace: %s\nself time per span (%s):\n%s",
                trace_path.c_str(), table_path.c_str(), table.c_str());
  } while (untraced.timed_s + traced.timed_s < cfg.seconds);

  AddPerLayer(layers, sampler.Finish(), setup.tree_pages,
              untraced.results_per_s(), traced.results_per_s(), report);
  report->attempted = untraced.queries + traced.queries;
  report->failed = untraced.failed + traced.failed;
}

}  // namespace perfbench
