// Measurement plumbing shared by every workload: raw-sample percentiles,
// the metric report and its JSON result line, benchmark-side spans, the
// Chrome trace / self-time writer, and process counters (CPU, peak RSS,
// durable writes and syncs).
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

inline uint64_t NowNs() { return sdj::obs::MonotonicNowNs(); }

// SplitMix64: the benchmark's only source of randomness, so a seed fixes
// every input on every platform.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// Percentile of raw samples, p in [0, 1], by linear interpolation between
// the two nearest ranks (NumPy's default). No bucketing: the value is one
// of the samples or lies between two adjacent ones. 0 for no samples.
double Percentile(std::vector<double> samples, double p);

// Median of a handful of values (set-up repetitions).
double Median(std::vector<double> values);

// Geometric mean of positive values; 0 if there are none or any is not
// positive.
double GeoMean(const std::vector<double>& values);

// One named metric of a run.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // human-readable provenance, e.g. "p50 of 1234 samples"
  bool in_result = true;  // false: printed, but not part of the result line
};

// Ordered metrics of one run plus the pass/fail tally behind the result line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  // Printed for the reader only; the result line leaves it out.
  void AddInfo(const std::string& name, double value, const std::string& unit,
               const std::string& note = "");
  // Adds "<name>" as percentile `p` of `samples`, noting the sample count.
  void AddPercentile(const std::string& name, const std::vector<double>& samples,
                     double p, const std::string& unit);

  // Records a failed check that is not a query failure (trace
  // reconciliation, coverage, dropped events); it makes the run incorrect.
  void Fail(const std::string& why);
  const std::vector<std::string>& failures() const { return failures_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Prints every metric as a readable line, then the result line: one JSON
  // object with correct / attempted / failed / metrics.
  void Print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

// A benchmark-side span around one public call. `query` ties the spans of
// one query (or serving session) together; 0 = not part of a query.
struct Span {
  const char* name;  // string literal
  uint64_t start_ns;
  uint64_t dur_ns;
  uint64_t query;
};

// Durable-storage traffic seen at the process boundary: every pwrite and
// fsync the program issues (the interposers live in harness.cc).
struct IoTotals {
  uint64_t writes = 0;
  uint64_t write_bytes = 0;
  uint64_t write_ns = 0;
  uint64_t syncs = 0;
  uint64_t sync_ns = 0;
};
IoTotals ReadIoTotals();
IoTotals operator-(const IoTotals& a, const IoTotals& b);

// User + system CPU seconds of the whole process (all threads).
double CpuSeconds();
// Restarts the process's peak-resident-set mark at its current RSS (Linux
// /proc/self/clear_refs). Returns false where that is not supported.
bool ResetPeakRss();
// Peak resident set of the process since the last reset (or since start),
// in MB.
double PeakRssMb();

// Name of the zero-length event that aligns a sink's clock with ours.
inline constexpr char kClockMark[] = "bench.clock_mark";

// Merges the benchmark spans with the library's trace events from `sink`
// into one Chrome trace at `trace_path`, and writes a per-name self-time
// table (duration minus the time covered by directly nested events) to
// `table_path`. The sink must hold one kClockMark event recorded at
// `mark_ns`; `spans_origin_ns` is time zero of the merged trace. Set-up
// spans (query 0) are listed but left out of the self-time shares. Returns
// false on I/O failure.
bool WriteTrace(const sdj::obs::TraceSink& sink, uint64_t mark_ns,
                const std::vector<Span>& spans, uint64_t spans_origin_ns,
                const std::string& trace_path, const std::string& table_path,
                std::string* table);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
