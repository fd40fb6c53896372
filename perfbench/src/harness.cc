#include "harness.h"

#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

namespace perfbench {

namespace {

std::atomic<uint64_t> g_writes{0};
std::atomic<uint64_t> g_write_bytes{0};
std::atomic<uint64_t> g_write_ns{0};
std::atomic<uint64_t> g_syncs{0};
std::atomic<uint64_t> g_sync_ns{0};

}  // namespace

}  // namespace perfbench

// Durable-write interposers. The library's file-backed page stores write
// pages with pwrite and make them durable with fsync (storage/page_file.cc);
// defining both here binds the library's calls to these wrappers at link
// time, so the benchmark counts and times the storage layer's device
// traffic without touching library code. Each forwards to the system call.
extern "C" ssize_t pwrite(int fd, const void* buf, size_t count,
                          off_t offset) {
  const uint64_t start = perfbench::NowNs();
  const ssize_t n = static_cast<ssize_t>(
      ::syscall(SYS_pwrite64, fd, buf, count, offset));
  perfbench::g_write_ns.fetch_add(perfbench::NowNs() - start,
                                  std::memory_order_relaxed);
  perfbench::g_writes.fetch_add(1, std::memory_order_relaxed);
  if (n > 0) {
    perfbench::g_write_bytes.fetch_add(static_cast<uint64_t>(n),
                                       std::memory_order_relaxed);
  }
  return n;
}

extern "C" int fsync(int fd) {
  const uint64_t start = perfbench::NowNs();
  const int rc = static_cast<int>(::syscall(SYS_fsync, fd));
  perfbench::g_sync_ns.fetch_add(perfbench::NowNs() - start,
                                 std::memory_order_relaxed);
  perfbench::g_syncs.fetch_add(1, std::memory_order_relaxed);
  return rc;
}

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void Report::Add(const std::string& name, double value, const std::string& unit,
                 const std::string& note) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit, note, true});
}

void Report::AddInfo(const std::string& name, double value,
                     const std::string& unit, const std::string& note) {
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit, note,
                      false});
}

void Report::AddPercentile(const std::string& name,
                           const std::vector<double>& samples, double p,
                           const std::string& unit) {
  char note[96];
  std::snprintf(note, sizeof(note), "p%g of %zu raw samples", p * 100.0,
                samples.size());
  if (samples.empty()) Fail("metric " + name + " has no samples");
  Add(name, Percentile(samples, p), unit, note);
}

void Report::Fail(const std::string& why) { failures_.push_back(why); }

void Report::Print() const {
  for (const Metric& m : metrics_) {
    std::printf("%-34s %16.6f %-6s %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str(),
                m.in_result ? "" : "  (not in result line)");
  }
  for (const std::string& f : failures_) std::printf("CHECK FAILED: %s\n", f.c_str());
  const bool correct = failed == 0 && failures_.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const Metric& m : metrics_) {
    if (!m.in_result) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

IoTotals ReadIoTotals() {
  IoTotals t;
  t.writes = g_writes.load(std::memory_order_relaxed);
  t.write_bytes = g_write_bytes.load(std::memory_order_relaxed);
  t.write_ns = g_write_ns.load(std::memory_order_relaxed);
  t.syncs = g_syncs.load(std::memory_order_relaxed);
  t.sync_ns = g_sync_ns.load(std::memory_order_relaxed);
  return t;
}

IoTotals operator-(const IoTotals& a, const IoTotals& b) {
  return {a.writes - b.writes, a.write_bytes - b.write_bytes,
          a.write_ns - b.write_ns, a.syncs - b.syncs, a.sync_ns - b.sync_ns};
}

double CpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMb() {
  // VmHWM follows ResetPeakRss; getrusage's ru_maxrss never goes down.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (kb < 0 && std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) != 1) kb = -1;
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

namespace {

struct Event {
  int name;  // index into the name table
  uint32_t tid;
  int64_t start_ns;
  int64_t dur_ns;
  uint64_t query;  // 0 for library events
  bool bench;
};

struct NameStats {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

// Reads back the events TraceSink::WriteJson wrote, one per line, and
// moves them onto the spans' clock using the kClockMark event.
bool ReadLibraryEvents(const std::string& path, int64_t mark_ns,
                       std::map<std::string, int>* names,
                       std::vector<std::string>* name_list,
                       std::vector<Event>* events) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  const size_t first = events->size();
  int64_t shift_ns = 0;
  bool marked = false;
  char line[512];
  char name[128];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned tid = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;
    if (std::sscanf(line,
                    " {\"name\": \"%127[^\"]\", \"cat\": \"sdjoin\", \"ph\": "
                    "\"X\", \"pid\": 1, \"tid\": %u, \"ts\": %lf, \"dur\": %lf",
                    name, &tid, &ts_us, &dur_us) != 4) {
      continue;
    }
    if (std::strcmp(name, kClockMark) == 0) {
      shift_ns = mark_ns - std::llround(ts_us * 1e3);
      marked = true;
      continue;
    }
    auto [it, inserted] = names->emplace(name, static_cast<int>(names->size()));
    if (inserted) name_list->push_back(name);
    events->push_back({it->second, tid, std::llround(ts_us * 1e3),
                       std::llround(dur_us * 1e3), 0, false});
  }
  std::fclose(f);
  for (size_t i = first; i < events->size(); ++i) {
    (*events)[i].start_ns += shift_ns;
  }
  return marked;
}

}  // namespace

bool WriteTrace(const sdj::obs::TraceSink& sink, uint64_t mark_ns,
                const std::vector<Span>& spans, uint64_t spans_origin_ns,
                const std::string& trace_path, const std::string& table_path,
                std::string* table) {
  std::map<std::string, int> names;
  std::vector<std::string> name_list;
  std::vector<Event> events;
  for (const Span& s : spans) {
    auto [it, inserted] = names.emplace(s.name, static_cast<int>(names.size()));
    if (inserted) name_list.push_back(s.name);
    events.push_back({it->second, 1,
                      static_cast<int64_t>(s.start_ns - spans_origin_ns),
                      static_cast<int64_t>(s.dur_ns), s.query, true});
  }
  const std::string lib_path = trace_path + ".library.tmp";
  if (!sink.WriteJson(lib_path)) return false;
  const bool read_ok = ReadLibraryEvents(
      lib_path,
      static_cast<int64_t>(mark_ns) - static_cast<int64_t>(spans_origin_ns),
      &names, &name_list, &events);
  std::remove(lib_path.c_str());
  if (!read_ok) return false;

  // Self time: per thread, walk events by start (longer first on ties) with
  // a stack of open events; each event's duration is charged to its
  // innermost enclosing event as child time.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    if (a.dur_ns != b.dur_ns) return a.dur_ns > b.dur_ns;
    return a.bench && !b.bench;
  });
  std::vector<NameStats> stats(name_list.size());
  std::vector<int64_t> child_ns(events.size(), 0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    while (!stack.empty()) {
      const Event& top = events[stack.back()];
      if (top.tid == e.tid && top.start_ns + top.dur_ns > e.start_ns) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      const Event& parent = events[stack.back()];
      const int64_t end = std::min(e.start_ns + e.dur_ns,
                                   parent.start_ns + parent.dur_ns);
      child_ns[stack.back()] += end - e.start_ns;
    }
    stack.push_back(i);
  }
  int64_t self_total = 0;
  std::vector<bool> setup(name_list.size(), false);
  for (size_t i = 0; i < events.size(); ++i) {
    NameStats& s = stats[events[i].name];
    ++s.count;
    s.total_ns += events[i].dur_ns;
    const int64_t self = std::max<int64_t>(0, events[i].dur_ns - child_ns[i]);
    s.self_ns += self;
    if (events[i].bench && events[i].query == 0) {
      setup[events[i].name] = true;
    } else {
      self_total += self;
    }
  }
  std::vector<size_t> order(name_list.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return stats[a].self_ns > stats[b].self_ns;
  });
  table->clear();
  char row[256];
  std::snprintf(row, sizeof(row), "%-20s %10s %12s %12s %7s\n", "span", "count",
                "total_ms", "self_ms", "self%");
  *table += row;
  for (size_t i : order) {
    std::snprintf(row, sizeof(row), "%-20s %10llu %12.3f %12.3f %6.2f%%\n",
                  name_list[i].c_str(),
                  static_cast<unsigned long long>(stats[i].count),
                  static_cast<double>(stats[i].total_ns) * 1e-6,
                  static_cast<double>(stats[i].self_ns) * 1e-6,
                  setup[i] || self_total == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(stats[i].self_ns) /
                            static_cast<double>(self_total));
    *table += row;
  }
  std::FILE* tf = std::fopen(table_path.c_str(), "w");
  if (tf == nullptr) return false;
  std::fputs(table->c_str(), tf);
  if (std::fclose(tf) != 0) return false;

  std::FILE* f = std::fopen(trace_path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f",
                 name_list[e.name].c_str(), e.bench ? "bench" : "sdjoin", e.tid,
                 static_cast<double>(e.start_ns) * 1e-3,
                 static_cast<double>(e.dur_ns) * 1e-3);
    if (e.query != 0) {
      std::fprintf(f, ", \"args\": {\"query\": %llu}",
                   static_cast<unsigned long long>(e.query));
    }
    std::fprintf(f, "}%s\n", i + 1 < events.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
