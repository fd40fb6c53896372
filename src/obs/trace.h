// Chrome trace_event sink (DESIGN.md §12).
//
// TraceSink buffers "complete" events ({"ph": "X"}) in memory and writes
// them as one Chrome-trace JSON document that chrome://tracing and Perfetto
// open directly. Timestamps are monotonic-clock nanoseconds relative to the
// sink's creation, emitted in the trace_event spec's microsecond unit.
//
// The buffer is bounded: once `max_events` events are held, further events
// are dropped and counted (never silently), and the drop count is written
// into the trace's otherData block. Event names must be string literals (or
// otherwise outlive the sink) — PhaseTimer passes OpName() constants.
//
// Thread-safety: AddComplete may be called from any thread; each thread is
// assigned a small dense tid on first use so the trace viewer groups its
// events on one track.
#ifndef SDJOIN_OBS_TRACE_H_
#define SDJOIN_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace sdj::obs {

// Monotonic nanoseconds since an arbitrary epoch (steady clock): the shared
// timebase of every PhaseTimer and trace event.
inline uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// See file comment.
class TraceSink {
 public:
  static constexpr size_t kDefaultMaxEvents = 1u << 20;

  explicit TraceSink(size_t max_events = kDefaultMaxEvents)
      : max_events_(max_events), origin_ns_(MonotonicNowNs()) {}

  // Records one complete event. `name` must outlive the sink.
  void AddComplete(const char* name, uint64_t start_ns, uint64_t duration_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.size() >= max_events_) {
      ++dropped_;
      return;
    }
    events_.push_back(Event{name, start_ns, duration_ns, TidLocked()});
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
  }
  uint64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

  // Writes the buffered events as Chrome-trace JSON. Returns false if the
  // file could not be written.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(f, "{\n  \"displayTimeUnit\": \"ms\",\n");
    std::fprintf(f,
                 "  \"otherData\": {\"tool\": \"sdjoin\", "
                 "\"dropped_events\": %llu},\n",
                 static_cast<unsigned long long>(dropped_));
    std::fprintf(f, "  \"traceEvents\": [\n");
    for (size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      // A timer started before the sink existed clamps to ts 0.
      const uint64_t rel_ns =
          e.start_ns >= origin_ns_ ? e.start_ns - origin_ns_ : 0;
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"cat\": \"sdjoin\", "
                   "\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                   "\"ts\": %.3f, \"dur\": %.3f}%s\n",
                   e.name, e.tid, static_cast<double>(rel_ns) / 1e3,
                   static_cast<double>(e.duration_ns) / 1e3,
                   i + 1 < events_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Event {
    const char* name;
    uint64_t start_ns;
    uint64_t duration_ns;
    uint32_t tid;
  };

  uint32_t TidLocked() {
    const auto id = std::this_thread::get_id();
    auto it = tids_.find(id);
    if (it != tids_.end()) return it->second;
    const uint32_t tid = static_cast<uint32_t>(tids_.size() + 1);
    tids_.emplace(id, tid);
    return tid;
  }

  const size_t max_events_;
  const uint64_t origin_ns_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::map<std::thread::id, uint32_t> tids_;
  uint64_t dropped_ = 0;
};

}  // namespace sdj::obs

#endif  // SDJOIN_OBS_TRACE_H_
