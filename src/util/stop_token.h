// Cooperative cancellation with optional deadlines, for suspending the
// incremental join iterators at safe points (DESIGN.md §11).
//
// A StopSource owns the shared stop state; StopTokens are cheap copies
// handed to the iterators, which poll stop_requested() once per main-loop
// iteration (an "expansion boundary"). Polling at that granularity keeps the
// parallel engine output-identical to the serial one: workers never observe
// the token, only the serial pop loop does.
//
// A default-constructed StopToken has no state and never requests a stop, so
// queries that do not opt into suspension pay one null check per iteration.
#ifndef SDJOIN_UTIL_STOP_TOKEN_H_
#define SDJOIN_UTIL_STOP_TOKEN_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

namespace sdj::util {

class StopSource;

// Observer half of a StopSource. Copyable; thread-safe.
class StopToken {
 public:
  StopToken() = default;

  // True if this token is connected to a StopSource at all.
  bool stop_possible() const { return state_ != nullptr; }

  // True once the source requested a stop or its deadline passed.
  bool stop_requested() const {
    if (state_ == nullptr) return false;
    if (state_->stopped.load(std::memory_order_relaxed)) return true;
    const int64_t deadline = state_->deadline_ns.load(std::memory_order_relaxed);
    if (deadline == kNoDeadline) return false;
    return NowNanos() >= deadline;
  }

 private:
  friend class StopSource;

  struct State {
    std::atomic<bool> stopped{false};
    std::atomic<int64_t> deadline_ns{kNoDeadline};
  };

  static constexpr int64_t kNoDeadline =
      std::numeric_limits<int64_t>::max();

  static int64_t NowNanos() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  explicit StopToken(std::shared_ptr<const State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const State> state_;
};

// Owner half: requests stops and sets deadlines.
class StopSource {
 public:
  StopSource() : state_(std::make_shared<StopToken::State>()) {}

  StopToken token() const { return StopToken(state_); }

  void RequestStop() {
    state_->stopped.store(true, std::memory_order_relaxed);
  }

  // Stop once the (steady-clock) deadline passes.
  void SetDeadline(std::chrono::steady_clock::time_point deadline) {
    state_->deadline_ns.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline.time_since_epoch())
            .count(),
        std::memory_order_relaxed);
  }

  template <typename Rep, typename Period>
  void SetDeadlineAfter(std::chrono::duration<Rep, Period> delay) {
    SetDeadline(std::chrono::steady_clock::now() + delay);
  }

  // Re-arms the source: clears the stop flag and the deadline, so a resumed
  // iterator does not immediately suspend again.
  void Clear() {
    state_->stopped.store(false, std::memory_order_relaxed);
    state_->deadline_ns.store(StopToken::kNoDeadline,
                              std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<StopToken::State> state_;
};

}  // namespace sdj::util

#endif  // SDJOIN_UTIL_STOP_TOKEN_H_
