// Persistent worker pool for the join engine's parallel expansion mode.
//
// The primitive is ParallelFor, which splits an index range into one
// statically computed shard per thread: shard t of T owns exactly
// [t*n/T, (t+1)*n/T) and runs on thread t. The split depends only on
// (n, T), never on timing, so a caller that writes results into
// slot-indexed output arrays gets the same arrays for any interleaving —
// the foundation of the engine's determinism guarantee (DESIGN.md §10). The
// calling thread executes shard 0 itself; the pool's threads take the rest
// and the call returns only when every shard has finished (the completion
// handshake gives the caller a happens-before edge over all shard writes).
//
// Every shard is invoked, empty ranges included, so the shards can meet at
// Rendezvous() halfway through — the engine counts each
// shard's survivors, rendezvouses, and then builds with the prefix counts.
#ifndef SDJOIN_UTIL_THREAD_POOL_H_
#define SDJOIN_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/check.h"

namespace sdj::util {

class ThreadPool {
 public:
  // fn(shard, begin, end) of ParallelFor.
  using ShardFn = std::function<void(size_t, size_t, size_t)>;

  // Spawns num_threads - 1 worker threads (the caller is the extra one).
  // num_threads >= 1; a pool of 1 runs everything inline.
  explicit ThreadPool(int num_threads) : num_threads_(num_threads) {
    SDJ_CHECK(num_threads >= 1);
    workers_.reserve(num_threads - 1);
    for (int t = 1; t < num_threads; ++t) {
      workers_.emplace_back([this, t] { WorkerLoop(t); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs fn(shard, begin, end) once for every shard in [0, num_threads())
  // — including shards whose range is empty — and blocks until all of them
  // are done. fn must be safe to call concurrently on disjoint ranges. Not
  // reentrant: fn must not call ParallelFor on the same pool.
  void ParallelFor(size_t n, const ShardFn& fn) {
    if (workers_.empty()) {
      fn(0, 0, n);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      SDJ_CHECK(pending_ == 0);  // reentrancy / overlapping calls
      work_fn_ = &fn;
      work_n_ = n;
      pending_ = static_cast<int>(workers_.size());
      ++generation_;
    }
    work_cv_.notify_all();
    RunShard(fn, n, 0);
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    work_fn_ = nullptr;
  }

  // Blocks the calling shard until every shard of the running ParallelFor
  // has called Rendezvous, and orders every shard's writes
  // before the call before every shard's reads after it. Each shard must
  // call it the same number of times. Threads beyond the core count only
  // make the wait longer: every shard has its own thread, so the last one
  // always arrives.
  void Rendezvous() {
    if (workers_.empty()) return;
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t round = rendezvous_round_;
    if (++rendezvous_arrived_ == num_threads_) {
      rendezvous_arrived_ = 0;
      ++rendezvous_round_;
      lock.unlock();
      rendezvous_cv_.notify_all();
      return;
    }
    rendezvous_cv_.wait(lock, [&] { return rendezvous_round_ != round; });
  }

 private:
  void RunShard(const ShardFn& fn, size_t n, int t) const {
    const size_t threads = workers_.size() + 1;
    const size_t shard = static_cast<size_t>(t);
    fn(shard, n * shard / threads, n * (shard + 1) / threads);
  }

  void WorkerLoop(int t) {
    uint64_t seen = 0;
    for (;;) {
      const ShardFn* fn = nullptr;
      size_t n = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock,
                      [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_) return;
        seen = generation_;
        fn = work_fn_;
        n = work_n_;
      }
      RunShard(*fn, n, t);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--pending_ == 0) done_cv_.notify_one();
      }
    }
  }

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  size_t work_n_ = 0;
  const ShardFn* work_fn_ = nullptr;
  int pending_ = 0;
  std::condition_variable rendezvous_cv_;
  int rendezvous_arrived_ = 0;
  uint64_t rendezvous_round_ = 0;
  bool shutdown_ = false;
};

}  // namespace sdj::util

#endif  // SDJOIN_UTIL_THREAD_POOL_H_
