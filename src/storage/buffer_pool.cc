#include "storage/buffer_pool.h"

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "util/check.h"

namespace sdj::storage {
namespace {

inline void Bump(std::atomic<uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

// Frame::page_id is read under lru_mu_ right after an LRU pop, and that pop
// can be stale: an Unpin may re-queue a frame that an evictor has already
// popped and is about to evict and reuse, so the reader can run while the
// evictor or the frame's next loader writes the field. Every access that can
// meet such a reader is therefore atomic. Relaxed order suffices: the value
// read is only a guess that EvictVictim re-verifies under the shard lock.
PageId LoadPageId(PageId& page_id) {
  return std::atomic_ref<PageId>(page_id).load(std::memory_order_relaxed);
}
void StorePageId(PageId& page_id, PageId value) {
  std::atomic_ref<PageId>(page_id).store(value, std::memory_order_relaxed);
}

}  // namespace

BufferPool::BufferPool(std::unique_ptr<PageFile> file, uint32_t capacity_pages,
                       const RetryPolicy& retry)
    : file_(std::move(file)),
      capacity_(capacity_pages),
      page_size_([this] {
        SDJ_CHECK(file_ != nullptr);
        return file_->page_size();
      }()),
      retry_(retry) {
  SDJ_CHECK(capacity_ > 0);
  SDJ_CHECK(retry_.max_attempts >= 1);
  frames_.resize(capacity_);
  free_frames_.reserve(capacity_);
  for (uint32_t i = 0; i < capacity_; ++i) {
    frames_[i].data = std::make_unique<char[]>(page_size_);
    free_frames_.push_back(capacity_ - 1 - i);  // hand out frame 0 first
  }
}

BufferPool::~BufferPool() { FlushAll(); }

PageId BufferPool::num_pages() const {
  std::lock_guard<std::mutex> file_lock(file_mu_);
  return file_->num_pages();
}

IoStatus BufferPool::ReadWithRetry(PageId id, char* buffer) {
  obs::PhaseTimer timer(metrics(), obs::Op::kPageRead);
  IoStatus status = IoStatus::kOk;
  for (uint32_t attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    if (attempt > 0) {
      Bump(stats_.read_retries);
      if (retry_.backoff_us > 0) {
        ::usleep(retry_.backoff_us << (attempt - 1));
      }
    }
    Bump(stats_.physical_reads);
    {
      std::lock_guard<std::mutex> file_lock(file_mu_);
      status = file_->Read(id, buffer);
    }
    if (status == IoStatus::kOk) return status;
    if (status == IoStatus::kCorrupt) Bump(stats_.checksum_failures);
    if (status == IoStatus::kFailed) break;  // retrying cannot help
  }
  Bump(stats_.read_failures);
  return status;
}

IoStatus BufferPool::WriteWithRetry(PageId id, const char* buffer) {
  obs::PhaseTimer timer(metrics(), obs::Op::kPageWrite);
  IoStatus status = IoStatus::kOk;
  for (uint32_t attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    if (attempt > 0) {
      Bump(stats_.write_retries);
      if (retry_.backoff_us > 0) {
        ::usleep(retry_.backoff_us << (attempt - 1));
      }
    }
    Bump(stats_.physical_writes);
    {
      std::lock_guard<std::mutex> file_lock(file_mu_);
      status = file_->Write(id, buffer);
    }
    if (status == IoStatus::kOk) return status;
    if (status == IoStatus::kFailed) break;  // retrying cannot help
  }
  Bump(stats_.write_failures);
  return status;
}

char* BufferPool::TryNewPage(PageId* id, IoStatus* status) {
  SDJ_CHECK(id != nullptr);
  IoStatus local = IoStatus::kOk;
  if (status == nullptr) status = &local;
  *status = IoStatus::kOk;
  {
    std::lock_guard<std::mutex> file_lock(file_mu_);
    *id = file_->Allocate();
  }
  if (*id == kInvalidPageId) {
    Bump(stats_.write_failures);
    *status = IoStatus::kFailed;
    return nullptr;
  }
  const uint32_t frame_index = GrabFrame(status);
  if (frame_index == kNoFrame) return nullptr;
  Frame& frame = frames_[frame_index];
  StorePageId(frame.page_id, *id);
  frame.pin_count = 1;
  frame.dirty = true;  // fresh pages must reach the file eventually
  frame.busy = false;
  std::memset(frame.data.get(), 0, page_size_);
  Shard& shard = ShardOf(*id);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.table[*id] = frame_index;  // a fresh id has no waiters
  }
  in_flight_frames_.fetch_sub(1, std::memory_order_release);
  Bump(stats_.logical_reads);
  Bump(stats_.buffer_misses);  // a new page never hits the cache
  return frame.data.get();
}

char* BufferPool::TryPin(PageId id, IoStatus* status) {
  IoStatus local = IoStatus::kOk;
  if (status == nullptr) status = &local;
  *status = IoStatus::kOk;
  Bump(stats_.logical_reads);
  Shard& shard = ShardOf(id);
  std::unique_lock<std::mutex> lock(shard.mu);
  for (;;) {
    auto it = shard.table.find(id);
    if (it == shard.table.end()) break;  // not resident: load it below
    if (it->second == kNoFrame) {        // another thread is loading it
      shard.cv.wait(lock);
      continue;
    }
    Frame& frame = frames_[it->second];
    if (frame.busy) {  // an evictor is writing it back; page is leaving
      shard.cv.wait(lock);
      continue;
    }
    ++frame.pin_count;
    if (frame.pin_count == 1) {
      std::lock_guard<std::mutex> lru_lock(lru_mu_);
      if (frame.in_lru) {
        lru_.erase(frame.lru_pos);
        frame.in_lru = false;
      }
    }
    Bump(stats_.buffer_hits);
    return frame.data.get();
  }
  // Claim the load so concurrent pins of `id` wait instead of reading the
  // page twice into two frames.
  shard.table[id] = kNoFrame;
  Bump(stats_.buffer_misses);
  lock.unlock();
  const uint32_t frame_index = GrabFrame(status);
  if (frame_index == kNoFrame) {
    lock.lock();
    shard.table.erase(id);
    shard.cv.notify_all();  // a waiter becomes the next loader
    return nullptr;
  }
  Frame& frame = frames_[frame_index];
  *status = ReadWithRetry(id, frame.data.get());
  if (*status != IoStatus::kOk) {
    {
      std::lock_guard<std::mutex> lru_lock(lru_mu_);
      free_frames_.push_back(frame_index);  // frame was never published
    }
    in_flight_frames_.fetch_sub(1, std::memory_order_release);
    lock.lock();
    shard.table.erase(id);
    shard.cv.notify_all();
    return nullptr;
  }
  StorePageId(frame.page_id, id);
  frame.pin_count = 1;
  frame.dirty = false;
  frame.busy = false;
  lock.lock();
  shard.table[id] = frame_index;
  shard.cv.notify_all();
  in_flight_frames_.fetch_sub(1, std::memory_order_release);
  return frame.data.get();
}

char* BufferPool::NewPage(PageId* id) {
  IoStatus status = IoStatus::kOk;
  char* data = TryNewPage(id, &status);
  SDJ_CHECK(data != nullptr);
  return data;
}

char* BufferPool::Pin(PageId id) {
  IoStatus status = IoStatus::kOk;
  char* data = TryPin(id, &status);
  SDJ_CHECK(data != nullptr);
  return data;
}

void BufferPool::Unpin(PageId id, bool dirty) {
  Shard& shard = ShardOf(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.table.find(id);
  SDJ_CHECK(it != shard.table.end() && it->second != kNoFrame);
  Frame& frame = frames_[it->second];
  SDJ_CHECK(frame.pin_count > 0);
  frame.dirty = frame.dirty || dirty;
  if (--frame.pin_count == 0) {
    std::lock_guard<std::mutex> lru_lock(lru_mu_);
    lru_.push_back(it->second);
    frame.lru_pos = std::prev(lru_.end());
    frame.in_lru = true;
  }
}

bool BufferPool::FlushAll() {
  bool ok = true;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& [page_id, frame_index] : shard.table) {
      if (frame_index == kNoFrame) continue;  // load in progress elsewhere
      Frame& frame = frames_[frame_index];
      // A busy frame's evictor is already writing it back.
      if (!frame.dirty || frame.busy) continue;
      if (WriteWithRetry(page_id, frame.data.get()) == IoStatus::kOk) {
        frame.dirty = false;
      } else {
        ok = false;  // stays dirty; a later flush may still succeed
      }
    }
  }
  obs::PhaseTimer timer(metrics(), obs::Op::kPageSync);
  std::lock_guard<std::mutex> file_lock(file_mu_);
  if (file_->Sync() != IoStatus::kOk) ok = false;
  return ok;
}

void BufferPool::Invalidate() {
  // A failed eviction re-queues its frame at the LRU tail still dirty, so
  // bound the sweep to one pass over the current candidates.
  size_t candidates = 0;
  {
    std::lock_guard<std::mutex> lock(lru_mu_);
    candidates = lru_.size();
  }
  while (candidates-- > 0) {
    uint32_t victim = kNoFrame;
    PageId victim_page = kInvalidPageId;
    {
      std::lock_guard<std::mutex> lock(lru_mu_);
      if (lru_.empty()) break;
      victim = lru_.front();
      lru_.pop_front();
      frames_[victim].in_lru = false;
      victim_page = LoadPageId(frames_[victim].page_id);
    }
    EvictVictim(victim, victim_page, /*to_free_list=*/true);
  }
}

uint32_t BufferPool::GrabFrame(IoStatus* status) {
  // Bounded patience before declaring capacity exhaustion: frames held by
  // concurrent loads and evictions (in_flight_frames_) get published or
  // freed shortly, and a racing Unpin may re-stock the LRU just after we
  // looked. A genuine all-pinned state never changes on its own, so the
  // abort still fires — after a beat, instead of instantly.
  int barren_observations = 0;
  for (;;) {
    size_t candidates = 0;
    {
      std::lock_guard<std::mutex> lock(lru_mu_);
      if (!free_frames_.empty()) {
        const uint32_t index = free_frames_.back();
        free_frames_.pop_back();
        in_flight_frames_.fetch_add(1, std::memory_order_relaxed);
        return index;
      }
      candidates = lru_.size();
      if (candidates == 0 &&
          in_flight_frames_.load(std::memory_order_acquire) == 0) {
        ++barren_observations;
        // Every frame pinned => capacity exhausted: a programming error.
        SDJ_CHECK(barren_observations < 1024);
      }
    }
    if (candidates == 0) {
      std::this_thread::yield();
      continue;
    }
    barren_observations = 0;
    // Evict the least recently used unpinned page. Victims whose write-back
    // fails are re-queued dirty at the tail; try each candidate once.
    size_t attempts = 0;
    size_t write_failures = 0;
    while (candidates-- > 0) {
      uint32_t victim = kNoFrame;
      PageId victim_page = kInvalidPageId;
      {
        std::lock_guard<std::mutex> lock(lru_mu_);
        if (!free_frames_.empty()) {  // a concurrent eviction freed one
          const uint32_t index = free_frames_.back();
          free_frames_.pop_back();
          in_flight_frames_.fetch_add(1, std::memory_order_relaxed);
          return index;
        }
        if (lru_.empty()) break;  // drained by concurrent grabs; reassess
        victim = lru_.front();
        lru_.pop_front();
        frames_[victim].in_lru = false;
        victim_page = LoadPageId(frames_[victim].page_id);
      }
      ++attempts;
      switch (EvictVictim(victim, victim_page, /*to_free_list=*/false)) {
        case EvictResult::kEvicted:
          in_flight_frames_.fetch_add(1, std::memory_order_relaxed);
          return victim;
        case EvictResult::kWriteFailed:
          ++write_failures;
          break;
        case EvictResult::kSkipped:
          break;  // a racing pinner owns the frame now
      }
    }
    if (attempts > 0 && write_failures == attempts) {
      // A full pass where every candidate's write-back failed: no frame can
      // be freed right now.
      *status = IoStatus::kFailed;
      return kNoFrame;
    }
  }
}

BufferPool::EvictResult BufferPool::EvictVictim(uint32_t victim,
                                                PageId expected_page,
                                                bool to_free_list) {
  Frame& frame = frames_[victim];
  Shard& shard = ShardOf(expected_page);
  std::unique_lock<std::mutex> lock(shard.mu);
  // The LRU pop does not make us the frame's exclusive owner: between the
  // pop and this lock a pinner can revive the page (pin_count > 0), and a
  // full revive/unpin/re-evict cycle can even hand the frame to a brand-new
  // owner loading a different page. Re-verify identity under the shard lock
  // before touching any frame state; on any mismatch the frame belongs to
  // someone else now.
  const auto it = shard.table.find(expected_page);
  if (it == shard.table.end() || it->second != victim || frame.busy ||
      frame.pin_count > 0) {
    return EvictResult::kSkipped;
  }
  const PageId page_id = expected_page;
  if (frame.dirty) {
    frame.busy = true;  // park pinners on the shard cv during write-back
    lock.unlock();
    const IoStatus write_status = WriteWithRetry(page_id, frame.data.get());
    lock.lock();
    frame.busy = false;
    shard.cv.notify_all();
    if (write_status != IoStatus::kOk) {
      // Keep the only good copy of the page: stay resident, retry later.
      lock.unlock();
      std::lock_guard<std::mutex> lru_lock(lru_mu_);
      lru_.push_back(victim);
      frame.lru_pos = std::prev(lru_.end());
      frame.in_lru = true;
      return EvictResult::kWriteFailed;
    }
    frame.dirty = false;
  }
  shard.table.erase(page_id);
  StorePageId(frame.page_id, kInvalidPageId);
  shard.cv.notify_all();  // waiters re-find and take the miss path
  lock.unlock();
  if (to_free_list) {
    std::lock_guard<std::mutex> lru_lock(lru_mu_);
    free_frames_.push_back(victim);
  }
  return EvictResult::kEvicted;
}

IoStats BufferPool::stats() const {
  IoStats s;
  s.logical_reads = stats_.logical_reads.load(std::memory_order_relaxed);
  s.buffer_hits = stats_.buffer_hits.load(std::memory_order_relaxed);
  s.buffer_misses = stats_.buffer_misses.load(std::memory_order_relaxed);
  s.physical_reads = stats_.physical_reads.load(std::memory_order_relaxed);
  s.physical_writes = stats_.physical_writes.load(std::memory_order_relaxed);
  s.read_retries = stats_.read_retries.load(std::memory_order_relaxed);
  s.write_retries = stats_.write_retries.load(std::memory_order_relaxed);
  s.checksum_failures =
      stats_.checksum_failures.load(std::memory_order_relaxed);
  s.read_failures = stats_.read_failures.load(std::memory_order_relaxed);
  s.write_failures = stats_.write_failures.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::ResetStats() {
  stats_.logical_reads.store(0, std::memory_order_relaxed);
  stats_.buffer_hits.store(0, std::memory_order_relaxed);
  stats_.buffer_misses.store(0, std::memory_order_relaxed);
  stats_.physical_reads.store(0, std::memory_order_relaxed);
  stats_.physical_writes.store(0, std::memory_order_relaxed);
  stats_.read_retries.store(0, std::memory_order_relaxed);
  stats_.write_retries.store(0, std::memory_order_relaxed);
  stats_.checksum_failures.store(0, std::memory_order_relaxed);
  stats_.read_failures.store(0, std::memory_order_relaxed);
  stats_.write_failures.store(0, std::memory_order_relaxed);
}

}  // namespace sdj::storage
