// Durable join cursors (DESIGN.md §11): checkpointing, suspend/resume, and
// crash recovery for the incremental join iterators.
//
// A JoinCursor wraps an engine — DistanceJoin or DistanceSemiJoin — and a
// SnapshotStore. It forwards Next(), writing a checkpoint snapshot every
// `checkpoint_every` reported pairs and a final snapshot when the engine
// suspends on its StopToken. A later process (or the same one) constructs
// the identical engine over the same trees and calls ResumeLatest(), which
// loads the newest valid snapshot — falling back past torn or corrupted
// slots — and continues the join. Because the pair comparator is a total
// order, the resumed cursor emits exactly the remaining pair stream an
// uninterrupted run would have produced.
//
// Checkpoint failures degrade, they never abort: a snapshot that cannot be
// written is counted and the previous snapshot stays committed, mirroring
// the hybrid queue's spill-fallback philosophy (CLAUDE.md).
//
//   DistanceJoin<2> join(water, roads, options);        // options.stop_token set
//   JoinCursor<2, DistanceJoin<2>> cursor(&join, {.snapshot_path = "j.snap",
//                                                 .checkpoint_every = 1000});
//   if (resuming) cursor.ResumeLatest();
//   while (cursor.Next(&pair)) Use(pair);
//   // join.status() == kSuspended -> a snapshot is on disk; run again later.
#ifndef SDJOIN_CORE_JOIN_CURSOR_H_
#define SDJOIN_CORE_JOIN_CURSOR_H_

#include <unistd.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "core/join_result.h"
#include "core/snapshot.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "util/check.h"

namespace sdj {

// Construction parameters for one JoinCursor.
struct CursorOptions {
  // Snapshot file; empty keeps snapshots in memory (in-process suspend and
  // tests — no crash recovery).
  std::string snapshot_path;
  // Logical page size of the snapshot store.
  uint32_t page_size = 4096;
  // Write a checkpoint after every N reported pairs (0 = only when the
  // engine suspends).
  uint64_t checkpoint_every = 0;
  // If set, the snapshot store injects faults from this schedule (testing).
  std::optional<storage::FaultInjectionOptions> fault_injection;
  // If set, the snapshot store simulates power loss at one exact write/sync
  // op (testing — see storage::CrashPointPageFile).
  std::optional<storage::CrashPointOptions> crash_point;
  // Bounded-retry policy for transient snapshot-page faults.
  storage::RetryPolicy retry;
  // Bounded retry with exponential backoff for whole checkpoint *commits*:
  // when WriteSnapshot fails (e.g., a torn header under fault injection),
  // the commit is re-attempted — with a fresh shadow-paged write — up to
  // max_attempts times, sleeping backoff_us << (k - 1) before retry k. The
  // default (1 attempt, no sleep) preserves the historical fail-once
  // behavior; the serving layer (DESIGN.md §14) raises it before degrading
  // an unevictable session to pinned-resident.
  storage::RetryPolicy commit_retry{.max_attempts = 1, .backoff_us = 0};
  // Header/payload slots of the snapshot store (>= 2); S slots survive up
  // to S-1 consecutive torn or corrupt commits on resume.
  uint32_t snapshot_slots = 2;
  // Optional observability sink (DESIGN.md §12): the cursor records whole
  // checkpoint (SaveState + commit) and restore latencies, and the snapshot
  // store underneath adds per-commit latency. Null = disabled.
  obs::Metrics* metrics = nullptr;
};

// Cursor-side counters, kept apart from JoinStats so that resumed-run
// statistics stay comparable to an uninterrupted run's.
struct CursorStats {
  uint64_t checkpoints_written = 0;
  // Snapshots that could not be written even after commit_retry attempts;
  // the previous one stays committed.
  uint64_t checkpoint_failures = 0;
  // Commit re-attempts taken after a failed WriteSnapshot (a checkpoint that
  // succeeds on attempt k adds k-1 here and 0 to checkpoint_failures).
  uint64_t checkpoint_retries = 0;
  // Invalid (torn/corrupt) snapshot slots skipped while resuming.
  uint64_t snapshot_fallbacks = 0;
  uint64_t resumes = 0;
};

// See file comment. `Engine` is any best-first engine policy with
// SaveState/RestoreState — DistanceJoin, DistanceSemiJoin, IncWithinJoin,
// IncNearestNeighbor, IncFarthestNeighbor; the cursor borrows it (the
// engine and its trees must outlive the cursor).
template <int Dim, typename Engine>
class JoinCursor {
 public:
  JoinCursor(Engine* engine, const CursorOptions& options)
      : engine_(engine), options_(options) {
    SDJ_CHECK(engine != nullptr);
    // An unopenable snapshot path is user input, not an invariant: the
    // cursor degrades to checkpoint-less forwarding (every Checkpoint
    // counts as failed) instead of aborting.
    store_ = snapshot::SnapshotStore::Open(
        {options.snapshot_path, options.page_size, options.fault_injection,
         options.crash_point, options.retry, options.metrics,
         options.snapshot_slots});
  }

  // Points the cursor at a replacement engine over the same trees and
  // configuration (the serving layer rebuilds an evicted session's engine,
  // then restores it through this cursor — DESIGN.md §14). The snapshot
  // store and cursor statistics carry over.
  void set_engine(Engine* engine) {
    SDJ_CHECK(engine != nullptr);
    engine_ = engine;
  }

  // False if the snapshot store could not be opened/created; the cursor
  // still iterates, but cannot checkpoint or resume.
  bool ok() const { return store_ != nullptr; }

  // Forwards Engine::Next, checkpointing every `checkpoint_every` results
  // and once more when the engine suspends (so the stop-point state is
  // always the newest snapshot). Returns false when the engine does;
  // status() disambiguates suspension from exhaustion and I/O failure.
  bool Next(typename Engine::Result* out) {
    if (engine_->Next(out)) {
      if (options_.checkpoint_every > 0 &&
          ++since_checkpoint_ >= options_.checkpoint_every) {
        Checkpoint();
      }
      return true;
    }
    if (engine_->status() == JoinStatus::kSuspended) Checkpoint();
    return false;
  }

  // Writes a snapshot of the engine's current state, re-attempting failed
  // commits per options_.commit_retry. Persistent failures are counted, not
  // fatal — the join continues, protected by the previous snapshot. Returns
  // whether the snapshot committed.
  bool Checkpoint() {
    obs::PhaseTimer timer(options_.metrics, obs::Op::kCheckpoint);
    since_checkpoint_ = 0;
    snapshot::Blob blob;
    obs::PhaseTimer encode(options_.metrics, obs::Op::kSnapshotEncode);
    if (store_ == nullptr || !engine_->SaveState(&blob)) {
      ++cursor_stats_.checkpoint_failures;
      return false;
    }
    encode.Stop();
    for (uint32_t attempt = 1;; ++attempt) {
      if (store_->WriteSnapshot(blob)) {
        ++cursor_stats_.checkpoints_written;
        return true;
      }
      if (attempt >= options_.commit_retry.max_attempts) break;
      ++cursor_stats_.checkpoint_retries;
      if (options_.commit_retry.backoff_us > 0) {
        ::usleep(options_.commit_retry.backoff_us << (attempt - 1));
      }
    }
    ++cursor_stats_.checkpoint_failures;
    return false;
  }

  // Restores the engine from the newest valid snapshot and clears its
  // suspended status, so the next Next() continues where the snapshot
  // stopped. Torn or corrupted slots are skipped (counted in
  // snapshot_fallbacks). Returns false — engine untouched, iteration starts
  // from scratch — if no valid snapshot exists or the payload does not
  // match this engine's configuration.
  bool ResumeLatest() {
    if (store_ == nullptr) return false;
    obs::PhaseTimer timer(options_.metrics, obs::Op::kRestore);
    std::string payload;
    if (!store_->ReadLatest(&payload)) {
      cursor_stats_.snapshot_fallbacks = store_->stats().invalid_slots_seen;
      return false;
    }
    cursor_stats_.snapshot_fallbacks = store_->stats().invalid_slots_seen;
    snapshot::BlobReader reader(payload);
    if (!engine_->RestoreState(&reader)) return false;
    engine_->ResumeSuspended();
    ++cursor_stats_.resumes;
    return true;
  }

  // Restores the engine from one specific snapshot slot — the serving
  // layer's self-healing fallback past an unrestorable newest snapshot
  // (DESIGN.md §16). On success the slot's epoch is adopted as the store's
  // resume point, so subsequent checkpoints continue from it. Returns false
  // if the slot does not hold a fully-verified snapshot or its payload does
  // not match this engine's configuration; the caller should rebuild the
  // engine before trying another slot (a restore that fails mid-payload may
  // leave partial state behind).
  bool ResumeFromSlot(uint32_t slot) {
    if (store_ == nullptr) return false;
    obs::PhaseTimer timer(options_.metrics, obs::Op::kRestore);
    std::string payload;
    if (!store_->ReadSlotPayload(slot, &payload)) return false;
    snapshot::BlobReader reader(payload);
    if (!engine_->RestoreState(&reader)) return false;
    engine_->ResumeSuspended();
    ++cursor_stats_.resumes;
    ++cursor_stats_.snapshot_fallbacks;
    return true;
  }

  JoinStatus status() const { return engine_->status(); }
  Engine* engine() const { return engine_; }
  const CursorStats& cursor_stats() const { return cursor_stats_; }
  snapshot::SnapshotStore* store() const { return store_.get(); }

 private:
  Engine* engine_;
  const CursorOptions options_;
  std::unique_ptr<snapshot::SnapshotStore> store_;
  uint64_t since_checkpoint_ = 0;
  CursorStats cursor_stats_;
};

}  // namespace sdj

#endif  // SDJOIN_CORE_JOIN_CURSOR_H_
