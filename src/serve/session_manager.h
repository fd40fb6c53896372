// Multi-session serving layer (DESIGN.md §14).
//
// One SessionManager multiplexes many live incremental traversals — any mix
// of distance join, semi-join, within-join, and nearest/farthest neighbor,
// via the erased §13 engine surface (serve/erased_engine.h) — over trees the
// caller shares across sessions. Robustness is the contract; every failure
// mode below surfaces as an explicit status, never an abort:
//
//   * Admission control. Admit() returns kRejectedOverload once
//     max_sessions are active or the resident-memory budget cannot be
//     honored even after evicting every evictable session.
//   * Deadline time-slicing. Each Next() re-arms the session's StopSource
//     with a slice deadline; the engine suspends at its next serial safe
//     point (CLAUDE.md: tokens are polled only there) and the manager
//     reports kYield — the session stays live, a round-robin driver simply
//     moves on. Slicing never perturbs the pair stream: suspension points
//     are invisible to the total order.
//   * Checkpoint-evict-resume. When resident queue entries exceed
//     memory_budget_entries, the coldest sessions are checkpointed to their
//     shadow-paged snapshot stores (JoinCursor underneath, with bounded
//     commit retry + exponential backoff) and their engines destroyed; the
//     next Next() transparently rebuilds the engine through the session's
//     factory and restores it. A session whose checkpoint cannot commit
//     even after retries degrades to pinned-resident — it keeps serving
//     from memory and is never evicted (progress is never sacrificed to
//     the budget) until a later checkpoint commits and unpins it.
//   * Failure isolation. A kIoError (dead page file, unreadable snapshot)
//     poisons only its own session: its stream remains a valid prefix and
//     every other session keeps running.
//   * Crash recovery. Admitted sessions are recorded in an epoch-committed
//     SessionTable (serve/session_table.h); after a restart, Recover()
//     re-admits every recorded session, resuming snapshotted ones from
//     their newest valid checkpoint.
//
// Single-threaded by design, like the engines it hosts: one manager is
// driven from one thread (parallelism lives inside an engine's classify
// stage). Per-session latency/IO accounting: every session owns an
// obs::Metrics sink receiving its serve slices, checkpoints, restores, and
// snapshot commits; the manager-wide sink (ServeOptions::metrics) sees the
// same serving events across all sessions, and its trace (if any) also
// receives every session's spans.
#ifndef SDJOIN_SERVE_SESSION_MANAGER_H_
#define SDJOIN_SERVE_SESSION_MANAGER_H_

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/join_cursor.h"
#include "core/join_result.h"
#include "core/join_stats.h"
#include "obs/metrics.h"
#include "serve/erased_engine.h"
#include "serve/session_table.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "util/check.h"
#include "util/stop_token.h"

namespace sdj::serve {

// Outcome of one serving call. kOk/kYield/kExhausted/kIoError mirror the
// engine's JoinStatus; kRejectedOverload and kNotFound are serving-level.
enum class ServeStatus : uint8_t {
  kOk = 0,           // a result was produced
  kYield,            // slice deadline hit; session live, call again
  kExhausted,        // stream complete; the session finished
  kIoError,          // session failed (isolated); its stream is a valid prefix
  kInvalidArgument,  // the query violated a documented precondition
  kRejectedOverload,  // admission refused: session or memory budget exceeded
  kNotFound,         // unknown or closed session id
};

inline const char* ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:               return "ok";
    case ServeStatus::kYield:            return "yield";
    case ServeStatus::kExhausted:        return "exhausted";
    case ServeStatus::kIoError:          return "io-error";
    case ServeStatus::kInvalidArgument:  return "invalid-argument";
    case ServeStatus::kRejectedOverload: return "rejected-overload";
    case ServeStatus::kNotFound:         return "not-found";
  }
  return "unknown";
}

// Session lifecycle (state machine in DESIGN.md §14):
//   kLive -> kEvicted -> kLive -> ... -> kFinished | kFailed | kClosed
enum class SessionState : uint8_t {
  kLive = 0,  // engine resident; Next() serves directly
  kEvicted,   // checkpointed to its snapshot store; engine destroyed
  kFinished,  // stream exhausted; resources released
  kFailed,    // isolated kIoError (or unrestorable snapshot)
  kClosed,    // released by the caller
};

inline const char* SessionStateName(SessionState state) {
  switch (state) {
    case SessionState::kLive:     return "live";
    case SessionState::kEvicted:  return "evicted";
    case SessionState::kFinished: return "finished";
    case SessionState::kFailed:   return "failed";
    case SessionState::kClosed:   return "closed";
  }
  return "unknown";
}

// Per-session self-healing health (DESIGN.md §16). Orthogonal to
// SessionState: a degraded session is live and serving, but had to heal
// past a bad snapshot slot on rehydration; a quarantined one exhausted
// every committed epoch and was failed in isolation (its store is left
// intact for offline scrub/repair — one corrupt store never affects its
// neighbors).
enum class SessionHealth : uint8_t {
  kHealthy = 0,
  kDegraded,     // resumed from an older committed epoch after a scrub
  kQuarantined,  // no committed epoch restored; session failed, store kept
};

inline const char* SessionHealthName(SessionHealth health) {
  switch (health) {
    case SessionHealth::kHealthy:     return "healthy";
    case SessionHealth::kDegraded:    return "degraded";
    case SessionHealth::kQuarantined: return "quarantined";
  }
  return "unknown";
}

// Construction parameters for one SessionManager.
struct ServeOptions {
  // Durable state directory: the session table and one snapshot file per
  // session live here, enabling crash recovery. Empty = in-memory snapshot
  // stores (evict/resume still works within the process; no recovery).
  std::string state_dir;
  // Admission cap on concurrently active (live + evicted) sessions.
  uint32_t max_sessions = 64;
  // Resident-memory budget: total pair-queue entries across live engines.
  // Exceeding it triggers checkpoint-evict of the coldest sessions.
  uint64_t memory_budget_entries = 1ULL << 20;
  // Per-Next() time slice; 0 disables deadline slicing. (A negative slice
  // is a deadline already in the past — every Next() yields; tests use it
  // to pin the yield path deterministically.)
  std::chrono::microseconds slice{0};
  // Checkpoint a session every N reported results (0 = only on eviction).
  uint64_t checkpoint_every = 0;
  // Bounded retry + exponential backoff for checkpoint commits (forwarded
  // to each session's JoinCursor) before a session degrades to
  // pinned-resident.
  storage::RetryPolicy commit_retry{.max_attempts = 3, .backoff_us = 50};
  // Bounded-retry policy for transient snapshot-page faults.
  storage::RetryPolicy retry;
  // Snapshot-store slots per session (>= 2): S slots survive S-1
  // consecutive torn checkpoint commits on resume.
  uint32_t snapshot_slots = 2;
  // Logical page size of the snapshot stores and the session table.
  uint32_t page_size = 4096;
  // If set, every session snapshot store and the session table inject
  // faults from this schedule (testing).
  std::optional<storage::FaultInjectionOptions> fault_injection;
  // If set, the *session table* store simulates power loss at one exact
  // write/sync op (testing — see storage::CrashPointPageFile). Per-session
  // snapshot stores are unaffected: crash-point tests for those drive a
  // JoinCursor directly.
  std::optional<storage::CrashPointOptions> table_crash_point;
  // Microsecond backoff between self-healing resume attempts after a failed
  // rehydration (attempt k sleeps backoff << (k-2); the first fallback is
  // immediate). Attempts are bounded by the number of snapshot slots. 0
  // disables the sleep.
  uint32_t heal_backoff_us = 0;
  // Manager-wide observability sink (serve slices, evictions, rehydrations
  // across all sessions). Null = disabled. Each session additionally owns a
  // private sink regardless, which records into this sink's trace.
  obs::Metrics* metrics = nullptr;
};

// Per-session serving counters (engine counters live in JoinStats; cursor
// counters in CursorStats — both are exposed alongside).
struct SessionCounters {
  uint64_t slices = 0;   // Next() calls that reached the engine
  uint64_t results = 0;  // results produced
  uint64_t yields = 0;   // slice-deadline suspensions
  uint64_t evictions = 0;
  uint64_t rehydrations = 0;
  // Checkpoint could not commit even after retries; the session now serves
  // pinned-resident until a later checkpoint commits.
  bool pinned_resident = false;
  // Self-healing (DESIGN.md §16): scoped scrubs run after a failed
  // rehydration, and snapshot slots healed (torn/corrupt headers zeroed)
  // by them.
  uint64_t scrubs = 0;
  uint64_t slots_healed = 0;
  // Cursor-side counters, accumulated across engine rebuilds.
  CursorStats cursor;
};

// Manager-wide counters.
struct ServeStats {
  uint64_t admitted = 0;
  uint64_t rejected_overload = 0;
  uint64_t evictions = 0;
  uint64_t rehydrations = 0;
  uint64_t pinned_sessions = 0;
  uint64_t failed_sessions = 0;
  uint64_t finished_sessions = 0;
  // Self-healing outcomes (DESIGN.md §16).
  uint64_t degraded_sessions = 0;     // healed onto an older committed epoch
  uint64_t quarantined_sessions = 0;  // no committed epoch restored
  uint64_t recovered_sessions = 0;
  // Table records skipped during recovery: no resolver match, or over the
  // admission cap.
  uint64_t recovery_skipped = 0;
  // Session-table epochs that failed to commit (previous epoch survives).
  uint64_t table_commit_failures = 0;
};

// See file comment.
template <int Dim>
class SessionManager {
 public:
  using SessionId = uint64_t;
  // Builds (or rebuilds, after eviction) a session's engine. The factory is
  // called with the session's StopToken and must construct the *identical*
  // engine configuration each time — the snapshot fingerprint enforces it
  // on restore. Returning null fails the session (isolated, not fatal).
  using EngineFactory =
      std::function<std::unique_ptr<ErasedEngine<Dim>>(util::StopToken)>;

  struct AdmitResult {
    ServeStatus status = ServeStatus::kRejectedOverload;
    SessionId id = 0;  // valid only when status == kOk
  };

  explicit SessionManager(const ServeOptions& options) : options_(options) {
    if (!options_.state_dir.empty()) {
      table_ = SessionTable::Open({options_.state_dir + "/sessions.tbl",
                                   options_.page_size,
                                   options_.fault_injection,
                                   options_.table_crash_point, options_.retry,
                                   options_.metrics, options_.snapshot_slots});
      if (table_ == nullptr) ++stats_.table_commit_failures;
    }
  }

  // Admits a new session, or rejects it with kRejectedOverload when the
  // session cap is reached or the memory budget cannot accommodate it even
  // after evicting every evictable session. `tag` is the crash-recovery key
  // (see SessionTable).
  AdmitResult Admit(const std::string& tag, EngineFactory factory) {
    SDJ_CHECK(factory != nullptr);
    if (ActiveSessions() >= options_.max_sessions) {
      ++stats_.rejected_overload;
      return {ServeStatus::kRejectedOverload, 0};
    }
    auto session = std::make_unique<Session>();
    session->id = next_id_++;
    session->tag = tag;
    session->factory = std::move(factory);
    session->metrics = NewSessionMetrics();
    session->engine = session->factory(session->stop.token());
    if (session->engine == nullptr) {
      --next_id_;
      ++stats_.rejected_overload;
      return {ServeStatus::kRejectedOverload, 0};
    }
    // Make room for the newcomer before accepting it; if the budget still
    // cannot fit it (everything else evicted or pinned), reject — admission
    // must not force an over-budget resident set.
    const uint64_t newcomer = session->engine->queue_size();
    const uint64_t target =
        options_.memory_budget_entries >= newcomer
            ? options_.memory_budget_entries - newcomer
            : 0;
    EvictUntil(target, /*exclude=*/nullptr);
    if (ResidentEntries() + newcomer > options_.memory_budget_entries) {
      --next_id_;
      ++stats_.rejected_overload;
      return {ServeStatus::kRejectedOverload, 0};
    }
    session->cursor = MakeCursor(session.get());
    const SessionId id = session->id;
    sessions_.emplace(id, std::move(session));
    ++stats_.admitted;
    CommitTable();
    return {ServeStatus::kOk, id};
  }

  // Produces the session's next result. Transparently rehydrates an evicted
  // session, arms the slice deadline, and — after serving — evicts colder
  // sessions if the budget is exceeded. kYield means the slice expired
  // before a result surfaced: the session is still live, call again.
  ServeStatus Next(SessionId id, JoinResult<Dim>* out) {
    SDJ_CHECK(out != nullptr);
    Session* s = FindSession(id);
    if (s == nullptr || s->state == SessionState::kClosed) {
      return ServeStatus::kNotFound;
    }
    if (s->state == SessionState::kFinished) return ServeStatus::kExhausted;
    if (s->state == SessionState::kFailed) return ServeStatus::kIoError;
    s->last_used = ++clock_;
    obs::PhaseTimer timer(s->metrics.get(), obs::Op::kServeSlice,
                          options_.metrics);
    if (s->state == SessionState::kEvicted && !Rehydrate(s)) {
      return ServeStatus::kIoError;
    }
    ++s->counters.slices;
    s->stop.Clear();
    if (options_.slice.count() != 0) s->stop.SetDeadlineAfter(options_.slice);
    const bool produced = s->engine->Next(out);
    s->last_stats = s->engine->stats();
    ServeStatus result;
    if (produced) {
      ++s->counters.results;
      result = ServeStatus::kOk;
      if (options_.checkpoint_every > 0 &&
          ++s->since_checkpoint >= options_.checkpoint_every) {
        s->since_checkpoint = 0;
        CheckpointSession(s);
      }
    } else {
      switch (s->engine->status()) {
        case JoinStatus::kSuspended:
          // A slice deadline, not a terminal state: clear it so the next
          // call continues from the safe point.
          s->engine->ResumeSuspended();
          ++s->counters.yields;
          result = ServeStatus::kYield;
          break;
        case JoinStatus::kExhausted:
          FinishSession(s);
          result = ServeStatus::kExhausted;
          break;
        case JoinStatus::kInvalidArgument:
          FailSession(s);
          result = ServeStatus::kInvalidArgument;
          break;
        default:
          FailSession(s);
          result = ServeStatus::kIoError;
          break;
      }
    }
    EvictUntil(options_.memory_budget_entries, /*exclude=*/s);
    return result;
  }

  // Checkpoints a live session now (and keeps it resident). A commit
  // success clears pinned-resident degradation. False when the session is
  // not live or the commit failed after retries.
  bool Checkpoint(SessionId id) {
    Session* s = FindSession(id);
    if (s == nullptr || s->state != SessionState::kLive) return false;
    return CheckpointSession(s);
  }

  // Explicitly checkpoints + evicts an idle session (the budget-pressure
  // path calls the same machinery on the coldest sessions). False when the
  // session is not live, is pinned-resident, or its checkpoint failed —
  // a session is never evicted without a committed snapshot.
  bool Evict(SessionId id) {
    Session* s = FindSession(id);
    if (s == nullptr) return false;
    return EvictSession(s);
  }

  // Releases a session in any state and drops it from the durable table.
  void Close(SessionId id) {
    Session* s = FindSession(id);
    if (s == nullptr || s->state == SessionState::kClosed) return;
    s->engine.reset();
    ReleaseCursor(s);
    s->state = SessionState::kClosed;
    CommitTable();
  }

  // Re-admits every session recorded in the durable table (a restarted
  // server calls this once, before serving). `resolver` maps each record's
  // tag back to an engine factory; returning null skips the record
  // (counted). Sessions resume lazily: the engine is rebuilt — and its
  // snapshot restored — on the first Next(). Returns the number of
  // sessions recovered.
  size_t Recover(
      const std::function<EngineFactory(const SessionRecord&)>& resolver) {
    if (table_ == nullptr) return 0;
    std::vector<SessionRecord> records;
    uint64_t next_id = next_id_;
    if (!table_->Load(&records, &next_id)) return 0;
    if (next_id > next_id_) next_id_ = next_id;
    size_t recovered = 0;
    for (const SessionRecord& record : records) {
      if (FindSession(record.id) != nullptr) continue;
      if (ActiveSessions() >= options_.max_sessions) {
        ++stats_.recovery_skipped;
        ++stats_.rejected_overload;
        continue;
      }
      EngineFactory factory = resolver(record);
      if (factory == nullptr) {
        ++stats_.recovery_skipped;
        continue;
      }
      auto session = std::make_unique<Session>();
      session->id = record.id;
      session->tag = record.tag;
      session->factory = std::move(factory);
      session->metrics = NewSessionMetrics();
      session->has_snapshot = record.has_snapshot;
      // Lazy: engine and cursor are built by Rehydrate() on first Next().
      session->state = SessionState::kEvicted;
      sessions_.emplace(record.id, std::move(session));
      ++recovered;
      ++stats_.recovered_sessions;
    }
    return recovered;
  }

  // ---- introspection ----

  SessionState state(SessionId id) const {
    const Session* s = FindSession(id);
    return s == nullptr ? SessionState::kClosed : s->state;
  }
  // The admission (crash-recovery) tag; empty for an unknown id.
  std::string tag(SessionId id) const {
    const Session* s = FindSession(id);
    return s == nullptr ? std::string() : s->tag;
  }
  // Zeroed counters for an unknown id.
  SessionCounters counters(SessionId id) const {
    const Session* s = FindSession(id);
    return s == nullptr ? SessionCounters{} : s->counters;
  }
  // Self-healing health (kHealthy for an unknown id — health is a property
  // of a known session's history, and an unknown id has none).
  SessionHealth health(SessionId id) const {
    const Session* s = FindSession(id);
    return s == nullptr ? SessionHealth::kHealthy : s->health;
  }
  // The session's engine counters as of its last slice (the copy survives
  // eviction and failure). Zeroed for an unknown id.
  JoinStats session_stats(SessionId id) const {
    const Session* s = FindSession(id);
    return s == nullptr ? JoinStats{} : s->last_stats;
  }
  // Per-session latency sink (serve slices + this session's checkpoint,
  // restore, and snapshot-commit phases). Null for an unknown id.
  const obs::Metrics* session_metrics(SessionId id) const {
    const Session* s = FindSession(id);
    return s == nullptr ? nullptr : s->metrics.get();
  }

  // Every known session id in admission order (any state) — drivers that
  // recover from a table use this to enumerate what came back.
  std::vector<SessionId> SessionIds() const {
    std::vector<SessionId> ids;
    ids.reserve(sessions_.size());
    for (const auto& [id, s] : sessions_) ids.push_back(id);
    return ids;
  }

  // Active = live + evicted (admission-cap denominator).
  size_t ActiveSessions() const {
    size_t n = 0;
    for (const auto& [id, s] : sessions_) {
      if (s->state == SessionState::kLive ||
          s->state == SessionState::kEvicted) {
        ++n;
      }
    }
    return n;
  }

  // Pair-queue entries across resident engines (the budget's measure).
  uint64_t ResidentEntries() const {
    uint64_t total = 0;
    for (const auto& [id, s] : sessions_) {
      if (s->engine != nullptr) total += s->engine->queue_size();
    }
    return total;
  }

  const ServeStats& stats() const { return stats_; }
  const ServeOptions& options() const { return options_; }

  // The durable session table; null when state_dir is empty or the table
  // could not be opened. Crash-point tests count its store's mutation ops;
  // the scrub tool classifies its slots.
  SessionTable* table() const { return table_.get(); }

 private:
  struct Session {
    SessionId id = 0;
    std::string tag;
    SessionState state = SessionState::kLive;
    SessionHealth health = SessionHealth::kHealthy;
    EngineFactory factory;
    util::StopSource stop;
    std::unique_ptr<obs::Metrics> metrics;
    std::unique_ptr<ErasedEngine<Dim>> engine;
    std::unique_ptr<JoinCursor<Dim, ErasedEngine<Dim>>> cursor;
    SessionCounters counters;
    JoinStats last_stats;
    bool has_snapshot = false;
    uint64_t since_checkpoint = 0;
    uint64_t last_used = 0;  // manager clock tick; coldest evicted first
  };

  Session* FindSession(SessionId id) {
    auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second.get();
  }
  const Session* FindSession(SessionId id) const {
    auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second.get();
  }

  std::string SnapshotPath(SessionId id) const {
    if (options_.state_dir.empty()) return std::string();
    return options_.state_dir + "/session_" + std::to_string(id) + ".snap";
  }

  // A session's private sink. It shares the manager sink's trace, so the
  // cursor's checkpoint, snapshot and restore spans nest under the
  // session_evict/session_rehydrate spans in one timeline. Serving phases
  // are timed on this sink with the manager's as the `also` histogram, so
  // each is traced once.
  std::unique_ptr<obs::Metrics> NewSessionMetrics() const {
    auto metrics = std::make_unique<obs::Metrics>();
    if (options_.metrics != nullptr) {
      metrics->set_trace(options_.metrics->trace());
    }
    return metrics;
  }

  std::unique_ptr<JoinCursor<Dim, ErasedEngine<Dim>>> MakeCursor(Session* s) {
    CursorOptions cursor_options;
    cursor_options.snapshot_path = SnapshotPath(s->id);
    cursor_options.page_size = options_.page_size;
    cursor_options.fault_injection = options_.fault_injection;
    cursor_options.retry = options_.retry;
    cursor_options.commit_retry = options_.commit_retry;
    cursor_options.snapshot_slots = options_.snapshot_slots;
    cursor_options.metrics = s->metrics.get();
    return std::make_unique<JoinCursor<Dim, ErasedEngine<Dim>>>(
        s->engine.get(), cursor_options);
  }

  // Folds the cursor's counters into the session's (the cursor outlives
  // engine rebuilds but not finish/close).
  void SyncCursorStats(Session* s) {
    if (s->cursor != nullptr) s->counters.cursor = s->cursor->cursor_stats();
  }
  void ReleaseCursor(Session* s) {
    SyncCursorStats(s);
    s->cursor.reset();
  }

  bool CheckpointSession(Session* s) {
    const bool committed = s->cursor != nullptr && s->cursor->Checkpoint();
    SyncCursorStats(s);
    if (!committed) return false;
    if (s->counters.pinned_resident) {
      s->counters.pinned_resident = false;  // progress is durable again
    }
    if (!s->has_snapshot) {
      s->has_snapshot = true;
      CommitTable();  // recovery must know a snapshot exists
    }
    return true;
  }

  bool EvictSession(Session* s) {
    if (s->state != SessionState::kLive || s->engine == nullptr) return false;
    if (s->counters.pinned_resident) return false;
    obs::PhaseTimer timer(s->metrics.get(), obs::Op::kSessionEvict,
                          options_.metrics);
    if (!CheckpointSession(s)) {
      // The budget cannot claim this memory without losing progress:
      // degrade to pinned-resident instead (cleared by a later successful
      // checkpoint).
      s->counters.pinned_resident = true;
      ++stats_.pinned_sessions;
      return false;
    }
    s->last_stats = s->engine->stats();
    s->engine.reset();
    s->state = SessionState::kEvicted;
    s->since_checkpoint = 0;
    ++s->counters.evictions;
    ++stats_.evictions;
    return true;
  }

  bool Rehydrate(Session* s) {
    obs::PhaseTimer timer(s->metrics.get(), obs::Op::kSessionRehydrate,
                          options_.metrics);
    s->engine = s->factory(s->stop.token());
    if (s->engine == nullptr) {
      QuarantineSession(s);
      return false;
    }
    if (s->cursor == nullptr) {
      s->cursor = MakeCursor(s);
    } else {
      s->cursor->set_engine(s->engine.get());
    }
    if (s->has_snapshot && !s->cursor->ResumeLatest() && !SelfHeal(s)) {
      // Restarting from scratch would re-emit results the client already
      // consumed; a session with no restorable committed epoch is therefore
      // quarantined — failed in isolation, its store left intact for
      // offline scrub/repair — rather than corrupting its stream. Its
      // neighbors never notice.
      SyncCursorStats(s);
      s->engine.reset();
      QuarantineSession(s);
      return false;
    }
    SyncCursorStats(s);
    s->state = SessionState::kLive;
    ++s->counters.rehydrations;
    ++stats_.rehydrations;
    return true;
  }

  // Self-healing fallback (DESIGN.md §16), entered when ResumeLatest could
  // not restore the newest snapshot. Runs a scrub scoped to this session's
  // snapshot slots (zeroing torn/corrupt headers so later commits stop
  // tripping over them), then walks the remaining committed epochs newest
  // first with bounded backoff — rebuilding the engine before each attempt,
  // since a restore that failed mid-payload leaves partial state behind.
  // The newest epoch is retried once post-scrub (its failure may have been
  // a healed transient fault) before falling back to older epochs. On
  // success the session serves on, marked kDegraded; false means no
  // committed epoch restored and the caller quarantines.
  bool SelfHeal(Session* s) {
    snapshot::SnapshotStore* store = s->cursor->store();
    if (store == nullptr) return false;
    uint64_t healed = 0;
    const std::vector<snapshot::SnapshotStore::SlotReport> reports =
        store->ScrubSlots(&healed);
    ++s->counters.scrubs;
    s->counters.slots_healed += healed;
    std::vector<std::pair<uint64_t, uint32_t>> candidates;  // (epoch, slot)
    for (const auto& report : reports) {
      if (report.status == snapshot::SlotStatus::kCommitted ||
          report.status == snapshot::SlotStatus::kStale) {
        candidates.emplace_back(report.epoch, report.slot);
      }
    }
    std::sort(candidates.rbegin(), candidates.rend());
    uint32_t attempt = 0;
    for (const auto& [epoch, slot] : candidates) {
      if (++attempt > 1 && options_.heal_backoff_us > 0) {
        ::usleep(options_.heal_backoff_us << (attempt - 2));
      }
      s->engine = s->factory(s->stop.token());
      if (s->engine == nullptr) return false;
      s->cursor->set_engine(s->engine.get());
      if (s->cursor->ResumeFromSlot(slot)) {
        if (s->health == SessionHealth::kHealthy) {
          s->health = SessionHealth::kDegraded;
          ++stats_.degraded_sessions;
        }
        return true;
      }
    }
    return false;
  }

  void QuarantineSession(Session* s) {
    if (s->health != SessionHealth::kQuarantined) {
      s->health = SessionHealth::kQuarantined;
      ++stats_.quarantined_sessions;
    }
    FailSession(s);
  }

  void FinishSession(Session* s) {
    s->engine.reset();
    ReleaseCursor(s);
    s->state = SessionState::kFinished;
    ++stats_.finished_sessions;
    CommitTable();
  }

  void FailSession(Session* s) {
    // Keep the cursor (and any committed snapshot): after a process
    // restart, recovery may retry the session from its last checkpoint.
    SyncCursorStats(s);
    s->state = SessionState::kFailed;
    ++stats_.failed_sessions;
  }

  // Checkpoint-evicts the coldest evictable sessions until resident queue
  // entries fit `target`. The session currently being served is excluded:
  // its slice pins it.
  void EvictUntil(uint64_t target, Session* exclude) {
    while (ResidentEntries() > target) {
      Session* victim = nullptr;
      for (const auto& [id, s] : sessions_) {
        if (s.get() == exclude || s->state != SessionState::kLive ||
            s->engine == nullptr || s->counters.pinned_resident) {
          continue;
        }
        if (victim == nullptr || s->last_used < victim->last_used) {
          victim = s.get();
        }
      }
      if (victim == nullptr) return;  // nothing evictable remains
      // A failed eviction pins the victim, so the scan never rechooses it.
      EvictSession(victim);
    }
  }

  // Persists the current session set. Failed commits degrade (counted); the
  // previous table epoch remains the recovery point.
  void CommitTable() {
    if (table_ == nullptr) return;
    std::vector<SessionRecord> records;
    records.reserve(sessions_.size());
    for (const auto& [id, s] : sessions_) {
      if (s->state == SessionState::kFinished ||
          s->state == SessionState::kClosed) {
        continue;
      }
      records.push_back({s->id, s->tag, s->has_snapshot});
    }
    if (!table_->Commit(records, next_id_)) ++stats_.table_commit_failures;
  }

  const ServeOptions options_;
  std::unique_ptr<SessionTable> table_;
  std::map<SessionId, std::unique_ptr<Session>> sessions_;
  SessionId next_id_ = 1;
  uint64_t clock_ = 0;
  ServeStats stats_;
};

}  // namespace sdj::serve

#endif  // SDJOIN_SERVE_SESSION_MANAGER_H_
