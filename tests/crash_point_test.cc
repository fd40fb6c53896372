// Deterministic crash-point exploration (DESIGN.md §16).
//
// CrashPointPageFile simulates power loss at one exact write/sync operation:
// the op at `crash_at` is torn (partial page, garbage tail, or dropped) and
// the file latches read-only. A schedule enumerator first runs each workload
// uncrashed to learn its mutation-op count N, then replays it once per index
// in [0, N) — covering 100% of the crash points of that workload:
//
//   * SnapshotStore commits  — recovery must land on a committed epoch,
//     never a mangled payload, and the store must keep accepting commits.
//   * SessionTable commits   — a crash inside the table commit drops only
//     the uncommitted delta; the previous session set survives intact.
//   * JoinCursor checkpoints — the resumed join's pair stream and statistics
//     are identical to an uninterrupted run.
//   * Hybrid-queue spills    — sampled (SDJ_CRASH_SPILL_STRIDE=1 for the
//     full sweep): no abort, no silently wrong stream — either the exact
//     pair stream or an explicit io_error(), with the page-accounting
//     invariant (allocated == live + free + abandoned) intact either way.
//   * R-tree builds          — construction uses the aborting pin path, so
//     the build dies (death test); the torn file scrubs cleanly
//     (storage/scrub.h) and a from-scratch rebuild succeeds.
#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance_join.h"
#include "core/hybrid_queue.h"
#include "core/join_cursor.h"
#include "core/pair_entry.h"
#include "core/snapshot.h"
#include "data/generators.h"
#include "join_test_util.h"
#include "rtree/rtree.h"
#include "serve/session_table.h"
#include "storage/fault_injection.h"
#include "storage/page_file.h"
#include "storage/scrub.h"
#include "util/rng.h"

namespace sdj {
namespace {

using storage::CrashPointOptions;
using storage::CrashPointPageFile;
using storage::CrashTearMode;
using storage::IoStatus;
using test::BuildPointTree;

constexpr CrashTearMode kAllTearModes[] = {CrashTearMode::kPartialPage,
                                           CrashTearMode::kGarbageTail,
                                           CrashTearMode::kDroppedOp};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------------------
// CrashPointPageFile unit tests
// ---------------------------------------------------------------------------

constexpr uint32_t kUnitPageSize = 64;

std::unique_ptr<CrashPointPageFile> MakeUnitFile(
    const CrashPointOptions& options) {
  return storage::NewCrashPointPageFile(
      storage::NewMemoryPageFile(kUnitPageSize), options);
}

TEST(CrashPointPageFile, CountsOpsAndPassesThroughUncrashed) {
  auto file = MakeUnitFile({});  // crash_at = kNever
  EXPECT_EQ(file->Allocate(), 0u);
  EXPECT_EQ(file->Allocate(), 1u);
  EXPECT_EQ(file->mutation_ops(), 0u);  // allocations are not mutation ops
  std::vector<char> page(kUnitPageSize, 'x');
  EXPECT_EQ(file->Write(0, page.data()), IoStatus::kOk);
  EXPECT_EQ(file->Write(1, page.data()), IoStatus::kOk);
  EXPECT_EQ(file->Sync(), IoStatus::kOk);
  EXPECT_EQ(file->Write(0, page.data()), IoStatus::kOk);
  EXPECT_EQ(file->Sync(), IoStatus::kOk);
  EXPECT_EQ(file->mutation_ops(), 5u);
  EXPECT_FALSE(file->crashed());
  std::vector<char> back(kUnitPageSize);
  EXPECT_EQ(file->Read(1, back.data()), IoStatus::kOk);
  EXPECT_EQ(back, page);
}

TEST(CrashPointPageFile, PartialPageTearKeepsPreviousTailAndLatches) {
  CrashPointOptions options;
  options.crash_at = 2;  // ops 0,1 = initial write + sync; op 2 crashes
  options.tear = CrashTearMode::kPartialPage;
  auto file = MakeUnitFile(options);
  file->Allocate();
  std::vector<char> old_page(kUnitPageSize, 'A');
  ASSERT_EQ(file->Write(0, old_page.data()), IoStatus::kOk);
  ASSERT_EQ(file->Sync(), IoStatus::kOk);
  std::vector<char> new_page(kUnitPageSize, 'B');
  EXPECT_EQ(file->Write(0, new_page.data()), IoStatus::kFailed);
  EXPECT_TRUE(file->crashed());
  // Media: first half new, tail keeps the previous bytes.
  std::vector<char> back(kUnitPageSize);
  ASSERT_EQ(file->Read(0, back.data()), IoStatus::kOk);
  for (uint32_t i = 0; i < kUnitPageSize / 2; ++i) EXPECT_EQ(back[i], 'B');
  for (uint32_t i = kUnitPageSize / 2; i < kUnitPageSize; ++i) {
    EXPECT_EQ(back[i], 'A');
  }
  // Latched: every further mutation fails, the file cannot grow, reads work.
  EXPECT_EQ(file->Write(0, old_page.data()), IoStatus::kFailed);
  EXPECT_EQ(file->Sync(), IoStatus::kFailed);
  EXPECT_EQ(file->Allocate(), storage::kInvalidPageId);
  EXPECT_EQ(file->Read(0, back.data()), IoStatus::kOk);
}

TEST(CrashPointPageFile, GarbageTailIsSeededAndDeterministic) {
  auto tear_once = [](uint64_t seed) {
    CrashPointOptions options;
    options.crash_at = 0;
    options.tear = CrashTearMode::kGarbageTail;
    options.seed = seed;
    auto file = MakeUnitFile(options);
    file->Allocate();
    std::vector<char> page(kUnitPageSize, 'C');
    EXPECT_EQ(file->Write(0, page.data()), IoStatus::kFailed);
    std::vector<char> back(kUnitPageSize);
    EXPECT_EQ(file->Read(0, back.data()), IoStatus::kOk);
    for (uint32_t i = 0; i < kUnitPageSize / 2; ++i) EXPECT_EQ(back[i], 'C');
    return back;
  };
  const std::vector<char> a = tear_once(7);
  const std::vector<char> b = tear_once(7);
  EXPECT_EQ(a, b);  // same seed, same garbage — the failure replays
  EXPECT_NE(a, tear_once(8));
}

TEST(CrashPointPageFile, DroppedWriteNeverReachesTheMedia) {
  CrashPointOptions options;
  options.crash_at = 2;
  options.tear = CrashTearMode::kDroppedOp;
  auto file = MakeUnitFile(options);
  file->Allocate();
  std::vector<char> old_page(kUnitPageSize, 'A');
  ASSERT_EQ(file->Write(0, old_page.data()), IoStatus::kOk);
  ASSERT_EQ(file->Sync(), IoStatus::kOk);
  std::vector<char> new_page(kUnitPageSize, 'B');
  EXPECT_EQ(file->Write(0, new_page.data()), IoStatus::kFailed);
  std::vector<char> back(kUnitPageSize);
  ASSERT_EQ(file->Read(0, back.data()), IoStatus::kOk);
  EXPECT_EQ(back, old_page);
}

TEST(CrashPointPageFile, CrashingSyncIsAlwaysADroppedOp) {
  for (const CrashTearMode mode : kAllTearModes) {
    CrashPointOptions options;
    options.crash_at = 1;  // op 0 = write, op 1 = the sync
    options.tear = mode;
    auto file = MakeUnitFile(options);
    file->Allocate();
    std::vector<char> page(kUnitPageSize, 'S');
    ASSERT_EQ(file->Write(0, page.data()), IoStatus::kOk);
    EXPECT_EQ(file->Sync(), IoStatus::kFailed);
    EXPECT_TRUE(file->crashed());
    // The preceding write survives regardless of the tear mode: a crashing
    // sync only drops the flush, it never mangles already-written pages.
    std::vector<char> back(kUnitPageSize);
    ASSERT_EQ(file->Read(0, back.data()), IoStatus::kOk);
    EXPECT_EQ(back, page);
  }
}

// ---------------------------------------------------------------------------
// Fault-schedule reproducibility (the replay recipe printed on failure)
// ---------------------------------------------------------------------------

TEST(FaultSchedule, RecordsExactOpIndicesForReplay) {
  storage::FaultInjectionOptions options;
  options.seed = 3;
  options.transient_write_period = 3;  // write ops 2, 5, 8, ... fail
  options.torn_write_at = 7;
  auto file = storage::NewFaultInjectingPageFile(
      storage::NewMemoryPageFile(kUnitPageSize), options);
  file->Allocate();
  std::vector<char> page(kUnitPageSize, 'w');
  for (int i = 0; i < 9; ++i) (void)file->Write(0, page.data());
  EXPECT_EQ(file->ScheduleString(),
            "seed=3 transient_reads=[] transient_writes=[2,5,8] "
            "bit_flips=[] torn_writes=[7]");
}

// ---------------------------------------------------------------------------
// SnapshotStore commit sweep: every write/sync op of a commit is a crash
// point; recovery must land on a committed epoch and stay writable.
// ---------------------------------------------------------------------------

snapshot::Blob MakeBlob(const std::string& s) {
  snapshot::Blob blob;
  blob.PutBytes(s.data(), s.size());
  return blob;
}

TEST(CrashPointSweep, SnapshotCommitEveryOpRecoversToCommittedEpoch) {
  const std::string p1(300, 'a');
  const std::string p2(340, 'b');
  const std::string p3(120, 'c');
  uint64_t covered = 0;
  for (const CrashTearMode mode : kAllTearModes) {
    const std::string path =
        TempPath(std::string("crash_snap_") + CrashTearModeName(mode));
    snapshot::SnapshotStoreOptions options;
    options.path = path;
    options.page_size = 256;

    // Counting pass: the same two commits, uncrashed, to learn the op count.
    std::remove(path.c_str());
    options.crash_point = CrashPointOptions{};  // crash_at = kNever
    uint64_t total_ops = 0;
    {
      auto store = snapshot::SnapshotStore::Open(options);
      ASSERT_NE(store, nullptr);
      ASSERT_TRUE(store->WriteSnapshot(MakeBlob(p1)));
      ASSERT_TRUE(store->WriteSnapshot(MakeBlob(p2)));
      total_ops = store->crash_point()->mutation_ops();
    }
    ASSERT_GT(total_ops, 4u);  // payload + sync + header + sync, twice

    for (uint64_t k = 0; k < total_ops; ++k) {
      SCOPED_TRACE(std::string("tear=") + CrashTearModeName(mode) +
                   " crash_at=" + std::to_string(k));
      std::remove(path.c_str());
      bool first_acked = false;
      {
        options.crash_point = CrashPointOptions{k, mode, /*seed=*/k + 1};
        auto store = snapshot::SnapshotStore::Open(options);
        ASSERT_NE(store, nullptr);
        first_acked = store->WriteSnapshot(MakeBlob(p1));
        if (first_acked) {
          // The crash fires inside the second commit, so it can never ack.
          EXPECT_FALSE(store->WriteSnapshot(MakeBlob(p2)));
        }
        EXPECT_TRUE(store->crash_point()->crashed());
      }
      // Recovery: reopen the surviving image without the crash layer.
      options.crash_point.reset();
      auto store = snapshot::SnapshotStore::Open(options);
      ASSERT_NE(store, nullptr);
      std::string payload;
      uint64_t epoch = 0;
      const bool found = store->ReadLatest(&payload, &epoch);
      // An acknowledged commit is never lost...
      if (first_acked) {
        ASSERT_TRUE(found);
      }
      // ...and whatever is recovered is exactly a committed payload, never a
      // mangled one. (Epoch 2 without an ack is legal: the crash dropped the
      // final sync after the header reached the media.)
      if (found) {
        ASSERT_TRUE(epoch == 1 || epoch == 2) << "epoch=" << epoch;
        EXPECT_EQ(payload, epoch == 1 ? p1 : p2);
      }
      // The recovered store keeps accepting commits.
      const uint64_t before = store->last_epoch();
      ASSERT_TRUE(store->WriteSnapshot(MakeBlob(p3)));
      ASSERT_TRUE(store->ReadLatest(&payload, &epoch));
      EXPECT_EQ(payload, p3);
      EXPECT_EQ(epoch, before + 1);
      ++covered;
    }
  }
  std::printf("[ crash-sweep ] snapshot commits: %llu crash points covered "
              "(all tear modes)\n",
              static_cast<unsigned long long>(covered));
}

// ---------------------------------------------------------------------------
// SessionTable commit sweep: a crash inside the table commit drops only the
// uncommitted delta — the previously committed session set survives.
// ---------------------------------------------------------------------------

std::vector<serve::SessionRecord> TableV1() {
  return {{1, "join:water-roads", false}};
}
std::vector<serve::SessionRecord> TableV2() {
  return {{1, "join:water-roads", true}, {2, "semi:cities", false}};
}

bool SameRecords(const std::vector<serve::SessionRecord>& a,
                 const std::vector<serve::SessionRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].tag != b[i].tag ||
        a[i].has_snapshot != b[i].has_snapshot) {
      return false;
    }
  }
  return true;
}

TEST(CrashPointSweep, SessionTableCommitDropsOnlyTheUncommittedDelta) {
  uint64_t covered = 0;
  for (const CrashTearMode mode : kAllTearModes) {
    const std::string path =
        TempPath(std::string("crash_table_") + CrashTearModeName(mode));
    snapshot::SnapshotStoreOptions options;
    options.path = path;
    options.page_size = 256;

    std::remove(path.c_str());
    options.crash_point = CrashPointOptions{};
    uint64_t total_ops = 0;
    {
      auto table = serve::SessionTable::Open(options);
      ASSERT_NE(table, nullptr);
      ASSERT_TRUE(table->Commit(TableV1(), 2));
      ASSERT_TRUE(table->Commit(TableV2(), 3));
      total_ops = table->store()->crash_point()->mutation_ops();
    }
    ASSERT_GT(total_ops, 4u);

    for (uint64_t k = 0; k < total_ops; ++k) {
      SCOPED_TRACE(std::string("tear=") + CrashTearModeName(mode) +
                   " crash_at=" + std::to_string(k));
      std::remove(path.c_str());
      bool first_acked = false;
      {
        options.crash_point = CrashPointOptions{k, mode, /*seed=*/k + 1};
        auto table = serve::SessionTable::Open(options);
        ASSERT_NE(table, nullptr);
        first_acked = table->Commit(TableV1(), 2);
        if (first_acked) {
          EXPECT_FALSE(table->Commit(TableV2(), 3));
        }
      }
      options.crash_point.reset();
      auto table = serve::SessionTable::Open(options);
      ASSERT_NE(table, nullptr);
      std::vector<serve::SessionRecord> records;
      uint64_t next_id = 0;
      const bool loaded = table->Load(&records, &next_id);
      if (first_acked) {
        ASSERT_TRUE(loaded);
      }
      if (loaded) {
        // Exactly one of the two committed sets, with its matching id
        // allocator — never a blend of both.
        if (next_id == 2) {
          EXPECT_TRUE(SameRecords(records, TableV1()));
        } else {
          ASSERT_EQ(next_id, 3u);
          EXPECT_TRUE(SameRecords(records, TableV2()));
        }
      }
      // The recovered table keeps committing.
      const std::vector<serve::SessionRecord> v3 = {{7, "late", true}};
      ASSERT_TRUE(table->Commit(v3, 8));
      ASSERT_TRUE(table->Load(&records, &next_id));
      EXPECT_TRUE(SameRecords(records, v3));
      EXPECT_EQ(next_id, 8u);
      ++covered;
    }
  }
  std::printf("[ crash-sweep ] session-table commits: %llu crash points "
              "covered (all tear modes)\n",
              static_cast<unsigned long long>(covered));
}

// ---------------------------------------------------------------------------
// JoinCursor checkpoint sweep: crash at every op of the checkpointing run,
// then resume — the combined pair stream and the final statistics must be
// identical to an uninterrupted run.
// ---------------------------------------------------------------------------

using Pair = std::tuple<uint64_t, uint64_t, double>;

Pair AsTuple(const JoinResult<2>& r) { return {r.id1, r.id2, r.distance}; }


std::vector<Point<2>> MakePoints(size_t n, uint64_t seed) {
  const Rect<2> extent({0.0, 0.0}, {1000.0, 1000.0});
  return data::GenerateUniform(n, extent, seed);
}

TEST(CrashPointSweep, CursorCheckpointCrashResumesStreamAndStatsIdentical) {
  const auto pa = MakePoints(28, 101);
  const auto pb = MakePoints(28, 202);
  constexpr uint64_t kPrefix = 36;       // pairs drained before the "crash"
  constexpr uint64_t kEvery = 8;         // checkpoint cadence
  const DistanceJoinOptions join_options;

  // Uninterrupted reference stream and statistics.
  std::vector<Pair> ref;
  JoinStats ref_stats;
  {
    RTree<2> a = BuildPointTree(pa);
    RTree<2> b = BuildPointTree(pb);
    DistanceJoin<2> join(a, b, join_options);
    JoinResult<2> r;
    while (join.Next(&r)) ref.push_back(AsTuple(r));
    ASSERT_EQ(join.status(), JoinStatus::kExhausted);
    ref_stats = join.stats();
  }
  ASSERT_GT(ref.size(), kPrefix);

  const std::string path = TempPath("crash_cursor.snap");
  CursorOptions cursor_options;
  cursor_options.snapshot_path = path;
  cursor_options.page_size = 512;
  cursor_options.checkpoint_every = kEvery;

  // Counting pass.
  std::remove(path.c_str());
  cursor_options.crash_point = CrashPointOptions{};
  uint64_t total_ops = 0;
  {
    RTree<2> a = BuildPointTree(pa);
    RTree<2> b = BuildPointTree(pb);
    DistanceJoin<2> join(a, b, join_options);
    JoinCursor<2, DistanceJoin<2>> cursor(&join, cursor_options);
    JoinResult<2> r;
    for (uint64_t i = 0; i < kPrefix; ++i) ASSERT_TRUE(cursor.Next(&r));
    total_ops = cursor.store()->crash_point()->mutation_ops();
  }
  ASSERT_GT(total_ops, 0u);

  for (uint64_t k = 0; k < total_ops; ++k) {
    const CrashTearMode mode = kAllTearModes[k % 3];
    SCOPED_TRACE(std::string("tear=") + CrashTearModeName(mode) +
                 " crash_at=" + std::to_string(k));
    std::remove(path.c_str());
    uint64_t committed_epoch = 0;
    {
      RTree<2> a = BuildPointTree(pa);
      RTree<2> b = BuildPointTree(pb);
      DistanceJoin<2> join(a, b, join_options);
      cursor_options.crash_point = CrashPointOptions{k, mode, /*seed=*/k + 1};
      JoinCursor<2, DistanceJoin<2>> cursor(&join, cursor_options);
      JoinResult<2> r;
      // Checkpoint commits fail after the crash point; the join itself is
      // unharmed and keeps streaming the exact reference prefix.
      for (uint64_t i = 0; i < kPrefix; ++i) {
        ASSERT_TRUE(cursor.Next(&r));
        ASSERT_EQ(AsTuple(r), ref[i]);
      }
      EXPECT_TRUE(cursor.store()->crash_point()->crashed());
      committed_epoch = cursor.store()->last_epoch();
    }
    // Recovery: a fresh engine resumes from the newest committed epoch (a
    // checkpoint at epoch e covers the first e * kEvery reference pairs).
    RTree<2> a = BuildPointTree(pa);
    RTree<2> b = BuildPointTree(pb);
    DistanceJoin<2> join(a, b, join_options);
    CursorOptions clean = cursor_options;
    clean.crash_point.reset();
    clean.checkpoint_every = 0;
    JoinCursor<2, DistanceJoin<2>> cursor(&join, clean);
    const bool resumed = cursor.ResumeLatest();
    // An acknowledged checkpoint is never lost. (Resume can also land on an
    // epoch whose commit was never acknowledged — the crash dropped the
    // final sync after the header reached the media — so `resumed` may be
    // true even when committed_epoch == 0.)
    if (committed_epoch > 0) {
      ASSERT_TRUE(resumed);
    }
    const uint64_t resumed_epoch = resumed ? cursor.store()->last_epoch() : 0;
    ASSERT_LE(resumed_epoch * kEvery, ref.size());
    std::vector<Pair> stream(ref.begin(),
                             ref.begin() + resumed_epoch * kEvery);
    JoinResult<2> r;
    while (cursor.Next(&r)) stream.push_back(AsTuple(r));
    ASSERT_EQ(cursor.status(), JoinStatus::kExhausted);
    EXPECT_EQ(stream, ref);
    test::ExpectStatsEqual(join.stats(), ref_stats);
  }
  std::printf("[ crash-sweep ] cursor checkpoints: %llu crash points "
              "covered\n",
              static_cast<unsigned long long>(total_ops));
}

// ---------------------------------------------------------------------------
// ResumeLatest with every slot invalid: a status, never an abort, and the
// store bytes are left exactly as found (quarantine-and-report).
// ---------------------------------------------------------------------------

// Flips one payload byte of a checksummed page, corrupting it.
void CorruptStorePage(const std::string& path, uint32_t page_size,
                      uint64_t page) {
  const uint64_t physical = page_size + 8;  // + checksum trailer
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(page * physical + 16));
  char byte;
  f.read(&byte, 1);
  byte ^= 0x40;
  f.seekp(static_cast<std::streamoff>(page * physical + 16));
  f.write(&byte, 1);
}

TEST(CrashPoint, ResumeLatestWithEverySlotCorruptFailsSoftlyAndLeavesStore) {
  const auto pa = MakePoints(40, 303);
  const auto pb = MakePoints(40, 404);
  const DistanceJoinOptions join_options;
  std::vector<Pair> ref;
  {
    RTree<2> a = BuildPointTree(pa);
    RTree<2> b = BuildPointTree(pb);
    DistanceJoin<2> join(a, b, join_options);
    JoinResult<2> r;
    while (join.Next(&r)) ref.push_back(AsTuple(r));
  }

  const std::string path = TempPath("crash_all_slots.snap");
  std::remove(path.c_str());
  CursorOptions cursor_options;
  cursor_options.snapshot_path = path;
  cursor_options.page_size = 512;
  {
    RTree<2> a = BuildPointTree(pa);
    RTree<2> b = BuildPointTree(pb);
    DistanceJoin<2> join(a, b, join_options);
    JoinCursor<2, DistanceJoin<2>> cursor(&join, cursor_options);
    JoinResult<2> r;
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(cursor.Next(&r));
    ASSERT_TRUE(cursor.Checkpoint());  // epoch 1 (slot 1)
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(cursor.Next(&r));
    ASSERT_TRUE(cursor.Checkpoint());  // epoch 2 (slot 0)
  }
  // Corrupt the first payload page of BOTH slots (headers stay readable, so
  // opening the store heals nothing and writes nothing).
  CorruptStorePage(path, 512, 2);  // PayloadPage(0, slot 0)
  CorruptStorePage(path, 512, 3);  // PayloadPage(0, slot 1)
  const std::string before = ReadFileBytes(path);
  ASSERT_FALSE(before.empty());

  RTree<2> a = BuildPointTree(pa);
  RTree<2> b = BuildPointTree(pb);
  DistanceJoin<2> join(a, b, join_options);
  CursorOptions clean = cursor_options;
  clean.checkpoint_every = 0;
  JoinCursor<2, DistanceJoin<2>> cursor(&join, clean);
  ASSERT_TRUE(cursor.ok());
  EXPECT_FALSE(cursor.ResumeLatest());  // a status — never an abort
  EXPECT_EQ(cursor.cursor_stats().snapshot_fallbacks, 2u);
  // Inspection left the store bytes exactly as found.
  EXPECT_EQ(ReadFileBytes(path), before);
  // The cursor degrades to a from-scratch run with the full stream.
  std::vector<Pair> stream;
  JoinResult<2> r;
  while (cursor.Next(&r)) stream.push_back(AsTuple(r));
  EXPECT_EQ(stream, ref);
}

// ---------------------------------------------------------------------------
// Hybrid-queue spill sweep (sampled; SDJ_CRASH_SPILL_STRIDE=1 for the full
// enumeration). A spill-device crash must never abort and never silently
// drop pairs: either the exact stream, or an explicit io_error(). The page
// accounting invariant holds either way.
// ---------------------------------------------------------------------------

PairEntry<2> MakeEntry(double distance, uint64_t seq) {
  PairEntry<2> e;
  e.key = distance;
  e.distance = distance;
  e.seq = seq;
  e.item1.kind = JoinItemKind::kObject;
  e.item1.ref = seq;
  e.item1.rect = Rect<2>::FromPoint({distance, 0.0});
  e.item2.kind = JoinItemKind::kNode;
  e.item2.ref = seq + 1;
  e.item2.level = 3;
  e.item2.rect = Rect<2>({0, 0}, {distance + 1, 2});
  FinalizePairMetadata(&e);
  return e;
}

void ExpectSpillInvariant(const SpillPageStats& s) {
  EXPECT_EQ(s.allocated, s.live + s.free + s.abandoned)
      << "allocated=" << s.allocated << " live=" << s.live
      << " free=" << s.free << " abandoned=" << s.abandoned;
}

TEST(CrashPointSweep, HybridSpillCrashNeverAbortsNeverSilentlyDropsPairs) {
  std::vector<double> distances;
  Rng rng(21);
  for (int i = 0; i < 900; ++i) distances.push_back(rng.Uniform(0.0, 80.0));
  std::vector<double> expected = distances;
  std::sort(expected.begin(), expected.end());

  const std::string path = TempPath("crash_spill.pages");
  HybridQueueOptions options;
  options.tier_width = 2.0;
  options.page_size = 512;
  options.buffer_pages = 16;
  options.spill_path = path;

  auto run = [&](HybridPairQueue<2>* q, std::vector<double>* popped) {
    for (size_t i = 0; i < distances.size(); ++i) {
      q->Push(MakeEntry(distances[i], i));
    }
    while (!q->Empty()) popped->push_back(q->Pop().distance);
  };

  // Counting pass: the uncrashed workload, which must match exactly.
  std::remove(path.c_str());
  options.crash_point = CrashPointOptions{};
  uint64_t total_ops = 0;
  {
    HybridPairQueue<2> q(PairEntryCompare<2>{}, options);
    std::vector<double> popped;
    run(&q, &popped);
    ASSERT_EQ(popped, expected);
    ASSERT_FALSE(q.io_error());
    total_ops = q.crash_point()->mutation_ops();
  }
  ASSERT_GT(total_ops, 0u);  // the small buffer forces eviction writes

  uint64_t stride = total_ops / 24 + 1;
  if (const char* env = std::getenv("SDJ_CRASH_SPILL_STRIDE")) {
    stride = std::max<uint64_t>(1, std::strtoull(env, nullptr, 10));
  }
  uint64_t covered = 0;
  uint64_t identical = 0;
  for (uint64_t k = 0; k < total_ops; k += stride) {
    const CrashTearMode mode = kAllTearModes[k % 3];
    SCOPED_TRACE(std::string("tear=") + CrashTearModeName(mode) +
                 " crash_at=" + std::to_string(k));
    std::remove(path.c_str());
    options.crash_point = CrashPointOptions{k, mode, /*seed=*/k + 1};
    HybridPairQueue<2> q(PairEntryCompare<2>{}, options);
    std::vector<double> popped;
    run(&q, &popped);
    EXPECT_TRUE(q.crash_point()->crashed());
    // Ordering is never violated, even across lost pages.
    for (size_t i = 1; i < popped.size(); ++i) {
      ASSERT_LE(popped[i - 1], popped[i]);
    }
    if (q.io_error()) {
      // Lost entries are reported, never silent: what did survive is a
      // subset, and the join above this queue reports kIoError.
      EXPECT_LE(popped.size(), expected.size());
    } else {
      EXPECT_EQ(popped, expected);
      ++identical;
    }
    ExpectSpillInvariant(q.spill_pages());
    ++covered;
  }
  std::printf("[ crash-sweep ] hybrid spills: %llu/%llu crash points "
              "covered (stride=%llu), %llu with bit-identical streams, "
              "rest reported io_error\n",
              static_cast<unsigned long long>(covered),
              static_cast<unsigned long long>(total_ops),
              static_cast<unsigned long long>(stride),
              static_cast<unsigned long long>(identical));
}

TEST(CrashPoint, DistanceJoinSpillCrashIsReportedNeverSilent) {
  const auto pa = MakePoints(60, 505);
  const auto pb = MakePoints(60, 606);
  const std::string path = TempPath("crash_join_spill.pages");

  DistanceJoinOptions options;
  options.use_hybrid_queue = true;
  options.hybrid.tier_width = 5.0;
  options.hybrid.page_size = 512;
  options.hybrid.buffer_pages = 8;
  options.hybrid.spill_path = path;

  // Reference stream from the identical (uncrashed) hybrid configuration.
  std::vector<Pair> ref;
  {
    std::remove(path.c_str());
    RTree<2> a = BuildPointTree(pa);
    RTree<2> b = BuildPointTree(pb);
    DistanceJoin<2> join(a, b, options);
    JoinResult<2> r;
    while (join.Next(&r)) ref.push_back(AsTuple(r));
    ASSERT_EQ(join.status(), JoinStatus::kExhausted);
  }

  for (const uint64_t k : {0ULL, 3ULL, 17ULL, 64ULL}) {
    SCOPED_TRACE("crash_at=" + std::to_string(k));
    std::remove(path.c_str());
    options.hybrid.crash_point =
        CrashPointOptions{k, CrashTearMode::kPartialPage, /*seed=*/k + 1};
    RTree<2> a = BuildPointTree(pa);
    RTree<2> b = BuildPointTree(pb);
    DistanceJoin<2> join(a, b, options);
    std::vector<Pair> stream;
    JoinResult<2> r;
    while (join.Next(&r)) stream.push_back(AsTuple(r));
    if (join.status() == JoinStatus::kExhausted) {
      // Spill fallback absorbed the crash: the stream is bit-identical.
      EXPECT_EQ(stream, ref);
    } else {
      // Entries already on the dead device were lost — reported, not silent.
      EXPECT_EQ(join.status(), JoinStatus::kIoError);
      EXPECT_LE(stream.size(), ref.size());
    }
  }
}

// ---------------------------------------------------------------------------
// Scrub repair hook: abandoned spill pages whose faults healed are re-parked
// for reuse, and the accounting invariant survives the whole cycle.
// ---------------------------------------------------------------------------

TEST(CrashPoint, RecycleAbandonedPagesReparksHealedPages) {
  HybridQueueOptions options;
  options.tier_width = 1.0;
  options.page_size = 512;
  options.buffer_pages = 4;
  storage::FaultInjectionOptions faults;
  faults.seed = 11;
  faults.transient_read_rate = 0.10;
  faults.transient_write_rate = 0.10;
  options.fault_injection = faults;
  options.retry.max_attempts = 1;  // transient faults go unrecovered
  HybridPairQueue<2> q(PairEntryCompare<2>{}, options);

  // Push/pop rounds until some free-list or chain pages are abandoned.
  Rng rng(5);
  uint64_t seq = 0;
  for (int round = 0; round < 10 && q.spill_pages().abandoned == 0; ++round) {
    for (int i = 0; i < 1200; ++i) {
      q.Push(MakeEntry(rng.Uniform(0.0, 50.0), seq++));
    }
    while (!q.Empty()) q.Pop();
    ExpectSpillInvariant(q.spill_pages());
  }
  const uint64_t initially_abandoned = q.spill_pages().abandoned;
  ASSERT_GT(initially_abandoned, 0u);

  // The faults above are transient: the pages themselves are intact, so
  // recycling re-parks them (retrying past the occasional re-fault).
  uint64_t recycled = 0;
  for (int attempt = 0; attempt < 50 && q.spill_pages().abandoned > 0;
       ++attempt) {
    recycled += q.RecycleAbandonedPages();
    ExpectSpillInvariant(q.spill_pages());
  }
  EXPECT_EQ(recycled, initially_abandoned);
  EXPECT_EQ(q.spill_pages().abandoned, 0u);

  // The recycled pages are really reusable. Draining left the bucket
  // frontier at the max popped distance (~50), so these pushes must land
  // beyond it to reach the disk tier at all.
  const uint64_t reused_before = q.spill_pages().reused;
  for (int i = 0; i < 1200; ++i) {
    q.Push(MakeEntry(rng.Uniform(60.0, 160.0), seq++));
  }
  while (!q.Empty()) q.Pop();
  ExpectSpillInvariant(q.spill_pages());
  EXPECT_GT(q.spill_pages().reused, reused_before);
}

// ---------------------------------------------------------------------------
// R-tree build crash: construction uses the aborting pin path (CLAUDE.md —
// no recovery mid-build), so a crashed build dies. What it leaves behind
// must scrub without aborting, and a from-scratch rebuild on the same path
// must produce a fully working tree.
// ---------------------------------------------------------------------------

TEST(CrashPointDeathTest, RTreeBuildCrashDiesScrubsAndRebuilds) {
  // Forked death tests are unsafe once any test has spawned threads; the
  // threadsafe style re-executes the binary instead.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto points = MakePoints(300, 31);
  const std::string path = TempPath("crash_rtree.pages");
  RTreeOptions base;
  base.page_size = 512;
  base.buffer_pages = 8;  // small pool: the build writes throughout
  base.file_path = path;

  // Counting pass.
  std::remove(path.c_str());
  uint64_t total_ops = 0;
  {
    RTreeOptions options = base;
    options.crash_point = CrashPointOptions{};
    RTree<2> tree(options);
    for (size_t i = 0; i < points.size(); ++i) {
      tree.Insert(Rect<2>::FromPoint(points[i]), i);
    }
    ASSERT_TRUE(tree.Flush());
    total_ops = tree.crash_point()->mutation_ops();
  }
  ASSERT_GT(total_ops, 0u);

  // Sampled crash points across the whole build (death tests are slow).
  std::vector<uint64_t> samples = {0, total_ops / 4, total_ops / 2,
                                   (3 * total_ops) / 4, total_ops - 1};
  samples.erase(std::unique(samples.begin(), samples.end()), samples.end());
  for (const uint64_t k : samples) {
    SCOPED_TRACE("crash_at=" + std::to_string(k));
    std::remove(path.c_str());
    // The statement is a parenthesized lambda call: braces don't protect
    // commas from the preprocessor, parentheses do.
    EXPECT_DEATH(
        ([&] {
          RTreeOptions options = base;
          options.crash_point =
              CrashPointOptions{k, CrashTearMode::kPartialPage, k + 3};
          RTree<2> tree(options);
          for (size_t i = 0; i < points.size(); ++i) {
            tree.Insert(Rect<2>::FromPoint(points[i]), i);
          }
          // Either an eviction hits the dead device mid-insert (the
          // aborting pin path SDJ_CHECKs) or the final flush fails.
          if (!tree.Flush()) std::abort();
          std::_Exit(0);  // unreachable: k < total_ops must crash the build
        }()),
        "");
    // Whatever the dead build left behind scrubs without aborting.
    struct stat st;
    if (::stat(path.c_str(), &st) == 0 && st.st_size > 0) {
      const storage::PageScrubReport report = storage::ScrubPages(path, 512);
      EXPECT_TRUE(report.opened);
    }
  }

  // A from-scratch rebuild on the same path yields a fully working tree.
  std::remove(path.c_str());
  {
    RTree<2> tree(base);
    for (size_t i = 0; i < points.size(); ++i) {
      tree.Insert(Rect<2>::FromPoint(points[i]), i);
    }
    ASSERT_TRUE(tree.Flush());
  }
  auto reopened = RTree<2>::Open(base);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->size(), points.size());
  std::string error;
  EXPECT_TRUE(reopened->Validate(&error)) << error;
}

}  // namespace
}  // namespace sdj
