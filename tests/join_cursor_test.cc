// Tests for the durable-cursor subsystem (DESIGN.md §11): StopToken safe
// points, snapshot blob round-trips, the shadow-paged SnapshotStore, engine
// SaveState/RestoreState, and JoinCursor checkpoint/suspend/resume — plus
// the fuzzed resume-equivalence property: the concatenation of a pre-suspend
// prefix and the post-resume stream must be bit-identical to an
// uninterrupted run, and so must the final statistics.
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance_join.h"
#include "core/join_cursor.h"
#include "core/semi_join.h"
#include "core/shard_merge.h"
#include "core/snapshot.h"
#include "core/within_join.h"
#include "data/generators.h"
#include "join_test_util.h"
#include "nn/inc_farthest.h"
#include "nn/inc_nearest.h"
#include "rtree/rtree.h"
#include "storage/checksum.h"
#include "storage/fault_injection.h"
#include "util/stop_token.h"

namespace sdj {
namespace {

using test::BuildPointTree;
using test::ExpectStatsEqual;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

snapshot::SnapshotStoreOptions StoreOptions(const std::string& path = "",
                                            uint32_t page_size = 4096) {
  snapshot::SnapshotStoreOptions options;
  options.path = path;
  options.page_size = page_size;
  return options;
}

CursorOptions MakeCursorOptions(const std::string& path = "",
                                uint64_t checkpoint_every = 0) {
  CursorOptions options;
  options.snapshot_path = path;
  options.checkpoint_every = checkpoint_every;
  return options;
}

// One reported pair, as a comparable value.
using Pair = std::tuple<uint64_t, uint64_t, double>;

template <int Dim>
Pair AsTuple(const JoinResult<Dim>& r) {
  return {r.id1, r.id2, r.distance};
}


std::vector<Point<2>> MakePoints(size_t n, uint64_t seed) {
  const Rect<2> extent({0.0, 0.0}, {1000.0, 1000.0});
  return data::GenerateUniform(n, extent, seed);
}

// --- StopToken ---------------------------------------------------------------

TEST(StopToken, DefaultTokenNeverStops) {
  util::StopToken token;
  EXPECT_FALSE(token.stop_possible());
  EXPECT_FALSE(token.stop_requested());
}

TEST(StopToken, RequestStopLatches) {
  util::StopSource source;
  util::StopToken token = source.token();
  EXPECT_TRUE(token.stop_possible());
  EXPECT_FALSE(token.stop_requested());
  source.RequestStop();
  EXPECT_TRUE(token.stop_requested());
  source.Clear();
  EXPECT_FALSE(token.stop_requested());
}

TEST(StopToken, DeadlineFires) {
  util::StopSource source;
  util::StopToken token = source.token();
  source.SetDeadlineAfter(std::chrono::hours(-1));  // already past
  EXPECT_TRUE(token.stop_requested());
  source.SetDeadlineAfter(std::chrono::hours(1));
  EXPECT_FALSE(token.stop_requested());
}

// --- Blob / BlobReader -------------------------------------------------------

TEST(SnapshotBlob, RoundTrip) {
  snapshot::Blob blob;
  blob.PutU8(7);
  blob.PutU64(0x0123456789ABCDEFULL);
  blob.PutDouble(3.25);
  blob.PutBool(true);
  blob.PutI16(-42);
  snapshot::BlobReader reader(blob.data(), blob.size());
  EXPECT_EQ(reader.GetU8(), 7u);
  EXPECT_EQ(reader.GetU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(reader.GetDouble(), 3.25);
  EXPECT_TRUE(reader.GetBool());
  EXPECT_EQ(reader.GetI16(), -42);
  EXPECT_TRUE(reader.ok());
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(SnapshotBlob, TruncatedReadLatchesNotOk) {
  snapshot::Blob blob;
  blob.PutU8(1);
  snapshot::BlobReader reader(blob.data(), blob.size());
  EXPECT_EQ(reader.GetU64(), 0u);  // past the end: zero, not garbage
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.GetU8(), 0u);  // stays latched
}

TEST(SnapshotBlob, ImplausibleCountRejected) {
  snapshot::Blob blob;
  blob.PutU64(1ULL << 60);  // claims 2^60 elements in a 8-byte blob
  snapshot::BlobReader reader(blob.data(), blob.size());
  EXPECT_EQ(reader.GetCount(8), 0u);
  EXPECT_FALSE(reader.ok());
}

TEST(SnapshotBlob, PairEntryRoundTrip) {
  PairEntry<2> e;
  e.key = 1.5;
  e.distance = 2.5;
  e.item1.rect = Rect<2>({0.0, 1.0}, {2.0, 3.0});
  e.item1.ref = 11;
  e.item1.level = 2;
  e.item1.kind = JoinItemKind::kNode;
  e.item2.rect = Rect<2>({4.0, 5.0}, {4.0, 5.0});
  e.item2.ref = 7;
  e.item2.level = 0;
  e.item2.kind = JoinItemKind::kObject;
  e.seq = 99;
  e.category = 1;
  e.depth = 3;
  snapshot::Blob blob;
  snapshot::WriteEntry(&blob, e);
  EXPECT_EQ(blob.size(), snapshot::EntryWireSize<2>());
  snapshot::BlobReader reader(blob.data(), blob.size());
  PairEntry<2> back;
  ASSERT_TRUE(snapshot::ReadEntry(&reader, &back));
  EXPECT_EQ(back.key, e.key);
  EXPECT_EQ(back.distance, e.distance);
  EXPECT_EQ(back.item1.ref, e.item1.ref);
  EXPECT_EQ(back.item1.kind, e.item1.kind);
  EXPECT_TRUE(back.item2.rect == e.item2.rect);
  EXPECT_EQ(back.seq, e.seq);
  EXPECT_EQ(back.category, e.category);
  EXPECT_EQ(back.depth, e.depth);
}

// --- SnapshotStore -----------------------------------------------------------

snapshot::Blob PayloadOf(const std::string& text) {
  snapshot::Blob blob;
  blob.PutBytes(text.data(), text.size());
  return blob;
}

TEST(SnapshotStore, EmptyStoreHasNoSnapshot) {
  auto store = snapshot::SnapshotStore::Open(StoreOptions());
  ASSERT_NE(store, nullptr);
  std::string payload;
  EXPECT_FALSE(store->ReadLatest(&payload));
  EXPECT_EQ(store->stats().invalid_slots_seen, 0u);
}

TEST(SnapshotStore, LatestEpochWins) {
  auto store = snapshot::SnapshotStore::Open(StoreOptions("", 256));
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->WriteSnapshot(PayloadOf("one")));
  ASSERT_TRUE(store->WriteSnapshot(PayloadOf("two")));
  ASSERT_TRUE(store->WriteSnapshot(PayloadOf("three")));
  std::string payload;
  uint64_t epoch = 0;
  ASSERT_TRUE(store->ReadLatest(&payload, &epoch));
  EXPECT_EQ(payload, "three");
  EXPECT_EQ(epoch, 3u);
  EXPECT_EQ(store->stats().snapshots_written, 3u);
}

TEST(SnapshotStore, MultiPagePayloadRoundTrips) {
  auto store = snapshot::SnapshotStore::Open(StoreOptions("", 128));
  ASSERT_NE(store, nullptr);
  std::string big(1000, 'x');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i % 251);
  ASSERT_TRUE(store->WriteSnapshot(PayloadOf(big)));
  std::string payload;
  ASSERT_TRUE(store->ReadLatest(&payload));
  EXPECT_EQ(payload, big);
}

TEST(SnapshotStore, SurvivesReopen) {
  const std::string path = TempPath("snap_reopen.bin");
  std::remove(path.c_str());
  {
    auto store = snapshot::SnapshotStore::Open(StoreOptions(path));
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->WriteSnapshot(PayloadOf("persisted")));
  }
  auto store = snapshot::SnapshotStore::Open(StoreOptions(path));
  ASSERT_NE(store, nullptr);
  std::string payload;
  ASSERT_TRUE(store->ReadLatest(&payload));
  EXPECT_EQ(payload, "persisted");
  // The next snapshot after a reopen must not clobber the resumed-from slot.
  ASSERT_TRUE(store->WriteSnapshot(PayloadOf("newer")));
  ASSERT_TRUE(store->ReadLatest(&payload));
  EXPECT_EQ(payload, "newer");
}

// Flips one byte inside a physical page of the snapshot file; the per-page
// checksum trailer catches it on the next read. Physical pages are
// page_size + kPageTrailerSize bytes (storage/page_store.h).
void CorruptPage(const std::string& path, uint32_t page_size, uint32_t page) {
  const uint64_t physical = page_size + storage::kPageTrailerSize;
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const long offset = static_cast<long>(page * physical + 16);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_NE(std::fputc(byte ^ 0xFF, f), EOF);
  std::fclose(f);
}

TEST(SnapshotStore, TornSlotFallsBackToPreviousSnapshot) {
  const std::string path = TempPath("snap_torn.bin");
  std::remove(path.c_str());
  const uint32_t page_size = 4096;
  {
    auto store = snapshot::SnapshotStore::Open(StoreOptions(path));
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->WriteSnapshot(PayloadOf("epoch1")));  // slot 1
    ASSERT_TRUE(store->WriteSnapshot(PayloadOf("epoch2")));  // slot 0
  }
  // Corrupt epoch 2's header (page 0): a torn commit.
  CorruptPage(path, page_size, 0);
  auto store = snapshot::SnapshotStore::Open(StoreOptions(path));
  ASSERT_NE(store, nullptr);
  std::string payload;
  uint64_t epoch = 0;
  ASSERT_TRUE(store->ReadLatest(&payload, &epoch));
  EXPECT_EQ(payload, "epoch1");
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(store->stats().invalid_slots_seen, 1u);
  // The next write must reuse the corrupt slot, not clobber the survivor.
  ASSERT_TRUE(store->WriteSnapshot(PayloadOf("epoch2-redo")));
  ASSERT_TRUE(store->ReadLatest(&payload, &epoch));
  EXPECT_EQ(payload, "epoch2-redo");
}

TEST(SnapshotStore, TornPayloadPageFallsBack) {
  const std::string path = TempPath("snap_torn_payload.bin");
  std::remove(path.c_str());
  {
    auto store = snapshot::SnapshotStore::Open(StoreOptions(path));
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->WriteSnapshot(PayloadOf("epoch1")));  // payload page 3
    ASSERT_TRUE(store->WriteSnapshot(PayloadOf("epoch2")));  // payload page 2
  }
  CorruptPage(path, 4096, 2);  // epoch 2's payload, header intact
  auto store = snapshot::SnapshotStore::Open(StoreOptions(path));
  ASSERT_NE(store, nullptr);
  std::string payload;
  ASSERT_TRUE(store->ReadLatest(&payload));
  EXPECT_EQ(payload, "epoch1");
  EXPECT_EQ(store->stats().invalid_slots_seen, 1u);
}

TEST(SnapshotStore, BothSlotsCorruptMeansNoSnapshot) {
  const std::string path = TempPath("snap_both_torn.bin");
  std::remove(path.c_str());
  {
    auto store = snapshot::SnapshotStore::Open(StoreOptions(path));
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->WriteSnapshot(PayloadOf("epoch1")));
    ASSERT_TRUE(store->WriteSnapshot(PayloadOf("epoch2")));
  }
  CorruptPage(path, 4096, 0);
  CorruptPage(path, 4096, 1);
  auto store = snapshot::SnapshotStore::Open(StoreOptions(path));
  ASSERT_NE(store, nullptr);
  std::string payload;
  EXPECT_FALSE(store->ReadLatest(&payload));
  EXPECT_EQ(store->stats().invalid_slots_seen, 2u);
}

// With S slots, resume must fall back past up to S-1 *consecutive* torn or
// corrupt epochs — the serving layer provisions S > 2 so one bad burst
// cannot strand a session (DESIGN.md §14).
TEST(SnapshotStore, FourSlotsSurviveThreeConsecutiveCorruptEpochs) {
  const std::string path = TempPath("snap_multi_torn.bin");
  std::remove(path.c_str());
  snapshot::SnapshotStoreOptions options = StoreOptions(path);
  options.num_slots = 4;
  {
    auto store = snapshot::SnapshotStore::Open(options);
    ASSERT_NE(store, nullptr);
    for (int e = 1; e <= 5; ++e) {
      ASSERT_TRUE(store->WriteSnapshot(PayloadOf("epoch" + std::to_string(e))));
    }
  }
  // Headers live on pages 0..3 (slot = epoch % 4); epoch e's payload starts
  // on page 4 + (e % 4). Corrupt the three newest epochs — 5 and 3 in their
  // headers, 4 in its payload.
  CorruptPage(path, 4096, 5 % 4);      // epoch 5 header
  CorruptPage(path, 4096, 4 + 4 % 4);  // epoch 4 payload
  CorruptPage(path, 4096, 3 % 4);      // epoch 3 header
  auto store = snapshot::SnapshotStore::Open(options);
  ASSERT_NE(store, nullptr);
  std::string payload;
  uint64_t epoch = 0;
  ASSERT_TRUE(store->ReadLatest(&payload, &epoch));
  EXPECT_EQ(payload, "epoch2");
  EXPECT_EQ(epoch, 2u);
  EXPECT_EQ(store->stats().invalid_slots_seen, 3u);
  // The next commit must rotate into the corrupt slots, never over the
  // survivor we just resumed from.
  ASSERT_TRUE(store->WriteSnapshot(PayloadOf("epoch3-redo")));
  ASSERT_TRUE(store->ReadLatest(&payload, &epoch));
  EXPECT_EQ(payload, "epoch3-redo");
  EXPECT_EQ(epoch, 3u);
}

TEST(SnapshotStore, DeadDiskWriteFailsButPreviousSnapshotSurvives) {
  const std::string path = TempPath("snap_dead_disk.bin");
  std::remove(path.c_str());
  {
    auto store = snapshot::SnapshotStore::Open(StoreOptions(path));
    ASSERT_NE(store, nullptr);
    ASSERT_TRUE(store->WriteSnapshot(PayloadOf("survivor")));
  }
  storage::FaultInjectionOptions faults;
  faults.hard_write_after = 0;  // every write fails from the start
  storage::RetryPolicy retry;
  retry.backoff_us = 0;
  snapshot::SnapshotStoreOptions dead_options = StoreOptions(path);
  dead_options.fault_injection = faults;
  dead_options.retry = retry;
  auto store = snapshot::SnapshotStore::Open(dead_options);
  ASSERT_NE(store, nullptr);
  EXPECT_FALSE(store->WriteSnapshot(PayloadOf("doomed")));
  EXPECT_GE(store->stats().write_failures, 1u);
  std::string payload;
  ASSERT_TRUE(store->ReadLatest(&payload));
  EXPECT_EQ(payload, "survivor");
}

// --- engine suspend / save / restore ----------------------------------------

// The join configurations the resume-equivalence property is checked over.
struct JoinConfig {
  bool hybrid = false;
  int threads = 1;
  bool estimate = false;
  uint64_t max_pairs = 0;
};

DistanceJoinOptions MakeJoinOptions(const JoinConfig& config) {
  DistanceJoinOptions options;
  options.use_hybrid_queue = config.hybrid;
  options.hybrid.tier_width = 25.0;  // small tiers: disk buckets populated
  options.num_threads = config.threads;
  options.max_pairs = config.max_pairs;
  options.estimate_max_distance = config.estimate;
  return options;
}

// Runs `engine` to completion, collecting pairs.
template <typename Engine>
std::vector<Pair> Drain(Engine* engine) {
  std::vector<Pair> pairs;
  JoinResult<2> r;
  while (engine->Next(&r)) pairs.push_back(AsTuple(r));
  return pairs;
}

TEST(DistanceJoinSuspend, StopTokenSuspendsAndContinues) {
  const auto a = MakePoints(120, 1);
  const auto b = MakePoints(120, 2);
  RTree<2> ta = BuildPointTree(a);
  RTree<2> tb = BuildPointTree(b);
  RTree<2> ta2 = BuildPointTree(a);
  RTree<2> tb2 = BuildPointTree(b);

  DistanceJoinOptions options;
  options.max_pairs = 400;
  DistanceJoin<2> reference(ta2, tb2, options);
  const std::vector<Pair> expected = Drain(&reference);

  util::StopSource source;
  options.stop_token = source.token();
  DistanceJoin<2> join(ta, tb, options);
  std::vector<Pair> pairs;
  JoinResult<2> r;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(join.Next(&r));
    pairs.push_back(AsTuple(r));
  }
  source.RequestStop();
  EXPECT_FALSE(join.Next(&r));
  EXPECT_EQ(join.status(), JoinStatus::kSuspended);
  // Suspension is not exhaustion: state is intact, so continuing works.
  source.Clear();
  join.ResumeSuspended();
  while (join.Next(&r)) pairs.push_back(AsTuple(r));
  EXPECT_EQ(join.status(), JoinStatus::kExhausted);
  EXPECT_EQ(pairs, expected);
  ExpectStatsEqual(join.stats(), reference.stats());
}

// Saves engine state after `prefix` pops, restores it into a freshly built
// engine over identical trees, and checks the combined stream and the final
// stats against an uninterrupted reference run.
void CheckJoinResumeEquivalence(const JoinConfig& config, size_t prefix,
                                const std::vector<Point<2>>& a,
                                const std::vector<Point<2>>& b) {
  SCOPED_TRACE(::testing::Message()
               << "hybrid=" << config.hybrid << " threads=" << config.threads
               << " estimate=" << config.estimate << " prefix=" << prefix);
  RTree<2> ref_ta = BuildPointTree(a);
  RTree<2> ref_tb = BuildPointTree(b);
  DistanceJoin<2> reference(ref_ta, ref_tb, MakeJoinOptions(config));
  const std::vector<Pair> expected = Drain(&reference);
  ASSERT_GT(expected.size(), prefix);

  // Phase 1: run `prefix` pairs, then snapshot.
  snapshot::Blob blob;
  std::vector<Pair> combined;
  {
    RTree<2> ta = BuildPointTree(a);
    RTree<2> tb = BuildPointTree(b);
    DistanceJoin<2> join(ta, tb, MakeJoinOptions(config));
    JoinResult<2> r;
    for (size_t i = 0; i < prefix; ++i) {
      ASSERT_TRUE(join.Next(&r));
      combined.push_back(AsTuple(r));
    }
    ASSERT_TRUE(join.SaveState(&blob));
  }

  // Phase 2: fresh engine (fresh trees, as after a crash), restore, drain.
  RTree<2> ta = BuildPointTree(a);
  RTree<2> tb = BuildPointTree(b);
  DistanceJoin<2> resumed(ta, tb, MakeJoinOptions(config));
  snapshot::BlobReader reader(blob.data(), blob.size());
  ASSERT_TRUE(resumed.RestoreState(&reader));
  for (const Pair& p : Drain(&resumed)) combined.push_back(p);
  EXPECT_EQ(combined, expected);
  ExpectStatsEqual(resumed.stats(), reference.stats(),
                   {"parallel_expansions"});
}

TEST(DistanceJoinResume, MemoryQueueSerial) {
  const auto a = MakePoints(150, 3);
  const auto b = MakePoints(150, 4);
  CheckJoinResumeEquivalence({.max_pairs = 500}, 137, a, b);
}

TEST(DistanceJoinResume, MemoryQueueBeforeFirstPop) {
  const auto a = MakePoints(80, 5);
  const auto b = MakePoints(80, 6);
  CheckJoinResumeEquivalence({.max_pairs = 200}, 0, a, b);
}

TEST(DistanceJoinResume, HybridQueueSerial) {
  const auto a = MakePoints(150, 7);
  const auto b = MakePoints(150, 8);
  CheckJoinResumeEquivalence({.hybrid = true, .max_pairs = 500}, 211, a, b);
}

TEST(DistanceJoinResume, MemoryQueueParallel) {
  const auto a = MakePoints(150, 9);
  const auto b = MakePoints(150, 10);
  CheckJoinResumeEquivalence({.threads = 4, .max_pairs = 500}, 97, a, b);
}

TEST(DistanceJoinResume, HybridQueueParallel) {
  const auto a = MakePoints(150, 11);
  const auto b = MakePoints(150, 12);
  CheckJoinResumeEquivalence({.hybrid = true, .threads = 4, .max_pairs = 500},
                             303, a, b);
}

TEST(DistanceJoinResume, WithMaxDistanceEstimation) {
  const auto a = MakePoints(150, 13);
  const auto b = MakePoints(150, 14);
  CheckJoinResumeEquivalence({.estimate = true, .max_pairs = 300}, 120, a, b);
}

TEST(DistanceJoinResume, FuzzRandomSuspensionPoints) {
  std::mt19937_64 rng(20260805);
  const auto a = MakePoints(100, 15);
  const auto b = MakePoints(100, 16);
  const JoinConfig configs[] = {
      {.max_pairs = 250},
      {.hybrid = true, .max_pairs = 250},
      {.threads = 4, .max_pairs = 250},
      {.hybrid = true, .threads = 4, .max_pairs = 250},
  };
  for (const JoinConfig& config : configs) {
    for (int round = 0; round < 3; ++round) {
      const size_t prefix = rng() % 240;
      CheckJoinResumeEquivalence(config, prefix, a, b);
    }
  }
}

TEST(DistanceJoinResume, FingerprintMismatchIsRejected) {
  const auto a = MakePoints(60, 17);
  const auto b = MakePoints(60, 18);
  RTree<2> ta = BuildPointTree(a);
  RTree<2> tb = BuildPointTree(b);
  DistanceJoinOptions options;
  options.max_pairs = 100;
  DistanceJoin<2> join(ta, tb, options);
  JoinResult<2> r;
  ASSERT_TRUE(join.Next(&r));
  snapshot::Blob blob;
  ASSERT_TRUE(join.SaveState(&blob));

  // Different metric: restore must refuse and leave the engine untouched.
  options.metric = Metric::kManhattan;
  DistanceJoin<2> other(ta, tb, options);
  snapshot::BlobReader reader(blob.data(), blob.size());
  EXPECT_FALSE(other.RestoreState(&reader));
  EXPECT_EQ(other.status(), JoinStatus::kOk);
  EXPECT_TRUE(other.Next(&r));  // still iterates from scratch

  // Garbage payload: fail-soft, no abort.
  DistanceJoin<2> third(ta, tb, options);
  const std::string junk(100, '\x5A');
  snapshot::BlobReader junk_reader(junk.data(), junk.size());
  EXPECT_FALSE(third.RestoreState(&junk_reader));
}

// --- semi-join suspend / resume ---------------------------------------------

struct SemiConfig {
  SemiJoinFilter filter = SemiJoinFilter::kInside2;
  SemiJoinBound bound = SemiJoinBound::kNone;
  bool estimate = false;
  int threads = 1;
  uint64_t max_pairs = 0;
};

SemiJoinOptions MakeSemiOptions(const SemiConfig& config) {
  SemiJoinOptions options;
  options.filter = config.filter;
  options.bound = config.bound;
  options.join.estimate_max_distance = config.estimate;
  options.join.num_threads = config.threads;
  options.join.max_pairs = config.max_pairs;
  return options;
}

void CheckSemiResumeEquivalence(const SemiConfig& config, size_t prefix,
                                const std::vector<Point<2>>& a,
                                const std::vector<Point<2>>& b) {
  SCOPED_TRACE(::testing::Message()
               << "filter=" << static_cast<int>(config.filter)
               << " bound=" << static_cast<int>(config.bound)
               << " threads=" << config.threads << " prefix=" << prefix);
  RTree<2> ref_ta = BuildPointTree(a);
  RTree<2> ref_tb = BuildPointTree(b);
  DistanceSemiJoin<2> reference(ref_ta, ref_tb, MakeSemiOptions(config));
  const std::vector<Pair> expected = Drain(&reference);
  ASSERT_GT(expected.size(), prefix);

  snapshot::Blob blob;
  std::vector<Pair> combined;
  {
    RTree<2> ta = BuildPointTree(a);
    RTree<2> tb = BuildPointTree(b);
    DistanceSemiJoin<2> semi(ta, tb, MakeSemiOptions(config));
    JoinResult<2> r;
    for (size_t i = 0; i < prefix; ++i) {
      ASSERT_TRUE(semi.Next(&r));
      combined.push_back(AsTuple(r));
    }
    ASSERT_TRUE(semi.SaveState(&blob));
  }

  RTree<2> ta = BuildPointTree(a);
  RTree<2> tb = BuildPointTree(b);
  DistanceSemiJoin<2> resumed(ta, tb, MakeSemiOptions(config));
  snapshot::BlobReader reader(blob.data(), blob.size());
  ASSERT_TRUE(resumed.RestoreState(&reader));
  for (const Pair& p : Drain(&resumed)) combined.push_back(p);
  EXPECT_EQ(combined, expected);
  ExpectStatsEqual(resumed.stats(), reference.stats(),
                   {"parallel_expansions"});
}

TEST(SemiJoinResume, Inside2) {
  const auto a = MakePoints(120, 21);
  const auto b = MakePoints(120, 22);
  CheckSemiResumeEquivalence({}, 45, a, b);
}

TEST(SemiJoinResume, OutsideFilterBitStringRoundTrips) {
  const auto a = MakePoints(120, 23);
  const auto b = MakePoints(120, 24);
  CheckSemiResumeEquivalence({.filter = SemiJoinFilter::kOutside}, 60, a, b);
}

TEST(SemiJoinResume, GlobalAllBoundsRoundTrip) {
  const auto a = MakePoints(120, 25);
  const auto b = MakePoints(120, 26);
  CheckSemiResumeEquivalence({.bound = SemiJoinBound::kGlobalAll}, 50, a, b);
}

TEST(SemiJoinResume, EstimationWithStopAfter) {
  const auto a = MakePoints(120, 27);
  const auto b = MakePoints(120, 28);
  CheckSemiResumeEquivalence({.estimate = true, .max_pairs = 80}, 30, a, b);
}

TEST(SemiJoinResume, FuzzRandomSuspensionPoints) {
  std::mt19937_64 rng(987654);
  const auto a = MakePoints(90, 29);
  const auto b = MakePoints(90, 30);
  const SemiConfig configs[] = {
      {},
      {.filter = SemiJoinFilter::kOutside},
      {.bound = SemiJoinBound::kGlobalAll, .threads = 4},
      {.filter = SemiJoinFilter::kInside1},
  };
  for (const SemiConfig& config : configs) {
    for (int round = 0; round < 3; ++round) {
      const size_t prefix = rng() % 85;
      CheckSemiResumeEquivalence(config, prefix, a, b);
    }
  }
}

// --- dense-id precondition ---------------------------------------------------

TEST(SemiJoinValidation, SparseIdsYieldInvalidArgumentNotAbort) {
  // Ids 0, 50, 99 over 3 objects: not dense, would overflow S_o indexing.
  RTree<2> ta = BuildPointTree({});
  ta.Insert(Rect<2>::FromPoint({1.0, 1.0}), 0);
  ta.Insert(Rect<2>::FromPoint({2.0, 2.0}), 50);
  ta.Insert(Rect<2>::FromPoint({3.0, 3.0}), 99);
  const auto b = MakePoints(20, 31);
  RTree<2> tb = BuildPointTree(b);

  for (const SemiJoinFilter filter :
       {SemiJoinFilter::kOutside, SemiJoinFilter::kInside1,
        SemiJoinFilter::kInside2}) {
    SemiJoinOptions options;
    options.filter = filter;
    DistanceSemiJoin<2> semi(ta, tb, options);
    JoinResult<2> r;
    EXPECT_FALSE(semi.Next(&r));
    EXPECT_EQ(semi.status(), JoinStatus::kInvalidArgument);
    snapshot::Blob blob;
    EXPECT_FALSE(semi.SaveState(&blob));
  }
}

TEST(SemiJoinValidation, DenseIdsStayValid) {
  const auto a = MakePoints(30, 32);
  const auto b = MakePoints(30, 33);
  RTree<2> ta = BuildPointTree(a);
  RTree<2> tb = BuildPointTree(b);
  EXPECT_EQ(ta.max_object_id(), a.size() - 1);
  DistanceSemiJoin<2> semi(ta, tb, SemiJoinOptions{});
  JoinResult<2> r;
  EXPECT_TRUE(semi.Next(&r));
  EXPECT_NE(semi.status(), JoinStatus::kInvalidArgument);
}

// Query options are user input: every documented option precondition is
// reported as kInvalidArgument (no results, no snapshot), never an abort.
TEST(OptionValidation, BadOptionsYieldInvalidArgumentNotAbort) {
  const auto a = MakePoints(30, 34);
  const auto b = MakePoints(30, 35);
  RTree<2> ta = BuildPointTree(a);
  RTree<2> tb = BuildPointTree(b);
  const auto expect_invalid = [](auto* engine, const char* what) {
    SCOPED_TRACE(what);
    typename std::remove_pointer_t<decltype(engine)>::Result r;
    EXPECT_FALSE(engine->Next(&r));
    EXPECT_EQ(engine->status(), JoinStatus::kInvalidArgument);
    snapshot::Blob blob;
    EXPECT_FALSE(engine->SaveState(&blob));
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto join_case = [&](const char* what, auto tweak) {
    DistanceJoinOptions options;
    JoinFilters<2> filters;
    tweak(&options, &filters);
    DistanceJoin<2> join(ta, tb, options, filters);
    expect_invalid(&join, what);
  };
  using F = JoinFilters<2>;
  join_case("negative range", [](DistanceJoinOptions* o, F*) {
    o->min_distance = -1.0;
  });
  join_case("inverted range", [](DistanceJoinOptions* o, F*) {
    o->min_distance = 5.0;
    o->max_distance = 4.0;
  });
  join_case("NaN bound", [&](DistanceJoinOptions* o, F*) {
    o->max_distance = nan;
  });
  join_case("estimation without max_pairs", [](DistanceJoinOptions* o, F*) {
    o->estimate_max_distance = true;
  });
  join_case("hybrid + reverse", [](DistanceJoinOptions* o, F*) {
    o->use_hybrid_queue = true;
    o->reverse_order = true;
  });
  join_case("filters + estimation", [](DistanceJoinOptions* o, F* f) {
    o->max_pairs = 10;
    o->estimate_max_distance = true;
    f->window1 = Rect<2>({0.0, 0.0}, {500.0, 500.0});
  });
  for (const int threads : {0, -1}) {
    join_case("thread count below 1", [&](DistanceJoinOptions* o, F*) {
      o->num_threads = threads;
    });
    DistanceJoinOptions options;
    options.num_threads = threads;
    options.shards = 2;
    ShardedDistanceJoin<2> sharded(ta, tb, options);
    expect_invalid(&sharded, "sharded thread count below 1");
    WithinJoinOptions within;
    within.epsilon = 10.0;
    within.num_threads = threads;
    IncWithinJoin<2> join(ta, tb, within);
    expect_invalid(&join, "within thread count below 1");
  }
  {
    SemiJoinOptions options;
    options.filter = SemiJoinFilter::kInside1;
    options.join.max_pairs = 10;
    options.join.estimate_max_distance = true;
    options.join.reverse_order = true;
    DistanceSemiJoin<2> semi(ta, tb, options);
    expect_invalid(&semi, "semi estimation + reverse");
  }
  {
    SemiJoinOptions options;
    options.bound = SemiJoinBound::kLocal;
    JoinFilters<2> filters;
    filters.window2 = Rect<2>({0.0, 0.0}, {500.0, 500.0});
    DistanceSemiJoin<2> semi(ta, tb, options, filters);
    expect_invalid(&semi, "semi bound + second-relation filter");
  }
  {
    // Rejected before any page is read or any pair is made.
    SemiJoinOptions options;
    options.filter = SemiJoinFilter::kNone;
    DistanceSemiJoin<2> semi(ta, tb, options);
    expect_invalid(&semi, "semi filter kNone");
    EXPECT_EQ(semi.stats().node_accesses, 0u);
    EXPECT_EQ(semi.stats().queue_pushes, 0u);
    for (const int shards : {1, 2, 4}) {
      options.join.shards = shards;
      ShardedDistanceSemiJoin<2> sharded(ta, tb, options);
      expect_invalid(&sharded, "sharded semi filter kNone");
      EXPECT_EQ(sharded.stats().node_accesses, 0u);
      EXPECT_EQ(sharded.stats().queue_pushes, 0u);
    }
  }
  {
    SemiJoinOptions options;
    options.filter = SemiJoinFilter::kOutside;
    options.join.max_pairs = 10;
    options.join.estimate_max_distance = true;
    DistanceSemiJoin<2> semi(ta, tb, options);
    expect_invalid(&semi, "semi estimation without an Inside filter");
  }
  for (const double eps : {-1.0, nan}) {
    WithinJoinOptions options;
    options.epsilon = eps;
    IncWithinJoin<2> join(ta, tb, options);
    expect_invalid(&join, "within epsilon");
  }
  for (const double bound : {-1.0, nan}) {
    IncNeighborOptions options;
    options.max_distance = bound;
    IncNearestNeighbor<2> nn(ta, Point<2>{1.0, 2.0}, options);
    expect_invalid(&nn, "nearest max_distance");
  }
  {
    IncNeighborOptions options;
    options.use_hybrid_queue = true;
    IncFarthestNeighbor<2> nn(ta, Point<2>{1.0, 2.0}, options);
    expect_invalid(&nn, "farthest + hybrid");
  }
  {
    IncNeighborOptions options;
    options.max_distance = 100.0;
    IncFarthestNeighbor<2> nn(ta, Point<2>{1.0, 2.0}, options);
    expect_invalid(&nn, "farthest with a finite bound");
  }
}

// --- JoinCursor --------------------------------------------------------------

TEST(JoinCursor, CheckpointEveryAndSuspendCheckpoint) {
  const auto a = MakePoints(100, 41);
  const auto b = MakePoints(100, 42);
  RTree<2> ta = BuildPointTree(a);
  RTree<2> tb = BuildPointTree(b);
  DistanceJoinOptions options;
  options.max_pairs = 100;
  util::StopSource source;
  options.stop_token = source.token();
  DistanceJoin<2> join(ta, tb, options);
  JoinCursor<2, DistanceJoin<2>> cursor(&join, MakeCursorOptions("", 10));
  ASSERT_TRUE(cursor.ok());
  JoinResult<2> r;
  for (int i = 0; i < 25; ++i) ASSERT_TRUE(cursor.Next(&r));
  EXPECT_EQ(cursor.cursor_stats().checkpoints_written, 2u);  // at 10 and 20
  source.RequestStop();
  EXPECT_FALSE(cursor.Next(&r));
  EXPECT_EQ(cursor.status(), JoinStatus::kSuspended);
  // Suspension writes one more checkpoint, holding the exact stop point.
  EXPECT_EQ(cursor.cursor_stats().checkpoints_written, 3u);
  EXPECT_EQ(cursor.store()->last_epoch(), 3u);
}

// Simulated crash: phase 1 checkpoints to a file and "dies" (engine, cursor,
// and file-backed trees destroyed mid-run without a final snapshot); phase 2
// reopens everything and resumes from the last checkpoint. The resumed
// stream overlaps the crashed run's tail (at-least-once delivery) and the
// combination must reproduce the uninterrupted result exactly.
TEST(JoinCursor, CrashRecoveryAcrossReopenedTrees) {
  const std::string snap_path = TempPath("cursor_crash.snap");
  const std::string tree_a_path = TempPath("cursor_crash_a.pages");
  const std::string tree_b_path = TempPath("cursor_crash_b.pages");
  std::remove(snap_path.c_str());
  std::remove(tree_a_path.c_str());
  std::remove(tree_b_path.c_str());

  const auto a = MakePoints(100, 43);
  const auto b = MakePoints(100, 44);
  DistanceJoinOptions options;
  options.max_pairs = 120;

  // Reference result from throwaway in-memory trees.
  std::vector<Pair> expected;
  {
    RTree<2> ta = BuildPointTree(a);
    RTree<2> tb = BuildPointTree(b);
    DistanceJoin<2> reference(ta, tb, options);
    expected = Drain(&reference);
  }

  RTreeOptions file_options;
  file_options.page_size = 512;
  auto BuildFileTree = [&](const std::string& path,
                           const std::vector<Point<2>>& pts) {
    RTreeOptions o = file_options;
    o.file_path = path;
    RTree<2> tree(o);
    std::vector<RTree<2>::Entry> entries;
    for (size_t i = 0; i < pts.size(); ++i) {
      entries.push_back({Rect<2>::FromPoint(pts[i]), i});
    }
    tree.BulkLoad(std::move(entries));
    ASSERT_TRUE(tree.Flush());
  };
  BuildFileTree(tree_a_path, a);
  BuildFileTree(tree_b_path, b);

  // Phase 1: 30 pairs with checkpoint_every=8 -> last checkpoint at 24.
  std::vector<Pair> prefix;
  {
    RTreeOptions oa = file_options;
    oa.file_path = tree_a_path;
    RTreeOptions ob = file_options;
    ob.file_path = tree_b_path;
    auto ta = RTree<2>::Open(oa);
    auto tb = RTree<2>::Open(ob);
    ASSERT_NE(ta, nullptr);
    ASSERT_NE(tb, nullptr);
    DistanceJoin<2> join(*ta, *tb, options);
    JoinCursor<2, DistanceJoin<2>> cursor(
        &join, MakeCursorOptions(snap_path, 8));
    ASSERT_TRUE(cursor.ok());
    JoinResult<2> r;
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(cursor.Next(&r));
      prefix.push_back(AsTuple(r));
    }
    EXPECT_EQ(cursor.cursor_stats().checkpoints_written, 3u);
    // "Crash": everything is destroyed here without a suspend snapshot.
  }

  // Phase 2: a new process reopens the trees and the snapshot store.
  RTreeOptions oa = file_options;
  oa.file_path = tree_a_path;
  oa.recover_truncated_tail = true;
  RTreeOptions ob = file_options;
  ob.file_path = tree_b_path;
  ob.recover_truncated_tail = true;
  auto ta = RTree<2>::Open(oa);
  auto tb = RTree<2>::Open(ob);
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  DistanceJoin<2> join(*ta, *tb, options);
  JoinCursor<2, DistanceJoin<2>> cursor(&join,
                                        MakeCursorOptions(snap_path));
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE(cursor.ResumeLatest());
  EXPECT_EQ(cursor.cursor_stats().resumes, 1u);
  // Resume point is the checkpoint at pair 24: prefix[0..24) + resumed
  // stream must equal the uninterrupted result.
  std::vector<Pair> combined(prefix.begin(), prefix.begin() + 24);
  JoinResult<2> r;
  while (cursor.Next(&r)) combined.push_back(AsTuple(r));
  EXPECT_EQ(cursor.status(), JoinStatus::kExhausted);
  EXPECT_EQ(combined, expected);
  EXPECT_EQ(join.stats().pairs_reported, expected.size());
}

// Kill-point fuzz with torn snapshot commits: at a random checkpoint the
// header write is torn (fault schedule), so resume must fall back to the
// previous valid snapshot and still reproduce the reference stream.
TEST(JoinCursor, FuzzTornCheckpointFallsBackToPreviousSnapshot) {
  std::mt19937_64 rng(424242);
  const auto a = MakePoints(80, 45);
  const auto b = MakePoints(80, 46);
  DistanceJoinOptions options;
  options.max_pairs = 100;

  std::vector<Pair> expected;
  {
    RTree<2> ta = BuildPointTree(a);
    RTree<2> tb = BuildPointTree(b);
    DistanceJoin<2> reference(ta, tb, options);
    expected = Drain(&reference);
  }

  for (int round = 0; round < 4; ++round) {
    const std::string path =
        TempPath("cursor_torn_" + std::to_string(round) + ".snap");
    std::remove(path.c_str());
    const uint64_t kill_after = 20 + rng() % 60;
    SCOPED_TRACE(::testing::Message() << "kill_after=" << kill_after);

    // Phase 1: checkpoint every 5 pairs; the snapshot store tears one write
    // partway through the run. A torn write reports failure (the cursor
    // counts it and the previous snapshot stays committed), but it also
    // leaves a half-written page on disk for resume to detect and skip.
    storage::FaultInjectionOptions faults;
    faults.torn_write_at = 6 + rng() % 12;
    storage::RetryPolicy retry;
    retry.backoff_us = 0;
    std::vector<Pair> prefix;
    uint64_t failures = 0;
    // Replay recipe: on failure, print the exact op indices the injector hit
    // so the run can be reproduced with a fixed schedule (DESIGN.md §16).
    std::string schedule;
    // Pair index at which each committed epoch's snapshot was taken.
    std::map<uint64_t, size_t> epoch_to_pairs;
    {
      RTree<2> ta = BuildPointTree(a);
      RTree<2> tb = BuildPointTree(b);
      DistanceJoin<2> join(ta, tb, options);
      CursorOptions torn_options = MakeCursorOptions(path, 5);
      torn_options.fault_injection = faults;
      torn_options.retry = retry;
      JoinCursor<2, DistanceJoin<2>> cursor(&join, torn_options);
      ASSERT_TRUE(cursor.ok());
      JoinResult<2> r;
      uint64_t seen_checkpoints = 0;
      for (uint64_t i = 0; i < kill_after; ++i) {
        ASSERT_TRUE(cursor.Next(&r))
            << "fault schedule: " << cursor.store()->injector()->ScheduleString();
        prefix.push_back(AsTuple(r));
        if (cursor.cursor_stats().checkpoints_written > seen_checkpoints) {
          seen_checkpoints = cursor.cursor_stats().checkpoints_written;
          epoch_to_pairs[cursor.store()->last_epoch()] = prefix.size();
        }
      }
      failures = cursor.cursor_stats().checkpoint_failures;
      schedule = cursor.store()->injector()->ScheduleString();
    }

    // Phase 2: resume; invalid slots are skipped, falling back to the
    // newest epoch that committed cleanly.
    SCOPED_TRACE("fault schedule: " + schedule);
    RTree<2> ta = BuildPointTree(a);
    RTree<2> tb = BuildPointTree(b);
    DistanceJoin<2> join(ta, tb, options);
    JoinCursor<2, DistanceJoin<2>> cursor(&join, MakeCursorOptions(path));
    ASSERT_TRUE(cursor.ok());
    JoinResult<2> r;
    std::vector<Pair> combined;
    if (cursor.ResumeLatest()) {
      const uint64_t epoch = cursor.store()->last_epoch();
      ASSERT_TRUE(epoch_to_pairs.count(epoch) > 0);
      combined.assign(prefix.begin(),
                      prefix.begin() + epoch_to_pairs[epoch]);
    }
    while (cursor.Next(&r)) combined.push_back(AsTuple(r));
    EXPECT_EQ(combined, expected);
    (void)failures;  // any torn checkpoint was survived by the run above
  }
}

TEST(JoinCursor, CheckpointFailureDegradesGracefully) {
  const auto a = MakePoints(60, 47);
  const auto b = MakePoints(60, 48);
  RTree<2> ta = BuildPointTree(a);
  RTree<2> tb = BuildPointTree(b);
  RTree<2> ta2 = BuildPointTree(a);
  RTree<2> tb2 = BuildPointTree(b);
  DistanceJoinOptions options;
  options.max_pairs = 50;
  DistanceJoin<2> reference(ta2, tb2, options);
  const std::vector<Pair> expected = Drain(&reference);

  storage::FaultInjectionOptions faults;
  faults.hard_write_after = 0;  // snapshot store is a dead disk
  storage::RetryPolicy retry;
  retry.backoff_us = 0;
  DistanceJoin<2> join(ta, tb, options);
  CursorOptions dead_options = MakeCursorOptions("", 10);
  dead_options.fault_injection = faults;
  dead_options.retry = retry;
  JoinCursor<2, DistanceJoin<2>> cursor(&join, dead_options);
  // The join must complete correctly even though every checkpoint fails.
  std::vector<Pair> pairs;
  JoinResult<2> r;
  while (cursor.Next(&r)) pairs.push_back(AsTuple(r));
  EXPECT_EQ(pairs, expected);
  EXPECT_EQ(cursor.status(), JoinStatus::kExhausted);
  EXPECT_EQ(cursor.cursor_stats().checkpoints_written, 0u);
  EXPECT_GE(cursor.cursor_stats().checkpoint_failures, 4u);
}

// A torn commit under commit_retry: the first WriteSnapshot fails, the
// bounded retry re-runs the shadow-paged commit, and the checkpoint lands —
// counted as a retry, not a failure. Write indices on a fresh store are
// deterministic: 0-1 initialize the header slots, 2-3 extend the file for
// the first one-page payload, 4 is the payload itself, 5 the header.
TEST(JoinCursor, CommitRetryRecoversTornCheckpoint) {
  const auto a = MakePoints(60, 71);
  const auto b = MakePoints(60, 72);
  RTree<2> ta = BuildPointTree(a);
  RTree<2> tb = BuildPointTree(b);
  DistanceJoinOptions options;
  options.max_pairs = 40;
  DistanceJoin<2> join(ta, tb, options);

  storage::FaultInjectionOptions faults;
  faults.torn_write_at = 4;  // tears the first commit's payload write
  CursorOptions retry_options = MakeCursorOptions();
  retry_options.fault_injection = faults;
  retry_options.retry.backoff_us = 0;
  retry_options.commit_retry = {.max_attempts = 3, .backoff_us = 0};
  JoinCursor<2, DistanceJoin<2>> cursor(&join, retry_options);
  ASSERT_TRUE(cursor.ok());
  EXPECT_TRUE(cursor.Checkpoint());
  EXPECT_EQ(cursor.cursor_stats().checkpoint_retries, 1u);
  EXPECT_EQ(cursor.cursor_stats().checkpoint_failures, 0u);
  EXPECT_EQ(cursor.cursor_stats().checkpoints_written, 1u);
  EXPECT_EQ(cursor.store()->stats().write_failures, 1u);
  std::string payload;
  EXPECT_TRUE(cursor.store()->ReadLatest(&payload));
}

// The default commit policy (one attempt) preserves the historical
// fail-once behavior: the torn commit is a counted failure, and only the
// *next* checkpoint lands.
TEST(JoinCursor, DefaultCommitPolicyFailsOnceWithoutRetrying) {
  const auto a = MakePoints(60, 73);
  const auto b = MakePoints(60, 74);
  RTree<2> ta = BuildPointTree(a);
  RTree<2> tb = BuildPointTree(b);
  DistanceJoinOptions options;
  options.max_pairs = 40;
  DistanceJoin<2> join(ta, tb, options);

  storage::FaultInjectionOptions faults;
  faults.torn_write_at = 4;
  CursorOptions torn_options = MakeCursorOptions();
  torn_options.fault_injection = faults;
  torn_options.retry.backoff_us = 0;
  JoinCursor<2, DistanceJoin<2>> cursor(&join, torn_options);
  ASSERT_TRUE(cursor.ok());
  EXPECT_FALSE(cursor.Checkpoint());
  EXPECT_EQ(cursor.cursor_stats().checkpoint_retries, 0u);
  EXPECT_EQ(cursor.cursor_stats().checkpoint_failures, 1u);
  EXPECT_TRUE(cursor.Checkpoint());  // the torn fault was one-shot
  EXPECT_EQ(cursor.cursor_stats().checkpoints_written, 1u);
}

// Cursor-level S-slot fallback: with snapshot_slots = 4 and the two newest
// checkpoint epochs corrupted on disk ("crash during a bad burst"), resume
// lands on the third-newest checkpoint and the combined stream still
// matches the uninterrupted reference.
TEST(JoinCursor, MultiSlotResumeFallsBackPastConsecutiveCorruptEpochs) {
  const std::string path = TempPath("cursor_multislot.snap");
  std::remove(path.c_str());
  const auto a = MakePoints(80, 75);
  const auto b = MakePoints(80, 76);
  DistanceJoinOptions options;
  options.max_pairs = 100;

  std::vector<Pair> expected;
  {
    RTree<2> ta = BuildPointTree(a);
    RTree<2> tb = BuildPointTree(b);
    DistanceJoin<2> reference(ta, tb, options);
    expected = Drain(&reference);
  }

  // Phase 1: checkpoint every 5 pairs for 25 pairs -> epochs 1..5, epoch e
  // taken at pair 5*e; then crash.
  std::vector<Pair> prefix;
  {
    RTree<2> ta = BuildPointTree(a);
    RTree<2> tb = BuildPointTree(b);
    DistanceJoin<2> join(ta, tb, options);
    CursorOptions slot_options = MakeCursorOptions(path, 5);
    slot_options.snapshot_slots = 4;
    JoinCursor<2, DistanceJoin<2>> cursor(&join, slot_options);
    ASSERT_TRUE(cursor.ok());
    JoinResult<2> r;
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(cursor.Next(&r));
      prefix.push_back(AsTuple(r));
    }
    ASSERT_EQ(cursor.cursor_stats().checkpoints_written, 5u);
    ASSERT_EQ(cursor.store()->last_epoch(), 5u);
  }
  // Corrupt the headers of epochs 5 and 4 (slots 5%4 = 1 and 4%4 = 0).
  CorruptPage(path, 4096, 1);
  CorruptPage(path, 4096, 0);

  // Phase 2: resume must fall back to epoch 3 (pair 15).
  RTree<2> ta = BuildPointTree(a);
  RTree<2> tb = BuildPointTree(b);
  DistanceJoin<2> join(ta, tb, options);
  CursorOptions slot_options = MakeCursorOptions(path);
  slot_options.snapshot_slots = 4;
  JoinCursor<2, DistanceJoin<2>> cursor(&join, slot_options);
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE(cursor.ResumeLatest());
  EXPECT_EQ(cursor.store()->last_epoch(), 3u);
  EXPECT_EQ(cursor.cursor_stats().snapshot_fallbacks, 2u);
  std::vector<Pair> combined(prefix.begin(), prefix.begin() + 15);
  JoinResult<2> r;
  while (cursor.Next(&r)) combined.push_back(AsTuple(r));
  EXPECT_EQ(combined, expected);
}

TEST(JoinCursor, ResumeLatestOnEmptyStoreStartsFromScratch) {
  const auto a = MakePoints(40, 49);
  const auto b = MakePoints(40, 50);
  RTree<2> ta = BuildPointTree(a);
  RTree<2> tb = BuildPointTree(b);
  DistanceJoinOptions options;
  options.max_pairs = 20;
  DistanceJoin<2> join(ta, tb, options);
  JoinCursor<2, DistanceJoin<2>> cursor(&join, MakeCursorOptions());
  EXPECT_FALSE(cursor.ResumeLatest());
  JoinResult<2> r;
  EXPECT_TRUE(cursor.Next(&r));
}

TEST(JoinCursor, WorksWithSemiJoinEngine) {
  const auto a = MakePoints(80, 51);
  const auto b = MakePoints(80, 52);
  RTree<2> ref_ta = BuildPointTree(a);
  RTree<2> ref_tb = BuildPointTree(b);
  DistanceSemiJoin<2> reference(ref_ta, ref_tb, SemiJoinOptions{});
  const std::vector<Pair> expected = Drain(&reference);

  const std::string path = TempPath("cursor_semi.snap");
  std::remove(path.c_str());
  std::vector<Pair> combined;
  {
    RTree<2> ta = BuildPointTree(a);
    RTree<2> tb = BuildPointTree(b);
    SemiJoinOptions options;
    util::StopSource source;
    options.join.stop_token = source.token();
    DistanceSemiJoin<2> semi(ta, tb, options);
    JoinCursor<2, DistanceSemiJoin<2>> cursor(&semi,
                                              MakeCursorOptions(path));
    JoinResult<2> r;
    for (int i = 0; i < 33; ++i) {
      ASSERT_TRUE(cursor.Next(&r));
      combined.push_back(AsTuple(r));
    }
    source.RequestStop();
    EXPECT_FALSE(cursor.Next(&r));
    EXPECT_EQ(cursor.status(), JoinStatus::kSuspended);
  }
  RTree<2> ta = BuildPointTree(a);
  RTree<2> tb = BuildPointTree(b);
  DistanceSemiJoin<2> semi(ta, tb, SemiJoinOptions{});
  JoinCursor<2, DistanceSemiJoin<2>> cursor(&semi, MakeCursorOptions(path));
  ASSERT_TRUE(cursor.ResumeLatest());
  JoinResult<2> r;
  while (cursor.Next(&r)) combined.push_back(AsTuple(r));
  EXPECT_EQ(combined, expected);
  ExpectStatsEqual(semi.stats(), reference.stats());
}

// --- NN suspend hooks --------------------------------------------------------

TEST(IncNearestSuspend, StopTokenSuspendsAndContinues) {
  const auto pts = MakePoints(200, 61);
  RTree<2> tree = BuildPointTree(pts);
  const Point<2> query{500.0, 500.0};

  IncNearestNeighbor<2> reference(tree, query);
  std::vector<std::pair<ObjectId, double>> expected;
  IncNearestNeighbor<2>::Result hit;
  while (reference.Next(&hit)) expected.push_back({hit.id, hit.distance});

  util::StopSource source;
  IncNearestNeighbor<2> nn(tree, query);
  nn.set_stop_token(source.token());
  std::vector<std::pair<ObjectId, double>> got;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(nn.Next(&hit));
    got.push_back({hit.id, hit.distance});
  }
  source.RequestStop();
  EXPECT_FALSE(nn.Next(&hit));
  EXPECT_TRUE(nn.suspended());
  source.Clear();
  while (nn.Next(&hit)) got.push_back({hit.id, hit.distance});
  EXPECT_FALSE(nn.suspended());  // final false was exhaustion
  EXPECT_EQ(got, expected);
}

TEST(IncFarthestSuspend, StopTokenSuspendsAndContinues) {
  const auto pts = MakePoints(200, 62);
  RTree<2> tree = BuildPointTree(pts);
  const Point<2> query{500.0, 500.0};

  IncFarthestNeighbor<2> reference(tree, query);
  std::vector<std::pair<ObjectId, double>> expected;
  IncFarthestNeighbor<2>::Result hit;
  while (reference.Next(&hit)) expected.push_back({hit.id, hit.distance});

  util::StopSource source;
  IncFarthestNeighbor<2> fn(tree, query);
  fn.set_stop_token(source.token());
  std::vector<std::pair<ObjectId, double>> got;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(fn.Next(&hit));
    got.push_back({hit.id, hit.distance});
  }
  source.RequestStop();
  EXPECT_FALSE(fn.Next(&hit));
  EXPECT_TRUE(fn.suspended());
  source.Clear();
  while (fn.Next(&hit)) got.push_back({hit.id, hit.distance});
  EXPECT_EQ(got, expected);
}

// --- NN snapshot resume ------------------------------------------------------

// NN analogue of CheckJoinResumeEquivalence: snapshot after `prefix` pops,
// restore into a freshly built engine, and check the combined stream and
// final engine stats against an uninterrupted run.
template <typename Engine>
void CheckNeighborResumeEquivalence(const IncNeighborOptions& options,
                                    size_t prefix,
                                    const std::vector<Point<2>>& pts,
                                    const Point<2>& query) {
  SCOPED_TRACE(::testing::Message() << "hybrid=" << options.use_hybrid_queue
                                    << " prefix=" << prefix);
  using Hit = std::pair<ObjectId, double>;
  RTree<2> ref_tree = BuildPointTree(pts);
  Engine reference(ref_tree, query, options);
  std::vector<Hit> expected;
  typename Engine::Result hit;
  while (reference.Next(&hit)) expected.push_back({hit.id, hit.distance});
  ASSERT_GT(expected.size(), prefix);

  snapshot::Blob blob;
  std::vector<Hit> combined;
  {
    RTree<2> tree = BuildPointTree(pts);
    Engine nn(tree, query, options);
    for (size_t i = 0; i < prefix; ++i) {
      ASSERT_TRUE(nn.Next(&hit));
      combined.push_back({hit.id, hit.distance});
    }
    ASSERT_TRUE(nn.SaveState(&blob));
  }

  RTree<2> tree = BuildPointTree(pts);
  Engine resumed(tree, query, options);
  snapshot::BlobReader reader(blob.data(), blob.size());
  ASSERT_TRUE(resumed.RestoreState(&reader));
  while (resumed.Next(&hit)) combined.push_back({hit.id, hit.distance});
  EXPECT_EQ(combined, expected);
  ExpectStatsEqual(resumed.engine_stats(), reference.engine_stats());
}

TEST(IncNearestResume, MemoryQueue) {
  const auto pts = MakePoints(200, 63);
  CheckNeighborResumeEquivalence<IncNearestNeighbor<2>>(
      {}, 73, pts, Point<2>{500.0, 500.0});
}

TEST(IncNearestResume, HybridQueue) {
  const auto pts = MakePoints(200, 64);
  IncNeighborOptions options;
  options.use_hybrid_queue = true;
  options.hybrid.tier_width = 25.0;  // small tiers: disk buckets populated
  CheckNeighborResumeEquivalence<IncNearestNeighbor<2>>(
      options, 121, pts, Point<2>{500.0, 500.0});
}

TEST(IncFarthestResume, MemoryQueue) {
  const auto pts = MakePoints(200, 65);
  CheckNeighborResumeEquivalence<IncFarthestNeighbor<2>>(
      {}, 73, pts, Point<2>{500.0, 500.0});
}

TEST(IncNearestResume, FuzzRandomSuspensionPoints) {
  std::mt19937_64 rng(20260806);
  const auto pts = MakePoints(150, 66);
  const Point<2> query{250.0, 750.0};
  for (const bool hybrid : {false, true}) {
    IncNeighborOptions options;
    options.use_hybrid_queue = hybrid;
    options.hybrid.tier_width = 25.0;
    for (int round = 0; round < 3; ++round) {
      const size_t prefix = rng() % 140;
      CheckNeighborResumeEquivalence<IncNearestNeighbor<2>>(options, prefix,
                                                            pts, query);
    }
  }
}

TEST(IncNearestResume, FingerprintMismatchIsRejected) {
  const auto pts = MakePoints(80, 67);
  RTree<2> tree = BuildPointTree(pts);
  IncNearestNeighbor<2> nn(tree, Point<2>{10.0, 20.0});
  IncNearestNeighbor<2>::Result hit;
  ASSERT_TRUE(nn.Next(&hit));
  snapshot::Blob blob;
  ASSERT_TRUE(nn.SaveState(&blob));

  // Different query point: restore must refuse.
  IncNearestNeighbor<2> other(tree, Point<2>{11.0, 20.0});
  snapshot::BlobReader reader(blob.data(), blob.size());
  EXPECT_FALSE(other.RestoreState(&reader));
}

TEST(JoinCursor, WorksWithNearestNeighborEngine) {
  const auto pts = MakePoints(150, 68);
  const Point<2> query{333.0, 444.0};
  using Hit = std::pair<ObjectId, double>;
  RTree<2> ref_tree = BuildPointTree(pts);
  IncNearestNeighbor<2> reference(ref_tree, query);
  std::vector<Hit> expected;
  IncNearestNeighbor<2>::Result hit;
  while (reference.Next(&hit)) expected.push_back({hit.id, hit.distance});

  const std::string path = TempPath("cursor_nn.snap");
  std::remove(path.c_str());
  std::vector<Hit> combined;
  {
    RTree<2> tree = BuildPointTree(pts);
    util::StopSource source;
    IncNeighborOptions options;
    options.stop_token = source.token();
    IncNearestNeighbor<2> nn(tree, query, options);
    JoinCursor<2, IncNearestNeighbor<2>> cursor(&nn, MakeCursorOptions(path));
    for (int i = 0; i < 47; ++i) {
      ASSERT_TRUE(cursor.Next(&hit));
      combined.push_back({hit.id, hit.distance});
    }
    source.RequestStop();
    EXPECT_FALSE(cursor.Next(&hit));
    EXPECT_EQ(cursor.status(), JoinStatus::kSuspended);
  }
  RTree<2> tree = BuildPointTree(pts);
  IncNearestNeighbor<2> nn(tree, query);
  JoinCursor<2, IncNearestNeighbor<2>> cursor(&nn, MakeCursorOptions(path));
  ASSERT_TRUE(cursor.ResumeLatest());
  while (cursor.Next(&hit)) combined.push_back({hit.id, hit.distance});
  EXPECT_EQ(combined, expected);
  ExpectStatsEqual(nn.engine_stats(), reference.engine_stats());
}

TEST(JoinCursor, WorksWithWithinJoinEngine) {
  const auto a = MakePoints(120, 69);
  const auto b = MakePoints(120, 70);
  WithinJoinOptions options;
  options.epsilon = 80.0;
  RTree<2> ref_ta = BuildPointTree(a);
  RTree<2> ref_tb = BuildPointTree(b);
  IncWithinJoin<2> reference(ref_ta, ref_tb, options);
  const std::vector<Pair> expected = Drain(&reference);
  ASSERT_GT(expected.size(), 40u);

  const std::string path = TempPath("cursor_within.snap");
  std::remove(path.c_str());
  std::vector<Pair> combined;
  {
    RTree<2> ta = BuildPointTree(a);
    RTree<2> tb = BuildPointTree(b);
    util::StopSource source;
    WithinJoinOptions stoppable = options;
    stoppable.stop_token = source.token();
    IncWithinJoin<2> join(ta, tb, stoppable);
    JoinCursor<2, IncWithinJoin<2>> cursor(&join, MakeCursorOptions(path));
    JoinResult<2> r;
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(cursor.Next(&r));
      combined.push_back(AsTuple(r));
    }
    source.RequestStop();
    EXPECT_FALSE(cursor.Next(&r));
    EXPECT_EQ(cursor.status(), JoinStatus::kSuspended);
  }
  RTree<2> ta = BuildPointTree(a);
  RTree<2> tb = BuildPointTree(b);
  IncWithinJoin<2> join(ta, tb, options);
  JoinCursor<2, IncWithinJoin<2>> cursor(&join, MakeCursorOptions(path));
  ASSERT_TRUE(cursor.ResumeLatest());
  JoinResult<2> r;
  while (cursor.Next(&r)) combined.push_back(AsTuple(r));
  EXPECT_EQ(combined, expected);
  ExpectStatsEqual(join.stats(), reference.stats());
}

}  // namespace
}  // namespace sdj
