// Tests for the failure-handling substrate (DESIGN.md "Failure model"):
// deterministic fault injection, checksum verification, buffer-pool retries,
// and graceful join degradation under injected storage faults.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance_join.h"
#include "core/hybrid_queue.h"
#include "core/intersection_join.h"
#include "core/semi_join.h"
#include "core/shard_merge.h"
#include "core/within_join.h"
#include "data/generators.h"
#include "nn/inc_farthest.h"
#include "nn/inc_nearest.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/page_file.h"
#include "storage/page_store.h"

namespace sdj {
namespace {

using storage::BufferPool;
using storage::FaultCounters;
using storage::FaultInjectingPageFile;
using storage::FaultInjectionOptions;
using storage::IoStatus;
using storage::NewFaultInjectingPageFile;
using storage::NewMemoryPageFile;
using storage::PageId;
using storage::RetryPolicy;

RetryPolicy FastRetry() {
  RetryPolicy retry;
  retry.backoff_us = 0;  // keep tests fast; retries still happen
  return retry;
}

// --- injector behaviour -----------------------------------------------------

TEST(FaultInjection, DefaultsInjectNothing) {
  auto file = NewFaultInjectingPageFile(NewMemoryPageFile(64),
                                        FaultInjectionOptions{});
  const PageId id = file->Allocate();
  char buffer[64];
  std::memset(buffer, 0x2A, sizeof(buffer));
  EXPECT_EQ(file->Write(id, buffer), IoStatus::kOk);
  EXPECT_EQ(file->Read(id, buffer), IoStatus::kOk);
  const FaultCounters& c = file->counters();
  EXPECT_EQ(c.reads, 1u);
  EXPECT_EQ(c.writes, 1u);
  EXPECT_EQ(c.transient_read_faults + c.transient_write_faults +
                c.hard_read_faults + c.hard_write_faults + c.bit_flips +
                c.torn_writes,
            0u);
}

TEST(FaultInjection, PeriodicTransientReadFaults) {
  FaultInjectionOptions options;
  options.transient_read_period = 3;  // every 3rd read attempt fails
  auto file = NewFaultInjectingPageFile(NewMemoryPageFile(64), options);
  const PageId id = file->Allocate();
  char buffer[64];
  int transients = 0;
  for (int i = 0; i < 12; ++i) {
    if (file->Read(id, buffer) == IoStatus::kTransient) ++transients;
  }
  EXPECT_EQ(transients, 4);
  EXPECT_EQ(file->counters().transient_read_faults, 4u);
  EXPECT_EQ(file->counters().reads, 12u);
}

TEST(FaultInjection, ProbabilisticFaultsAreSeedDeterministic) {
  FaultInjectionOptions options;
  options.seed = 42;
  options.transient_read_rate = 0.3;
  auto Run = [&options]() {
    auto file = NewFaultInjectingPageFile(NewMemoryPageFile(64), options);
    const PageId id = file->Allocate();
    char buffer[64];
    std::vector<bool> outcomes;
    for (int i = 0; i < 200; ++i) {
      outcomes.push_back(file->Read(id, buffer) == IoStatus::kOk);
    }
    return outcomes;
  };
  const auto first = Run();
  const auto second = Run();
  EXPECT_EQ(first, second);
  // With rate 0.3 over 200 reads, both outcomes must occur.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST(FaultInjection, HardReadFaultsAfterThreshold) {
  FaultInjectionOptions options;
  options.hard_read_after = 2;
  auto file = NewFaultInjectingPageFile(NewMemoryPageFile(64), options);
  const PageId id = file->Allocate();
  char buffer[64];
  EXPECT_EQ(file->Read(id, buffer), IoStatus::kOk);
  EXPECT_EQ(file->Read(id, buffer), IoStatus::kOk);
  EXPECT_EQ(file->Read(id, buffer), IoStatus::kFailed);
  EXPECT_EQ(file->Read(id, buffer), IoStatus::kFailed);
  EXPECT_EQ(file->counters().hard_read_faults, 2u);
}

TEST(FaultInjection, BitFlipCorruptsExactlyOneBit) {
  FaultInjectionOptions options;
  options.bit_flip_read_rate = 1.0;  // flip on every read
  auto file = NewFaultInjectingPageFile(NewMemoryPageFile(64), options);
  const PageId id = file->Allocate();
  char original[64];
  std::memset(original, 0x5C, sizeof(original));
  ASSERT_EQ(file->Write(id, original), IoStatus::kOk);
  char read_back[64];
  ASSERT_EQ(file->Read(id, read_back), IoStatus::kOk);  // silently corrupt
  int differing_bits = 0;
  for (size_t i = 0; i < sizeof(original); ++i) {
    differing_bits += __builtin_popcount(
        static_cast<unsigned char>(original[i] ^ read_back[i]));
  }
  EXPECT_EQ(differing_bits, 1);
  EXPECT_EQ(file->counters().bit_flips, 1u);
}

// --- checksum layer over the injector ---------------------------------------

// Builds the standard stack (memory backend -> injector -> checksums) with
// 64-byte logical pages and hands back the borrowed injector pointer.
std::unique_ptr<storage::PageFile> FaultyCheckedStore(
    const FaultInjectionOptions& faults, FaultInjectingPageFile** injector) {
  storage::PageStoreOptions options;
  options.page_size = 64;
  options.fault_injection = faults;
  return storage::CreatePageStore(options, injector);
}

TEST(Checksums, BitFlipIsDetectedAsCorrupt) {
  FaultInjectionOptions faults;
  faults.bit_flip_read_rate = 1.0;
  FaultInjectingPageFile* injector = nullptr;
  auto store = FaultyCheckedStore(faults, &injector);
  ASSERT_NE(store, nullptr);
  ASSERT_NE(injector, nullptr);
  const PageId id = store->Allocate();
  char buffer[64];
  std::memset(buffer, 0x77, sizeof(buffer));
  ASSERT_EQ(store->Write(id, buffer), IoStatus::kOk);
  // The silent bit flip below the checksum layer surfaces as kCorrupt, never
  // as wrong bytes with kOk.
  EXPECT_EQ(store->Read(id, buffer), IoStatus::kCorrupt);
  EXPECT_EQ(injector->counters().bit_flips, 1u);
}

TEST(Checksums, TornWriteIsDetectedOnRead) {
  FaultInjectionOptions faults;
  faults.torn_write_at = 1;  // the second write tears
  FaultInjectingPageFile* injector = nullptr;
  auto store = FaultyCheckedStore(faults, &injector);
  ASSERT_NE(store, nullptr);
  const PageId a = store->Allocate();
  const PageId b = store->Allocate();
  char buffer[64];
  std::memset(buffer, 0x11, sizeof(buffer));
  ASSERT_EQ(store->Write(a, buffer), IoStatus::kOk);
  std::memset(buffer, 0x22, sizeof(buffer));
  EXPECT_EQ(store->Write(b, buffer), IoStatus::kFailed);  // torn
  EXPECT_EQ(injector->counters().torn_writes, 1u);
  // The intact page reads fine; the torn page fails verification.
  EXPECT_EQ(store->Read(a, buffer), IoStatus::kOk);
  EXPECT_EQ(store->Read(b, buffer), IoStatus::kCorrupt);
}

// --- buffer-pool retries ----------------------------------------------------

TEST(BufferPoolRetry, TransientReadsAreRetriedAndRecovered) {
  FaultInjectionOptions faults;
  faults.transient_read_period = 2;  // every other read attempt fails
  FaultInjectingPageFile* injector = nullptr;
  auto store = FaultyCheckedStore(faults, &injector);
  ASSERT_NE(store, nullptr);
  BufferPool pool(std::move(store), 4, FastRetry());

  // Enough pages that the every-other-read-attempt schedule must fire.
  std::vector<PageId> ids(6);
  for (size_t p = 0; p < ids.size(); ++p) {
    char* data = pool.NewPage(&ids[p]);
    std::memset(data, 0x40 + static_cast<int>(p), pool.page_size());
    pool.Unpin(ids[p], true);
  }
  ASSERT_TRUE(pool.FlushAll());
  pool.Invalidate();

  // Every read that hits a transient fault is re-issued and succeeds.
  for (size_t p = 0; p < ids.size(); ++p) {
    char* again = pool.Pin(ids[p]);
    ASSERT_NE(again, nullptr);
    for (uint32_t i = 0; i < pool.page_size(); ++i) {
      ASSERT_EQ(again[i], 0x40 + static_cast<int>(p));
    }
    pool.Unpin(ids[p], false);
  }
  EXPECT_GT(pool.stats().read_retries, 0u);
  EXPECT_EQ(pool.stats().read_failures, 0u);
  EXPECT_GT(injector->counters().transient_read_faults, 0u);
}

TEST(BufferPoolRetry, CorruptReadsAreRetriedAndCounted) {
  FaultInjectionOptions faults;
  faults.seed = 9;
  faults.bit_flip_read_rate = 0.5;  // half the reads corrupt; re-reads heal
  FaultInjectingPageFile* injector = nullptr;
  auto store = FaultyCheckedStore(faults, &injector);
  ASSERT_NE(store, nullptr);
  RetryPolicy retry = FastRetry();
  retry.max_attempts = 16;  // enough that p(all corrupt) is negligible
  BufferPool pool(std::move(store), 4, retry);

  PageId id;
  char* data = pool.NewPage(&id);
  std::memset(data, 0x24, pool.page_size());
  pool.Unpin(id, true);
  ASSERT_TRUE(pool.FlushAll());

  uint64_t healed = 0;
  for (int round = 0; round < 20; ++round) {
    pool.Invalidate();
    char* again = pool.Pin(id);
    ASSERT_NE(again, nullptr);
    for (uint32_t i = 0; i < pool.page_size(); ++i) {
      ASSERT_EQ(static_cast<unsigned char>(again[i]), 0x24);
    }
    pool.Unpin(id, false);
    healed += pool.stats().checksum_failures;
  }
  // The schedule flips bits on ~half of all physical reads, so at least one
  // of the 20 round trips must have gone through the corrupt-retry path.
  EXPECT_GT(healed, 0u);
  EXPECT_EQ(pool.stats().read_failures, 0u);
}

TEST(BufferPoolRetry, HardReadFailureSurfacesThroughTryPin) {
  FaultInjectionOptions faults;
  faults.hard_read_after = 0;  // every physical read fails
  auto store = FaultyCheckedStore(faults, nullptr);
  ASSERT_NE(store, nullptr);
  BufferPool pool(std::move(store), 4, FastRetry());

  PageId id;
  char* data = pool.NewPage(&id);
  std::memset(data, 0x01, pool.page_size());
  pool.Unpin(id, true);
  ASSERT_TRUE(pool.FlushAll());
  pool.Invalidate();

  IoStatus status = IoStatus::kOk;
  EXPECT_EQ(pool.TryPin(id, &status), nullptr);
  EXPECT_EQ(status, IoStatus::kFailed);
  EXPECT_GT(pool.stats().read_failures, 0u);
  // A subsequent successful operation is still possible on other state: the
  // pool is not poisoned by the failure.
  PageId fresh;
  EXPECT_NE(pool.TryNewPage(&fresh), nullptr);
  pool.Unpin(fresh, false);
}

TEST(BufferPoolRetry, EvictionWriteBackFailureIsSurfaced) {
  FaultInjectionOptions faults;
  faults.hard_write_after = 0;  // every physical write fails
  auto store = FaultyCheckedStore(faults, nullptr);
  ASSERT_NE(store, nullptr);
  BufferPool pool(std::move(store), 2, FastRetry());

  // Fill the pool with dirty pages, then ask for more: every eviction
  // candidate fails to write back, so allocation must fail cleanly (no
  // abort, no data loss) instead of dropping a dirty page.
  PageId a, b;
  std::memset(pool.NewPage(&a), 0xA1, pool.page_size());
  pool.Unpin(a, true);
  std::memset(pool.NewPage(&b), 0xB2, pool.page_size());
  pool.Unpin(b, true);

  PageId c;
  IoStatus status = IoStatus::kOk;
  EXPECT_EQ(pool.TryNewPage(&c, &status), nullptr);
  EXPECT_EQ(status, IoStatus::kFailed);
  EXPECT_GT(pool.stats().write_failures, 0u);
  EXPECT_FALSE(pool.FlushAll());

  // The dirty pages are still resident and intact.
  char* data = pool.Pin(a);
  for (uint32_t i = 0; i < pool.page_size(); ++i) {
    ASSERT_EQ(static_cast<unsigned char>(data[i]), 0xA1);
  }
  pool.Unpin(a, false);
}

// --- joins over faulty storage ----------------------------------------------

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Builds a fault-free file-backed R-tree over `points` and flushes it.
void BuildTreeFile(const std::string& path,
                   const std::vector<Point<2>>& points) {
  RTreeOptions options;
  options.page_size = 512;
  options.file_path = path;
  RTree<2> tree(options);
  for (size_t i = 0; i < points.size(); ++i) {
    tree.Insert(Rect<2>::FromPoint(points[i]), i);
  }
  ASSERT_TRUE(tree.Flush());
}

// Reopens `path` with the given fault schedule and a small buffer (so the
// join performs real physical I/O through the injector).
std::unique_ptr<RTree<2>> OpenFaulty(
    const std::string& path,
    const std::optional<FaultInjectionOptions>& faults,
    uint32_t max_attempts = 4) {
  RTreeOptions options;
  options.page_size = 512;
  options.file_path = path;
  options.buffer_pages = 8;
  options.fault_injection = faults;
  options.retry = FastRetry();
  options.retry.max_attempts = max_attempts;
  return RTree<2>::Open(options);
}

std::vector<JoinResult<2>> DrainJoin(DistanceJoin<2>* join) {
  std::vector<JoinResult<2>> out;
  JoinResult<2> pair;
  while (join->Next(&pair)) out.push_back(pair);
  return out;
}

void ExpectSameResults(const std::vector<JoinResult<2>>& a,
                       const std::vector<JoinResult<2>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id1, b[i].id1) << i;
    EXPECT_EQ(a[i].id2, b[i].id2) << i;
    EXPECT_DOUBLE_EQ(a[i].distance, b[i].distance) << i;
  }
}

class FaultyJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test file names: ctest runs each test in its own process, in
    // parallel, and a shared path would let one test's SetUp rewrite the
    // file another is reading.
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    path_a_ = TempPath("faulty_join_" + name + "_a.pages");
    path_b_ = TempPath("faulty_join_" + name + "_b.pages");
    points_a_ = data::GenerateUniform(600, Rect<2>({0, 0}, {1000, 1000}), 11);
    points_b_ = data::GenerateUniform(600, Rect<2>({0, 0}, {1000, 1000}), 12);
    BuildTreeFile(path_a_, points_a_);
    BuildTreeFile(path_b_, points_b_);
  }

  // The reference result from fault-free reopened trees.
  std::vector<JoinResult<2>> CleanResult(const DistanceJoinOptions& options) {
    auto ta = OpenFaulty(path_a_, std::nullopt);
    auto tb = OpenFaulty(path_b_, std::nullopt);
    SDJ_CHECK(ta != nullptr && tb != nullptr);
    DistanceJoin<2> join(*ta, *tb, options);
    auto result = DrainJoin(&join);
    SDJ_CHECK(join.status() == JoinStatus::kExhausted);
    return result;
  }

  std::string path_a_;
  std::string path_b_;
  std::vector<Point<2>> points_a_;
  std::vector<Point<2>> points_b_;
};

TEST_F(FaultyJoinTest, TransientFaultsProduceIdenticalResults) {
  DistanceJoinOptions options;
  options.max_pairs = 400;
  const auto clean = CleanResult(options);

  FaultInjectionOptions faults;
  faults.seed = 3;
  faults.transient_read_rate = 0.1;
  faults.transient_write_rate = 0.1;
  auto ta = OpenFaulty(path_a_, faults);
  auto tb = OpenFaulty(path_b_, faults);
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  DistanceJoin<2> join(*ta, *tb, options);
  const auto faulty = DrainJoin(&join);

  EXPECT_EQ(join.status(), JoinStatus::kExhausted);
  ExpectSameResults(clean, faulty);
  // The schedule must actually have fired, and every fault been recovered.
  EXPECT_GT(join.stats().io_retries, 0u);
  EXPECT_GT(ta->injector()->counters().transient_read_faults +
                tb->injector()->counters().transient_read_faults,
            0u);
}

TEST_F(FaultyJoinTest, BitFlipsAreDetectedAndHealedByRereads) {
  DistanceJoinOptions options;
  options.max_pairs = 400;
  const auto clean = CleanResult(options);

  FaultInjectionOptions faults;
  faults.seed = 5;
  faults.bit_flip_read_rate = 0.2;
  // With flip rate 0.2, 12 attempts make p(every re-read also corrupt)
  // ~= 4e-9 per page — the run is deterministic given the seed anyway.
  auto ta = OpenFaulty(path_a_, faults, /*max_attempts=*/12);
  auto tb = OpenFaulty(path_b_, faults, /*max_attempts=*/12);
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  DistanceJoin<2> join(*ta, *tb, options);
  const auto faulty = DrainJoin(&join);

  // Silent corruption below the checksum layer is detected (counted) and
  // healed by re-reads — never silently wrong geometry.
  EXPECT_EQ(join.status(), JoinStatus::kExhausted);
  ExpectSameResults(clean, faulty);
  EXPECT_GT(join.stats().checksum_failures, 0u);
}

TEST_F(FaultyJoinTest, HardFaultYieldsIoErrorWithValidPrefix) {
  DistanceJoinOptions options;
  options.max_pairs = 400;
  const auto clean = CleanResult(options);

  FaultInjectionOptions faults;
  faults.hard_read_after = 60;  // survives Open, dies mid-join
  auto ta = OpenFaulty(path_a_, faults);
  auto tb = OpenFaulty(path_b_, std::nullopt);
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  DistanceJoin<2> join(*ta, *tb, options);
  const auto partial = DrainJoin(&join);

  EXPECT_EQ(join.status(), JoinStatus::kIoError);
  ASSERT_LT(partial.size(), clean.size());
  // The partial output is a correctly ordered prefix of the full result.
  ExpectSameResults(
      std::vector<JoinResult<2>>(clean.begin(),
                                 clean.begin() + partial.size()),
      partial);
  EXPECT_GT(ta->injector()->counters().hard_read_faults, 0u);
}

// RTree::Open reads only the meta page, so when every read after Open fails
// the first failing read is the root page an engine seeds from. Seeding
// goes through TryPin like every other node read: each engine must stop
// with kIoError instead of aborting the process.
TEST_F(FaultyJoinTest, UnreadableRootYieldsIoErrorNotAbort) {
  uint64_t open_reads = 0;
  {
    auto probe = OpenFaulty(path_a_, FaultInjectionOptions{});
    ASSERT_NE(probe, nullptr);
    open_reads = probe->injector()->counters().reads;
  }
  FaultInjectionOptions faults;
  faults.hard_read_after = open_reads;
  const auto expect_io_error = [](auto* engine, const char* what) {
    SCOPED_TRACE(what);
    typename std::remove_pointer_t<decltype(engine)>::Result r;
    EXPECT_FALSE(engine->Next(&r));
    EXPECT_EQ(engine->status(), JoinStatus::kIoError);
  };
  {
    auto ta = OpenFaulty(path_a_, faults);
    auto tb = OpenFaulty(path_b_, faults);
    ASSERT_NE(ta, nullptr);
    ASSERT_NE(tb, nullptr);
    DistanceJoin<2> join(*ta, *tb, DistanceJoinOptions{});
    expect_io_error(&join, "DistanceJoin");
  }
  {
    auto ta = OpenFaulty(path_a_, faults);
    auto tb = OpenFaulty(path_b_, faults);
    ASSERT_NE(ta, nullptr);
    ASSERT_NE(tb, nullptr);
    WithinJoinOptions options;
    options.epsilon = 25.0;
    IncWithinJoin<2> join(*ta, *tb, options);
    expect_io_error(&join, "IncWithinJoin");
  }
  {
    auto ta = OpenFaulty(path_a_, faults);
    ASSERT_NE(ta, nullptr);
    IncNearestNeighbor<2> nn(*ta, Point<2>{413.0, 287.0});
    expect_io_error(&nn, "IncNearestNeighbor");
  }
  {
    auto ta = OpenFaulty(path_a_, faults);
    auto tb = OpenFaulty(path_b_, faults);
    ASSERT_NE(ta, nullptr);
    ASSERT_NE(tb, nullptr);
    DistanceJoinOptions options;
    options.shards = 4;
    ShardedDistanceJoin<2> join(*ta, *tb, options);
    expect_io_error(&join, "ShardedDistanceJoin");
  }
  {
    auto ta = OpenFaulty(path_a_, faults);
    auto tb = OpenFaulty(path_b_, faults);
    ASSERT_NE(ta, nullptr);
    ASSERT_NE(tb, nullptr);
    OrderedIntersectionJoin<2> join(*ta, *tb, Point<2>{413.0, 287.0});
    expect_io_error(&join, "OrderedIntersectionJoin");
  }
}

TEST_F(FaultyJoinTest, SemiJoinReportsIoErrorToo) {
  FaultInjectionOptions faults;
  faults.hard_read_after = 60;
  auto ta = OpenFaulty(path_a_, faults);
  auto tb = OpenFaulty(path_b_, std::nullopt);
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  SemiJoinOptions options;
  DistanceSemiJoin<2> semi(*ta, *tb, options);
  JoinResult<2> pair;
  size_t produced = 0;
  while (semi.Next(&pair)) ++produced;
  EXPECT_EQ(semi.status(), JoinStatus::kIoError);
  EXPECT_LT(produced, points_a_.size());
}

// --- single-tree traversals over faulty storage ------------------------------

// The NN engines ride the same best-first core as the joins, so an
// unreadable node page must surface as kIoError after a valid ordered
// prefix — never an abort (DESIGN.md §9).
template <typename Engine>
std::vector<typename Engine::Result> DrainNeighbors(Engine* nn) {
  std::vector<typename Engine::Result> out;
  typename Engine::Result hit;
  while (nn->Next(&hit)) out.push_back(hit);
  return out;
}

TEST_F(FaultyJoinTest, NearestNeighborYieldsIoErrorWithValidPrefix) {
  const Point<2> query{413.0, 287.0};
  auto clean_tree = OpenFaulty(path_a_, std::nullopt);
  ASSERT_NE(clean_tree, nullptr);
  IncNearestNeighbor<2> clean(*clean_tree, query);
  const auto reference = DrainNeighbors(&clean);
  ASSERT_EQ(clean.status(), JoinStatus::kExhausted);
  ASSERT_EQ(reference.size(), points_a_.size());

  FaultInjectionOptions faults;
  faults.hard_read_after = 30;  // survives Open, dies mid-traversal
  auto tree = OpenFaulty(path_a_, faults);
  ASSERT_NE(tree, nullptr);
  IncNearestNeighbor<2> nn(*tree, query);
  const auto partial = DrainNeighbors(&nn);

  EXPECT_EQ(nn.status(), JoinStatus::kIoError);
  ASSERT_LT(partial.size(), reference.size());
  for (size_t i = 0; i < partial.size(); ++i) {
    EXPECT_EQ(partial[i].id, reference[i].id) << i;
    EXPECT_DOUBLE_EQ(partial[i].distance, reference[i].distance) << i;
  }
  EXPECT_GT(tree->injector()->counters().hard_read_faults, 0u);
}

TEST_F(FaultyJoinTest, FarthestNeighborYieldsIoErrorWithValidPrefix) {
  const Point<2> query{413.0, 287.0};
  auto clean_tree = OpenFaulty(path_a_, std::nullopt);
  ASSERT_NE(clean_tree, nullptr);
  IncFarthestNeighbor<2> clean(*clean_tree, query);
  const auto reference = DrainNeighbors(&clean);
  ASSERT_EQ(clean.status(), JoinStatus::kExhausted);
  ASSERT_EQ(reference.size(), points_a_.size());

  FaultInjectionOptions faults;
  faults.hard_read_after = 30;
  auto tree = OpenFaulty(path_a_, faults);
  ASSERT_NE(tree, nullptr);
  IncFarthestNeighbor<2> nn(*tree, query);
  const auto partial = DrainNeighbors(&nn);

  EXPECT_EQ(nn.status(), JoinStatus::kIoError);
  ASSERT_LT(partial.size(), reference.size());
  for (size_t i = 0; i < partial.size(); ++i) {
    EXPECT_EQ(partial[i].id, reference[i].id) << i;
    EXPECT_DOUBLE_EQ(partial[i].distance, reference[i].distance) << i;
  }
  EXPECT_GT(tree->injector()->counters().hard_read_faults, 0u);
}

TEST_F(FaultyJoinTest, WithinJoinYieldsIoErrorWithValidPrefix) {
  WithinJoinOptions options;
  options.epsilon = 30.0;
  auto ca = OpenFaulty(path_a_, std::nullopt);
  auto cb = OpenFaulty(path_b_, std::nullopt);
  ASSERT_NE(ca, nullptr);
  ASSERT_NE(cb, nullptr);
  IncWithinJoin<2> clean(*ca, *cb, options);
  std::vector<JoinResult<2>> reference;
  JoinResult<2> pair;
  while (clean.Next(&pair)) reference.push_back(pair);
  ASSERT_EQ(clean.status(), JoinStatus::kExhausted);
  ASSERT_GT(reference.size(), 0u);

  FaultInjectionOptions faults;
  faults.hard_read_after = 60;
  auto ta = OpenFaulty(path_a_, faults);
  auto tb = OpenFaulty(path_b_, std::nullopt);
  ASSERT_NE(ta, nullptr);
  ASSERT_NE(tb, nullptr);
  IncWithinJoin<2> join(*ta, *tb, options);
  std::vector<JoinResult<2>> partial;
  while (join.Next(&pair)) partial.push_back(pair);

  EXPECT_EQ(join.status(), JoinStatus::kIoError);
  ASSERT_LT(partial.size(), reference.size());
  ExpectSameResults(
      std::vector<JoinResult<2>>(reference.begin(),
                                 reference.begin() + partial.size()),
      partial);
  EXPECT_GT(ta->injector()->counters().hard_read_faults, 0u);
}

TEST_F(FaultyJoinTest, KNearestStatusOverloadPropagatesErrors) {
  const Point<2> query{413.0, 287.0};
  IncNeighborOptions options;

  // Success path: k neighbors found on healthy storage.
  auto clean_tree = OpenFaulty(path_a_, std::nullopt);
  ASSERT_NE(clean_tree, nullptr);
  std::vector<IncNearestNeighbor<2>::Result> hits;
  EXPECT_EQ(KNearest<2>(*clean_tree, query, 5, options, &hits),
            JoinStatus::kOk);
  EXPECT_EQ(hits.size(), 5u);

  // Dead disk: a valid prefix plus kIoError, not an abort.
  FaultInjectionOptions faults;
  faults.hard_read_after = 30;
  auto tree = OpenFaulty(path_a_, faults);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(KNearest<2>(*tree, query, points_a_.size(), options, &hits),
            JoinStatus::kIoError);
  EXPECT_LT(hits.size(), points_a_.size());
  EXPECT_GT(tree->injector()->counters().hard_read_faults, 0u);

  // Pre-fired stop token: suspended before the first neighbor.
  util::StopSource source;
  source.RequestStop();
  IncNeighborOptions stoppable;
  stoppable.stop_token = source.token();
  EXPECT_EQ(KNearest<2>(*clean_tree, query, 5, stoppable, &hits),
            JoinStatus::kSuspended);
  EXPECT_TRUE(hits.empty());
}

// --- hybrid-queue degradation -----------------------------------------------

TEST(HybridQueueFaults, DiskWriteFailureFallsBackToMemory) {
  HybridQueueOptions options;
  options.tier_width = 1.0;
  options.page_size = 256;
  options.buffer_pages = 4;
  FaultInjectionOptions faults;
  faults.hard_write_after = 0;  // the disk tier never accepts a page
  options.fault_injection = faults;
  options.retry = FastRetry();

  HybridPairQueue<2> queue(PairEntryCompare<2>{}, options);
  const int n = 3000;  // far beyond what 4 buffer pages hold
  for (int i = 0; i < n; ++i) {
    PairEntry<2> e;
    e.distance = e.key = (i * 37) % n * 1.0;  // spread across many buckets
    e.item1.ref = i;
    e.seq = i;
    queue.Push(e);
  }
  EXPECT_GT(queue.spill_fallbacks(), 0u);
  EXPECT_FALSE(queue.io_error());  // degradation, not data loss

  // Every entry still comes out, in non-decreasing distance order.
  double last = -1.0;
  size_t popped = 0;
  while (!queue.Empty()) {
    const PairEntry<2> e = queue.Pop();
    EXPECT_GE(e.distance, last);
    last = e.distance;
    ++popped;
  }
  EXPECT_EQ(popped, static_cast<size_t>(n));
}

TEST(HybridQueueFaults, DiskReadFailureSetsIoError) {
  HybridQueueOptions options;
  options.tier_width = 1.0;
  options.page_size = 256;
  options.buffer_pages = 4;
  FaultInjectionOptions faults;
  faults.hard_read_after = 40;  // lets spills happen, then kills reads
  options.fault_injection = faults;
  options.retry = FastRetry();

  HybridPairQueue<2> queue(PairEntryCompare<2>{}, options);
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    PairEntry<2> e;
    e.distance = e.key = (i * 37) % n * 1.0;
    e.item1.ref = i;
    e.seq = i;
    queue.Push(e);
  }
  size_t popped = 0;
  double last = -1.0;
  while (!queue.Empty()) {
    const PairEntry<2> e = queue.Pop();
    EXPECT_GE(e.distance, last);
    last = e.distance;
    ++popped;
  }
  // Entries on unreadable pages are lost (counted out of Size()), the rest
  // still drain in order, and the loss is flagged for the join to surface.
  EXPECT_TRUE(queue.io_error());
  EXPECT_LT(popped, static_cast<size_t>(n));
  EXPECT_GT(popped, 0u);
}

TEST(HybridQueueFaults, JoinDegradesGracefullyWhenSpillsFail) {
  const auto a = data::GenerateUniform(400, Rect<2>({0, 0}, {500, 500}), 21);
  const auto b = data::GenerateUniform(400, Rect<2>({0, 0}, {500, 500}), 22);
  RTree<2> ta, tb;
  for (size_t i = 0; i < a.size(); ++i) ta.Insert(Rect<2>::FromPoint(a[i]), i);
  for (size_t i = 0; i < b.size(); ++i) tb.Insert(Rect<2>::FromPoint(b[i]), i);

  DistanceJoinOptions clean_options;
  clean_options.max_pairs = 300;
  clean_options.use_hybrid_queue = true;
  clean_options.hybrid.tier_width = 5.0;
  clean_options.hybrid.page_size = 256;
  clean_options.hybrid.buffer_pages = 4;
  DistanceJoin<2> clean_join(ta, tb, clean_options);
  const auto clean = DrainJoin(&clean_join);
  ASSERT_EQ(clean_join.status(), JoinStatus::kExhausted);

  DistanceJoinOptions options = clean_options;
  FaultInjectionOptions faults;
  faults.hard_write_after = 0;  // disk tier rejects everything
  options.hybrid.fault_injection = faults;
  options.hybrid.retry = FastRetry();
  DistanceJoin<2> join(ta, tb, options);
  const auto degraded = DrainJoin(&join);

  // Losing the disk tier costs memory, not correctness.
  EXPECT_EQ(join.status(), JoinStatus::kExhausted);
  ExpectSameResults(clean, degraded);
  EXPECT_GT(join.stats().spill_fallbacks, 0u);
}

}  // namespace
}  // namespace sdj
