// Snapshot wire-format pins for the five SaveState framings (DESIGN.md §11):
// DistanceJoin, DistanceSemiJoin, IncWithinJoin, NeighborEngine (through
// IncNearestNeighbor) and ShardedEngine (through ShardedDistanceJoin).
//
// Each framing saves a fixed small input after a fixed prefix with one
// classify thread; the blob's size and FNV-1a-64 are pinned below, so any
// change to a fingerprint, the stats section or an engine's body bytes fails
// here. A second table-driven test checks that every framing refuses a
// snapshot whose fingerprint differs in one field, and junk input, without
// disturbing the restoring engine.
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/distance_join.h"
#include "core/semi_join.h"
#include "core/shard_merge.h"
#include "core/snapshot.h"
#include "core/within_join.h"
#include "data/generators.h"
#include "join_test_util.h"
#include "nn/inc_nearest.h"
#include "rtree/rtree.h"
#include "storage/checksum.h"

namespace sdj {
namespace {

// Fresh trees per framing, so pool-derived counters in the pinned bytes
// never depend on which test warmed a shared buffer pool first.
struct Trees {
  RTree<2> a = test::BuildPointTree(
      data::GenerateUniform(90, Rect<2>({0.0, 0.0}, {1000.0, 1000.0}), 31));
  RTree<2> b = test::BuildPointTree(
      data::GenerateUniform(70, Rect<2>({0.0, 0.0}, {1000.0, 1000.0}), 47));
};

// Every knob that an environment variable could otherwise default is set
// explicitly, so the pinned bytes hold under SDJ_THREADS, SDJ_SHARDS and
// SDJ_SCREEN alike.
DistanceJoinOptions JoinOptions() {
  DistanceJoinOptions options;
  options.num_threads = 1;
  options.shards = 1;
  options.screen_codes = true;
  options.max_pairs = 200;
  options.estimate_max_distance = true;
  return options;
}

SemiJoinOptions SemiOptions(SemiJoinBound bound) {
  SemiJoinOptions options;
  options.join.num_threads = 1;
  options.join.shards = 1;
  options.join.screen_codes = true;
  options.filter = SemiJoinFilter::kInside2;
  options.bound = bound;
  return options;
}

WithinJoinOptions WithinOptions(double epsilon) {
  WithinJoinOptions options;
  options.epsilon = epsilon;
  options.num_threads = 1;
  options.shards = 1;
  options.screen_codes = true;
  return options;
}

IncNeighborOptions NeighborOptions() {
  IncNeighborOptions options;
  options.shards = 1;
  options.screen_codes = true;
  options.max_distance = 400.0;
  return options;
}

DistanceJoinOptions ShardedOptions(int shards) {
  DistanceJoinOptions options;
  options.num_threads = 1;
  options.shards = shards;
  options.screen_codes = true;
  return options;
}

// One framing under test. `make` builds the pinned configuration;
// `make_changed` differs from it in exactly one field of this framing's own
// fingerprint. The sharded framing saves before its first Next(): once the
// producer threads run, how many results sit in each shard's lookahead
// buffer depends on scheduling, so only the pre-start snapshot is
// byte-deterministic.
template <typename Engine>
struct Framing {
  const char* name;
  uint64_t prefix;
  std::function<std::unique_ptr<Engine>()> make;
  std::function<std::unique_ptr<Engine>()> make_changed;
  // SaveState size and FNV-1a-64, recorded before the snapshot framings
  // were consolidated; they must never change without a version bump.
  size_t pinned_size;
  uint64_t pinned_fnv;
};

template <typename Engine>
std::string SaveAfterPrefix(Engine* engine, uint64_t prefix) {
  typename Engine::Result r;
  for (uint64_t i = 0; i < prefix; ++i) {
    EXPECT_TRUE(engine->Next(&r)) << "prefix result " << i;
  }
  snapshot::Blob blob;
  EXPECT_TRUE(engine->SaveState(&blob));
  return std::string(blob.data(), blob.size());
}

template <typename Result>
void ExpectSameResult(const Result& a, const Result& b) {
  if constexpr (requires { a.id1; }) {
    EXPECT_EQ(a.id1, b.id1);
    EXPECT_EQ(a.id2, b.id2);
  } else {
    EXPECT_EQ(a.id, b.id);
  }
  EXPECT_EQ(a.distance, b.distance);
}

template <typename Engine>
void CheckWireBytes(const Framing<Engine>& f) {
  SCOPED_TRACE(f.name);
  auto engine = f.make();
  const std::string bytes = SaveAfterPrefix(engine.get(), f.prefix);
  EXPECT_EQ(bytes.size(), f.pinned_size);
  EXPECT_EQ(storage::Fnv1a64(bytes.data(), bytes.size()), f.pinned_fnv);
  // The pinned bytes restore into a fresh engine. Queue entries are saved
  // in heap order, not pop order, so only the re-saved size must match.
  auto restored = f.make();
  snapshot::BlobReader in(bytes);
  ASSERT_TRUE(restored->RestoreState(&in));
  snapshot::Blob again;
  ASSERT_TRUE(restored->SaveState(&again));
  EXPECT_EQ(again.size(), bytes.size());
}

template <typename Engine>
void CheckRefusals(const Framing<Engine>& f) {
  SCOPED_TRACE(f.name);
  auto saved = f.make();
  const std::string bytes = SaveAfterPrefix(saved.get(), f.prefix);
  ASSERT_FALSE(bytes.empty());

  const auto first_result = [](Engine* e) {
    typename Engine::Result r;
    EXPECT_TRUE(e->Next(&r));
    return r;
  };
  // A refused restore must leave the engine exactly as constructed: still
  // kOk and producing the same first result as a fresh engine.
  const auto expect_untouched = [&](const std::function<
                                        std::unique_ptr<Engine>()>& make,
                                    const std::string& input,
                                    const char* what) {
    SCOPED_TRACE(what);
    auto engine = make();
    snapshot::BlobReader in(input);
    EXPECT_FALSE(engine->RestoreState(&in));
    EXPECT_EQ(engine->status(), JoinStatus::kOk);
    auto fresh = make();
    ExpectSameResult(first_result(engine.get()), first_result(fresh.get()));
  };

  expect_untouched(f.make_changed, bytes, "one fingerprint field changed");
  expect_untouched(f.make, std::string(), "empty input");
  expect_untouched(f.make, std::string("\x01\x02\x03\x04\x05\x06\x07", 7),
                   "seven junk bytes");
  std::string flipped = bytes;
  flipped[0] = static_cast<char>(flipped[0] ^ 0x5A);
  expect_untouched(f.make, flipped, "corrupted magic");
  std::string junk(256, '\0');
  for (size_t i = 0; i < junk.size(); ++i) {
    junk[i] = static_cast<char>((i * 131 + 17) & 0xFF);
  }
  expect_untouched(f.make, junk, "256 junk bytes");
}

Framing<DistanceJoin<2>> JoinFraming() {
  const auto trees = std::make_shared<const Trees>();
  return {"join", 30,
          [trees] {
            return std::make_unique<DistanceJoin<2>>(trees->a, trees->b,
                                                     JoinOptions());
          },
          [trees] {
            DistanceJoinOptions options = JoinOptions();
            options.metric = Metric::kManhattan;
            return std::make_unique<DistanceJoin<2>>(trees->a, trees->b,
                                                     options);
          },
          69086, 10663253817501692008ULL};
}

Framing<DistanceSemiJoin<2>> SemiFraming() {
  const auto trees = std::make_shared<const Trees>();
  return {"semi", 25,
          [trees] {
            return std::make_unique<DistanceSemiJoin<2>>(
                trees->a, trees->b, SemiOptions(SemiJoinBound::kGlobalAll));
          },
          [trees] {
            return std::make_unique<DistanceSemiJoin<2>>(
                trees->a, trees->b, SemiOptions(SemiJoinBound::kGlobalNodes));
          },
          23331, 2132117087317995764ULL};
}

Framing<IncWithinJoin<2>> WithinFraming() {
  const auto trees = std::make_shared<const Trees>();
  return {"within", 20,
          [trees] {
            return std::make_unique<IncWithinJoin<2>>(trees->a, trees->b,
                                                      WithinOptions(60.0));
          },
          [trees] {
            return std::make_unique<IncWithinJoin<2>>(trees->a, trees->b,
                                                      WithinOptions(61.0));
          },
          7142, 5817129699521834768ULL};
}

Framing<IncNearestNeighbor<2>> NeighborFraming() {
  const auto trees = std::make_shared<const Trees>();
  return {"neighbor", 15,
          [trees] {
            return std::make_unique<IncNearestNeighbor<2>>(
                trees->a, Point<2>{412.5, 288.0}, NeighborOptions());
          },
          [trees] {
            return std::make_unique<IncNearestNeighbor<2>>(
                trees->a, Point<2>{412.5, 289.0}, NeighborOptions());
          },
          2858, 10508759299767367367ULL};
}

Framing<ShardedDistanceJoin<2>> ShardedFraming() {
  const auto trees = std::make_shared<const Trees>();
  return {"sharded", 0,
          [trees] {
            return std::make_unique<ShardedDistanceJoin<2>>(
                trees->a, trees->b, ShardedOptions(2));
          },
          [trees] {
            // Passthrough mode: the wrapper's mode flag and shard count
            // both differ from the saved sharded run.
            return std::make_unique<ShardedDistanceJoin<2>>(
                trees->a, trees->b, ShardedOptions(1));
          },
          1779, 9024323340977269207ULL};
}

TEST(SnapshotWireFormat, SaveStateBytesArePinned) {
  CheckWireBytes(JoinFraming());
  CheckWireBytes(SemiFraming());
  CheckWireBytes(WithinFraming());
  CheckWireBytes(NeighborFraming());
  CheckWireBytes(ShardedFraming());
}

TEST(SnapshotWireFormat, FingerprintMismatchAndJunkAreRefusedUntouched) {
  CheckRefusals(JoinFraming());
  CheckRefusals(SemiFraming());
  CheckRefusals(WithinFraming());
  CheckRefusals(NeighborFraming());
  CheckRefusals(ShardedFraming());
}

TEST(SnapshotWireFormat, ShardedFixtureActuallyShards) {
  const Trees trees;
  ShardedDistanceJoin<2> sharded(trees.a, trees.b, ShardedOptions(2));
  EXPECT_EQ(sharded.effective_shards(), 2);
  ShardedDistanceJoin<2> passthrough(trees.a, trees.b, ShardedOptions(1));
  EXPECT_EQ(passthrough.effective_shards(), 1);
}

}  // namespace
}  // namespace sdj
