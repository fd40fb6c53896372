// Snapshot wire-format pins for the SaveState framings (DESIGN.md §11):
// DistanceJoin, NeighborEngine (through IncNearestNeighbor) and
// ShardedEngine (through ShardedDistanceJoin), plus the option adapters
// DistanceSemiJoin and IncWithinJoin, whose bytes are DistanceJoin's for
// their configurations.
//
// Each framing saves a fixed small input after a fixed prefix with one
// classify thread; the blob's size and FNV-1a-64 are pinned below, so any
// change to a fingerprint, the stats section or an engine's body bytes fails
// here. A second table-driven test checks that every framing refuses a
// snapshot whose fingerprint differs in one field, and junk input, without
// disturbing the restoring engine. A third test holds the packed queue-entry
// record (snapshot::WriteEntry) to a field-by-field reference encoder.
#include <cmath>
#include <cstdint>
#include <cstring>
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
// explicitly, so the pinned bytes hold under SDJ_SHARDS and SDJ_SCREEN
// alike.
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
  EXPECT_EQ(test::Fnv1a64(bytes.data(), bytes.size()), f.pinned_fnv);
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
typename Engine::Result FirstResult(Engine* engine) {
  typename Engine::Result r;
  EXPECT_TRUE(engine->Next(&r));
  return r;
}

// A refused restore must leave the engine exactly as constructed: still
// kOk and producing the same first result as a fresh engine.
template <typename Engine>
void ExpectRefusedUntouched(
    const std::function<std::unique_ptr<Engine>()>& make,
    const std::string& input, const char* what) {
  SCOPED_TRACE(what);
  auto engine = make();
  snapshot::BlobReader in(input);
  EXPECT_FALSE(engine->RestoreState(&in));
  EXPECT_EQ(engine->status(), JoinStatus::kOk);
  auto fresh = make();
  ExpectSameResult(FirstResult(engine.get()), FirstResult(fresh.get()));
}

template <typename Engine>
void CheckRefusals(const Framing<Engine>& f) {
  SCOPED_TRACE(f.name);
  auto saved = f.make();
  const std::string bytes = SaveAfterPrefix(saved.get(), f.prefix);
  ASSERT_FALSE(bytes.empty());

  ExpectRefusedUntouched(f.make_changed, bytes,
                         "one fingerprint field changed");
  ExpectRefusedUntouched(f.make, std::string(), "empty input");
  ExpectRefusedUntouched(f.make,
                         std::string("\x01\x02\x03\x04\x05\x06\x07", 7),
                         "seven junk bytes");
  std::string flipped = bytes;
  flipped[0] = static_cast<char>(flipped[0] ^ 0x5A);
  ExpectRefusedUntouched(f.make, flipped, "corrupted magic");
  std::string junk(256, '\0');
  for (size_t i = 0; i < junk.size(); ++i) {
    junk[i] = static_cast<char>((i * 131 + 17) & 0xFF);
  }
  ExpectRefusedUntouched(f.make, junk, "256 junk bytes");
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
          // DistanceJoin's "SJJC" framing for {Inside2, GlobalAll}.
          23297, 13657682469605173377ULL};
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
          // DistanceJoin's "SJJC" framing for [0, 60] (see
          // WithinBytesAreTheRestrictedDistanceJoins).
          7218, 9210598835286181393ULL};
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

// IncWithinJoin is DistanceJoin{Even, [0, eps]}: the within framing's
// bytes are exactly that join's, fingerprint included.
TEST(SnapshotWireFormat, WithinBytesAreTheRestrictedDistanceJoins) {
  const Framing<IncWithinJoin<2>> within = WithinFraming();
  const std::string within_bytes =
      SaveAfterPrefix(within.make().get(), within.prefix);
  const Trees trees;  // fresh pools, like the framing's own
  DistanceJoinOptions options;
  options.num_threads = 1;
  options.shards = 1;
  options.screen_codes = true;
  options.node_policy = NodeProcessingPolicy::kEven;
  options.max_distance = 60.0;
  DistanceJoin<2> join(trees.a, trees.b, options);
  EXPECT_EQ(SaveAfterPrefix(&join, within.prefix), within_bytes);
}

// Snapshots of the retired within policy (magic "SJWE", version 2) open
// with a fingerprint no engine writes any more, so they are refused.
TEST(SnapshotWireFormat, RetiredWithinSnapshotIsRefusedUntouched) {
  const Framing<IncWithinJoin<2>> within = WithinFraming();
  const std::string current =
      SaveAfterPrefix(within.make().get(), within.prefix);
  snapshot::Blob old;
  old.PutU32(0x534A5745);  // "SJWE"
  old.PutU32(2);
  old.PutU32(2);  // Dim
  old.PutU8(static_cast<uint8_t>(Metric::kEuclidean));
  old.PutU8(static_cast<uint8_t>(TieBreakPolicy::kDepthFirst));
  old.PutDouble(60.0);
  old.PutBool(true);   // screen_codes
  old.PutBool(false);  // use_hybrid_queue
  old.PutDouble(HybridQueueOptions{}.tier_width);
  old.PutU64(90);
  old.PutU64(70);
  std::string bytes(old.data(), old.size());
  bytes += current;  // a plausible body behind the retired fingerprint
  ExpectRefusedUntouched(within.make, bytes, "SJWE version 2");
}

// Snapshots of the retired semi-join wrapper open with its own framing —
// filter u8, bound u8, the reported and Outside-filtered counts and an empty
// Outside bit string — before the engine's "SJJC" section. No engine reads
// that framing any more, so they are refused.
TEST(SnapshotWireFormat, RetiredSemiWrapperSnapshotIsRefusedUntouched) {
  const Framing<DistanceSemiJoin<2>> semi = SemiFraming();
  const std::string current = SaveAfterPrefix(semi.make().get(), semi.prefix);
  snapshot::Blob old;
  old.PutU8(static_cast<uint8_t>(SemiJoinFilter::kInside2));
  old.PutU8(static_cast<uint8_t>(SemiJoinBound::kGlobalAll));
  old.PutU64(semi.prefix);  // reported
  old.PutU64(0);            // Outside-filtered
  old.PutU64(0);            // Outside bit string: size
  old.PutU64(0);            //   and word count
  std::string bytes(old.data(), old.size());
  bytes += current;  // the engine section the wrapper used to frame
  ExpectRefusedUntouched(semi.make, bytes, "semi wrapper framing");
}

TEST(SnapshotWireFormat, ShardedFixtureActuallyShards) {
  const Trees trees;
  ShardedDistanceJoin<2> sharded(trees.a, trees.b, ShardedOptions(2));
  EXPECT_EQ(sharded.effective_shards(), 2);
  ShardedDistanceJoin<2> passthrough(trees.a, trees.b, ShardedOptions(1));
  EXPECT_EQ(passthrough.effective_shards(), 1);
}

// The queue-entry wire format written one field at a time, as the encoder
// did before entries were packed into one fixed-width record.
template <int Dim>
void ReferenceWriteItem(snapshot::Blob* out, const JoinItem<Dim>& item) {
  out->PutBytes(item.rect.lo.coords.data(), 8 * Dim);
  out->PutBytes(item.rect.hi.coords.data(), 8 * Dim);
  out->PutU64(item.ref);
  out->PutI16(item.level);
  out->PutU8(static_cast<uint8_t>(item.kind));
}

template <int Dim>
std::string ReferenceWriteEntry(const PairEntry<Dim>& e) {
  snapshot::Blob out;
  out.PutDouble(e.key);
  out.PutDouble(e.distance);
  ReferenceWriteItem(&out, e.item1);
  ReferenceWriteItem(&out, e.item2);
  out.PutU64(e.seq);
  out.PutU8(e.category);
  out.PutI16(e.depth);
  return std::string(out.data(), out.size());
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

template <int Dim>
void ExpectSameItem(const JoinItem<Dim>& a, const JoinItem<Dim>& b) {
  for (int d = 0; d < Dim; ++d) {
    EXPECT_TRUE(SameBits(a.rect.lo.coords[d], b.rect.lo.coords[d])) << d;
    EXPECT_TRUE(SameBits(a.rect.hi.coords[d], b.rect.hi.coords[d])) << d;
  }
  EXPECT_EQ(a.ref, b.ref);
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.kind, b.kind);
}

// Entries covering -0.0, every item kind, a negative depth, and the
// extremes of each integer field.
template <int Dim>
std::vector<PairEntry<Dim>> WireEntries() {
  std::vector<PairEntry<Dim>> entries;
  PairEntry<Dim> e;
  for (int d = 0; d < Dim; ++d) {
    e.item1.rect.lo.coords[d] = -0.0;
    e.item1.rect.hi.coords[d] = 10.25 * (d + 1);
    e.item2.rect.lo.coords[d] = -3.5 - d;
    e.item2.rect.hi.coords[d] = -3.5 - d;
  }
  e.key = -0.0;
  e.distance = 0.0;
  e.item1.ref = 11;
  e.item1.level = 2;
  e.item1.kind = JoinItemKind::kNode;
  e.item2.ref = 7;
  e.item2.level = -1;
  e.item2.kind = JoinItemKind::kObject;
  e.seq = 99;
  e.category = 2;
  e.depth = 2;
  entries.push_back(e);

  e.key = -123.75;  // reverse mode: negated upper bound
  e.distance = 1e-300;
  e.item1.ref = ~uint64_t{0};
  e.item1.level = -1;
  e.item1.kind = JoinItemKind::kObjectRect;
  e.seq = ~uint64_t{0} - 1;
  e.category = 1;
  e.depth = -1;
  entries.push_back(e);

  e.key = std::nextafter(0.0, 1.0);
  e.distance = -0.0;
  e.item1.kind = JoinItemKind::kObject;
  e.item2.ref = 0;
  e.item2.level = INT16_MAX;
  e.item2.kind = JoinItemKind::kNode;
  e.category = 0;
  e.depth = INT16_MIN;
  entries.push_back(e);
  return entries;
}

template <int Dim>
void CheckPackedEntries() {
  SCOPED_TRACE(Dim);
  snapshot::Blob packed;
  std::string reference;
  for (const PairEntry<Dim>& e : WireEntries<Dim>()) {
    snapshot::Blob one;
    snapshot::WriteEntry(&one, e);
    EXPECT_EQ(std::string(one.data(), one.size()), ReferenceWriteEntry(e));
    EXPECT_EQ(one.size(), snapshot::EntryWireSize<Dim>());
    snapshot::WriteEntry(&packed, e);
    reference += ReferenceWriteEntry(e);
  }
  ASSERT_EQ(std::string(packed.data(), packed.size()), reference);

  snapshot::BlobReader in(packed.data(), packed.size());
  for (const PairEntry<Dim>& e : WireEntries<Dim>()) {
    PairEntry<Dim> back;
    ASSERT_TRUE(snapshot::ReadEntry(&in, &back));
    EXPECT_TRUE(SameBits(back.key, e.key));
    EXPECT_TRUE(SameBits(back.distance, e.distance));
    ExpectSameItem(back.item1, e.item1);
    ExpectSameItem(back.item2, e.item2);
    EXPECT_EQ(back.seq, e.seq);
    EXPECT_EQ(back.category, e.category);
    EXPECT_EQ(back.depth, e.depth);
  }
  EXPECT_EQ(in.remaining(), 0u);
  PairEntry<Dim> past_end;
  EXPECT_FALSE(snapshot::ReadEntry(&in, &past_end));

  // A kind byte naming no JoinItemKind is refused, in either item.
  for (const size_t item : {size_t{0}, size_t{1}}) {
    std::string bad = ReferenceWriteEntry(WireEntries<Dim>()[0]);
    const size_t kind_offset =
        16 + (item + 1) * snapshot::ItemWireSize<Dim>() - 1;
    bad[kind_offset] = 3;
    snapshot::BlobReader bad_in(bad);
    PairEntry<Dim> refused;
    EXPECT_FALSE(snapshot::ReadEntry(&bad_in, &refused)) << item;
  }
}

TEST(SnapshotWireFormat, PackedEntryMatchesFieldByFieldEncoder) {
  CheckPackedEntries<2>();
  CheckPackedEntries<3>();
}

}  // namespace
}  // namespace sdj
