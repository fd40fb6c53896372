// Tests for the multi-session serving layer (DESIGN.md §14): admission
// control with explicit overload rejection, deadline time-slicing, memory-
// pressure checkpoint-evict-resume, pinned-resident degradation when
// checkpoints cannot commit, per-session kIoError isolation, and crash
// recovery through the epoch-committed session table — plus the central
// equivalence property: no matter how often a session is sliced, evicted,
// and rehydrated (with fault injection on), its pair stream and statistics
// are identical to an uninterrupted solo run.
#include <sys/stat.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <utility>
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
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtree/rtree.h"
#include "serve/erased_engine.h"
#include "serve/session_manager.h"
#include "storage/checksum.h"
#include "storage/fault_injection.h"
#include "util/stop_token.h"

namespace sdj {
namespace {

using serve::ServeStatus;
using serve::SessionState;
using test::BuildPointTree;
using SessionId = serve::SessionManager<2>::SessionId;
using EngineFactory = serve::SessionManager<2>::EngineFactory;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Creates a clean per-test state directory (recovery tests reuse paths, so
// stale files from earlier runs must not leak in).
std::string FreshStateDir(const std::string& name) {
  const std::string dir = TempPath(name);
  ::mkdir(dir.c_str(), 0755);
  std::remove((dir + "/sessions.tbl").c_str());
  for (int id = 1; id <= 16; ++id) {
    std::remove((dir + "/session_" + std::to_string(id) + ".snap").c_str());
  }
  return dir;
}

using Pair = std::tuple<uint64_t, uint64_t, double>;

Pair AsTuple(const JoinResult<2>& r) { return {r.id1, r.id2, r.distance}; }


std::vector<Point<2>> MakePoints(size_t n, uint64_t seed) {
  const Rect<2> extent({0.0, 0.0}, {1000.0, 1000.0});
  return data::GenerateUniform(n, extent, seed);
}

// Per-session context: trees built from the captured points, owned for the
// engine's lifetime (and rebuilt from scratch on every rehydration, exactly
// as a post-crash resume would).
struct TreePairContext {
  TreePairContext(const std::vector<Point<2>>& pa,
                  const std::vector<Point<2>>& pb)
      : a(BuildPointTree(pa)), b(BuildPointTree(pb)) {}
  RTree<2> a;
  RTree<2> b;
};

struct TreeContext {
  explicit TreeContext(const std::vector<Point<2>>& pts)
      : tree(BuildPointTree(pts)) {}
  RTree<2> tree;
};

EngineFactory JoinFactory(std::vector<Point<2>> a, std::vector<Point<2>> b,
                          DistanceJoinOptions options) {
  return [a = std::move(a), b = std::move(b),
          options](util::StopToken token)
             -> std::unique_ptr<serve::ErasedEngine<2>> {
    auto ctx = std::make_shared<TreePairContext>(a, b);
    DistanceJoinOptions o = options;
    o.stop_token = token;
    auto join = std::make_unique<DistanceJoin<2>>(ctx->a, ctx->b, o);
    return serve::Erase<2>(std::move(join), ctx);
  };
}

EngineFactory SemiFactory(std::vector<Point<2>> a, std::vector<Point<2>> b,
                          SemiJoinOptions options) {
  return [a = std::move(a), b = std::move(b),
          options](util::StopToken token)
             -> std::unique_ptr<serve::ErasedEngine<2>> {
    auto ctx = std::make_shared<TreePairContext>(a, b);
    SemiJoinOptions o = options;
    o.join.stop_token = token;
    auto semi = std::make_unique<DistanceSemiJoin<2>>(ctx->a, ctx->b, o);
    return serve::Erase<2>(std::move(semi), ctx);
  };
}

EngineFactory WithinFactory(std::vector<Point<2>> a, std::vector<Point<2>> b,
                            WithinJoinOptions options) {
  return [a = std::move(a), b = std::move(b),
          options](util::StopToken token)
             -> std::unique_ptr<serve::ErasedEngine<2>> {
    auto ctx = std::make_shared<TreePairContext>(a, b);
    WithinJoinOptions o = options;
    o.stop_token = token;
    auto join = std::make_unique<IncWithinJoin<2>>(ctx->a, ctx->b, o);
    return serve::Erase<2>(std::move(join), ctx);
  };
}

EngineFactory NearestFactory(std::vector<Point<2>> pts, Point<2> query,
                             IncNeighborOptions options) {
  return [pts = std::move(pts), query,
          options](util::StopToken token)
             -> std::unique_ptr<serve::ErasedEngine<2>> {
    auto ctx = std::make_shared<TreeContext>(pts);
    IncNeighborOptions o = options;
    o.stop_token = token;
    auto nn = std::make_unique<IncNearestNeighbor<2>>(ctx->tree, query, o);
    return serve::Erase<2>(std::move(nn), ctx);
  };
}

// Uninterrupted solo reference for any factory-built engine: the stream and
// final statistics every served session must reproduce exactly.
struct Reference {
  std::vector<Pair> stream;
  JoinStats stats;
};

Reference RunReference(const EngineFactory& factory) {
  Reference ref;
  auto engine = factory(util::StopToken());
  JoinResult<2> r;
  while (engine->Next(&r)) ref.stream.push_back(AsTuple(r));
  ref.stats = engine->stats();
  return ref;
}

// Drains one session to exhaustion (tolerating slice yields), appending to
// `stream`.
void DrainSession(serve::SessionManager<2>* manager, SessionId id,
                  std::vector<Pair>* stream) {
  JoinResult<2> r;
  for (;;) {
    const ServeStatus s = manager->Next(id, &r);
    if (s == ServeStatus::kOk) {
      stream->push_back(AsTuple(r));
    } else if (s == ServeStatus::kYield) {
      continue;
    } else {
      ASSERT_EQ(s, ServeStatus::kExhausted);
      return;
    }
  }
}

// --- admission control -------------------------------------------------------

TEST(SessionManager, AdmitsUpToCapAndRejectsOverload) {
  serve::ServeOptions options;
  options.max_sessions = 2;
  serve::SessionManager<2> manager(options);
  const auto a = MakePoints(40, 1);
  const auto b = MakePoints(40, 2);
  DistanceJoinOptions join_options;
  join_options.max_pairs = 20;

  const auto r1 = manager.Admit("s1", JoinFactory(a, b, join_options));
  const auto r2 = manager.Admit("s2", JoinFactory(a, b, join_options));
  ASSERT_EQ(r1.status, ServeStatus::kOk);
  ASSERT_EQ(r2.status, ServeStatus::kOk);
  EXPECT_NE(r1.id, r2.id);

  const auto r3 = manager.Admit("s3", JoinFactory(a, b, join_options));
  EXPECT_EQ(r3.status, ServeStatus::kRejectedOverload);
  EXPECT_EQ(manager.stats().rejected_overload, 1u);
  EXPECT_EQ(manager.ActiveSessions(), 2u);

  // Closing a session frees its admission slot.
  manager.Close(r1.id);
  EXPECT_EQ(manager.state(r1.id), SessionState::kClosed);
  JoinResult<2> r;
  EXPECT_EQ(manager.Next(r1.id, &r), ServeStatus::kNotFound);
  const auto r4 = manager.Admit("s4", JoinFactory(a, b, join_options));
  EXPECT_EQ(r4.status, ServeStatus::kOk);
}

TEST(SessionManager, RejectsWhenBudgetCannotFitNewcomer) {
  serve::ServeOptions options;
  options.memory_budget_entries = 0;  // nothing fits: even the seed pair
  serve::SessionManager<2> manager(options);
  const auto a = MakePoints(30, 3);
  const auto b = MakePoints(30, 4);
  const auto r = manager.Admit("s", JoinFactory(a, b, {}));
  EXPECT_EQ(r.status, ServeStatus::kRejectedOverload);
  EXPECT_EQ(manager.stats().rejected_overload, 1u);
  EXPECT_EQ(manager.ActiveSessions(), 0u);
}

// --- basic serving -----------------------------------------------------------

TEST(SessionManager, ServesSingleSessionToExhaustion) {
  const auto a = MakePoints(60, 5);
  const auto b = MakePoints(60, 6);
  DistanceJoinOptions join_options;
  join_options.max_pairs = 80;
  const EngineFactory factory = JoinFactory(a, b, join_options);
  const Reference ref = RunReference(factory);

  serve::SessionManager<2> manager(serve::ServeOptions{});
  const auto admit = manager.Admit("solo", factory);
  ASSERT_EQ(admit.status, ServeStatus::kOk);
  std::vector<Pair> stream;
  DrainSession(&manager, admit.id, &stream);
  EXPECT_EQ(stream, ref.stream);
  test::ExpectStatsEqual(manager.session_stats(admit.id), ref.stats);
  EXPECT_EQ(manager.state(admit.id), SessionState::kFinished);
  EXPECT_EQ(manager.stats().finished_sessions, 1u);
  // Terminal and unknown sessions answer with a status, never an abort.
  JoinResult<2> r;
  EXPECT_EQ(manager.Next(admit.id, &r), ServeStatus::kExhausted);
  EXPECT_EQ(manager.Next(999, &r), ServeStatus::kNotFound);
  const serve::SessionCounters counters = manager.counters(admit.id);
  EXPECT_EQ(counters.results, ref.stream.size());
  EXPECT_EQ(counters.yields, 0u);
}

// --- deadline time-slicing ---------------------------------------------------

TEST(SessionManager, ExpiredSliceYieldsAndSessionStaysLive) {
  serve::ServeOptions options;
  options.slice = std::chrono::microseconds(-1);  // deadline already past
  serve::SessionManager<2> manager(options);
  const auto a = MakePoints(40, 7);
  const auto b = MakePoints(40, 8);
  const auto admit = manager.Admit("sliced", JoinFactory(a, b, {}));
  ASSERT_EQ(admit.status, ServeStatus::kOk);
  JoinResult<2> r;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(manager.Next(admit.id, &r), ServeStatus::kYield);
    EXPECT_EQ(manager.state(admit.id), SessionState::kLive);
  }
  const serve::SessionCounters counters = manager.counters(admit.id);
  EXPECT_EQ(counters.slices, 3u);
  EXPECT_EQ(counters.yields, 3u);
  EXPECT_EQ(counters.results, 0u);
}

TEST(SessionManager, SlicedStreamIsIdenticalToUnslicedReference) {
  const auto a = MakePoints(80, 9);
  const auto b = MakePoints(80, 10);
  DistanceJoinOptions join_options;
  join_options.max_pairs = 120;
  const EngineFactory factory = JoinFactory(a, b, join_options);
  const Reference ref = RunReference(factory);

  serve::ServeOptions options;
  options.slice = std::chrono::microseconds(20);
  serve::SessionManager<2> manager(options);
  const auto admit = manager.Admit("sliced", factory);
  ASSERT_EQ(admit.status, ServeStatus::kOk);
  std::vector<Pair> stream;
  DrainSession(&manager, admit.id, &stream);
  // However many slice deadlines fired mid-run, the suspension safe points
  // are invisible: stream and statistics match the unsliced run exactly.
  EXPECT_EQ(stream, ref.stream);
  test::ExpectStatsEqual(manager.session_stats(admit.id), ref.stats);
}

// --- checkpoint-evict-resume -------------------------------------------------

TEST(SessionManager, ExplicitEvictRehydratesTransparently) {
  const auto a = MakePoints(70, 11);
  const auto b = MakePoints(70, 12);
  DistanceJoinOptions join_options;
  join_options.max_pairs = 90;
  const EngineFactory factory = JoinFactory(a, b, join_options);
  const Reference ref = RunReference(factory);

  serve::SessionManager<2> manager(serve::ServeOptions{});
  const auto admit = manager.Admit("evictee", factory);
  ASSERT_EQ(admit.status, ServeStatus::kOk);
  std::vector<Pair> stream;
  JoinResult<2> r;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(manager.Next(admit.id, &r), ServeStatus::kOk);
    stream.push_back(AsTuple(r));
  }
  ASSERT_TRUE(manager.Evict(admit.id));
  EXPECT_EQ(manager.state(admit.id), SessionState::kEvicted);
  EXPECT_EQ(manager.ResidentEntries(), 0u);
  // The next Next() rebuilds the engine and resumes the checkpoint.
  DrainSession(&manager, admit.id, &stream);
  EXPECT_EQ(stream, ref.stream);
  test::ExpectStatsEqual(manager.session_stats(admit.id), ref.stats);
  const serve::SessionCounters counters = manager.counters(admit.id);
  EXPECT_EQ(counters.evictions, 1u);
  EXPECT_EQ(counters.rehydrations, 1u);
  EXPECT_GE(counters.cursor.checkpoints_written, 1u);
}

// Session sinks share the manager's trace: a traced eviction records the
// cursor's checkpoint and snapshot spans, not one opaque session_evict.
TEST(SessionManager, TracedEvictionRecordsSnapshotSpans) {
  const auto a = MakePoints(70, 11);
  const auto b = MakePoints(70, 12);
  WithinJoinOptions within_options;
  within_options.epsilon = 120.0;
  obs::TraceSink sink;
  obs::Metrics metrics;
  metrics.set_trace(&sink);
  // In-memory snapshot stores: no session table, whose own commits would
  // put snapshot spans in the trace without any session's help.
  serve::ServeOptions options;
  options.metrics = &metrics;
  serve::SessionManager<2> manager(options);
  const auto admit =
      manager.Admit("traced", WithinFactory(a, b, within_options));
  ASSERT_EQ(admit.status, ServeStatus::kOk);
  JoinResult<2> r;
  ASSERT_EQ(manager.Next(admit.id, &r), ServeStatus::kOk);
  ASSERT_TRUE(manager.Evict(admit.id));

  const std::string path = TempPath("serve_traced_evict.json");
  ASSERT_TRUE(sink.WriteJson(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string json;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    json.append(buffer, n);
  }
  std::fclose(f);
  for (const char* span : {"session_evict", "checkpoint", "snapshot_encode",
                           "snapshot_commit", "snapshot_sync"}) {
    EXPECT_NE(json.find(std::string("\"name\": \"") + span + "\""),
              std::string::npos)
        << span;
  }
  // The two sinks share one trace, so each serving phase is traced once.
  const std::string evict_event = "\"name\": \"session_evict\"";
  const size_t first = json.find(evict_event);
  EXPECT_EQ(json.find(evict_event, first + 1), std::string::npos);
  EXPECT_EQ(metrics.hist(obs::Op::kSessionEvict).count(), 1u);
  EXPECT_EQ(
      manager.session_metrics(admit.id)->hist(obs::Op::kSessionEvict).count(),
      1u);
  // The session's own histograms still see its checkpoint.
  EXPECT_GE(
      manager.session_metrics(admit.id)->hist(obs::Op::kSnapshotSync).count(),
      2u);
}

TEST(SessionManager, MemoryPressureEvictsColdestSessions) {
  DistanceJoinOptions join_options;
  join_options.max_pairs = 40;
  std::vector<EngineFactory> factories;
  std::vector<Reference> refs;
  for (int i = 0; i < 3; ++i) {
    factories.push_back(JoinFactory(MakePoints(50, 13 + 2 * i),
                                    MakePoints(50, 14 + 2 * i),
                                    join_options));
    refs.push_back(RunReference(factories.back()));
  }

  serve::ServeOptions options;
  options.memory_budget_entries = 64;  // far below one session's queue
  serve::SessionManager<2> manager(options);
  std::vector<SessionId> ids;
  for (int i = 0; i < 3; ++i) {
    std::string tag = "s";
    tag += std::to_string(i);
    const auto admit = manager.Admit(tag, factories[i]);
    ASSERT_EQ(admit.status, ServeStatus::kOk);
    ids.push_back(admit.id);
  }

  // Round-robin until every session finishes. The budget is small enough
  // that serving one session evicts the others, so each session is
  // checkpointed and rehydrated many times mid-stream.
  std::map<SessionId, std::vector<Pair>> streams;
  size_t remaining = ids.size();
  std::map<SessionId, bool> done;
  while (remaining > 0) {
    for (const SessionId id : ids) {
      if (done[id]) continue;
      JoinResult<2> r;
      const ServeStatus s = manager.Next(id, &r);
      if (s == ServeStatus::kOk) {
        streams[id].push_back(AsTuple(r));
      } else {
        ASSERT_EQ(s, ServeStatus::kExhausted);
        done[id] = true;
        --remaining;
      }
    }
  }
  EXPECT_GT(manager.stats().evictions, 0u);
  EXPECT_EQ(manager.stats().evictions, manager.stats().rehydrations);
  for (size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "session " << i);
    EXPECT_EQ(streams[ids[i]], refs[i].stream);
    test::ExpectStatsEqual(manager.session_stats(ids[i]), refs[i].stats);
  }
}

// The serving layer's central property, fuzzed (satellite of ISSUE 6): a
// mixed population of join, semi-join, within-join, and nearest-neighbor
// sessions, served in a random interleaving under memory pressure AND fault
// injection (periodic transient read/write faults plus one torn commit per
// store) — every session's stream and statistics must match its
// uninterrupted solo run exactly.
TEST(SessionManager, EvictResumeEquivalenceFuzzUnderFaults) {
  DistanceJoinOptions join_options;
  join_options.max_pairs = 40;
  DistanceJoinOptions hybrid_options = join_options;
  hybrid_options.use_hybrid_queue = true;
  hybrid_options.hybrid.tier_width = 25.0;
  SemiJoinOptions semi_options;
  semi_options.join.max_pairs = 30;
  WithinJoinOptions within_options;
  within_options.epsilon = 60.0;
  IncNeighborOptions nn_options;

  std::vector<EngineFactory> factories;
  factories.push_back(
      JoinFactory(MakePoints(50, 21), MakePoints(50, 22), join_options));
  factories.push_back(
      JoinFactory(MakePoints(50, 23), MakePoints(50, 24), hybrid_options));
  factories.push_back(
      SemiFactory(MakePoints(40, 25), MakePoints(40, 26), semi_options));
  factories.push_back(WithinFactory(MakePoints(40, 27), MakePoints(40, 28),
                                    within_options));
  factories.push_back(
      NearestFactory(MakePoints(60, 29), Point<2>{400.0, 600.0}, nn_options));
  std::vector<Reference> refs;
  for (const EngineFactory& f : factories) refs.push_back(RunReference(f));

  serve::ServeOptions options;
  options.state_dir = FreshStateDir("serve_fuzz");
  options.memory_budget_entries = 96;
  options.snapshot_slots = 4;
  options.commit_retry = {.max_attempts = 3, .backoff_us = 0};
  options.retry.backoff_us = 0;
  storage::FaultInjectionOptions faults;
  faults.seed = 20260808;
  faults.transient_write_period = 5;
  faults.transient_read_period = 7;
  faults.torn_write_at = 9;
  options.fault_injection = faults;
  serve::SessionManager<2> manager(options);

  std::vector<SessionId> ids;
  for (size_t i = 0; i < factories.size(); ++i) {
    std::string tag = "fuzz";
    tag += std::to_string(i);
    const auto admit = manager.Admit(tag, factories[i]);
    ASSERT_EQ(admit.status, ServeStatus::kOk);
    ids.push_back(admit.id);
  }

  std::mt19937_64 rng(424243);
  std::map<SessionId, std::vector<Pair>> streams;
  std::map<SessionId, bool> done;
  size_t remaining = ids.size();
  while (remaining > 0) {
    const SessionId id = ids[rng() % ids.size()];
    if (done[id]) continue;
    JoinResult<2> r;
    const ServeStatus s = manager.Next(id, &r);
    if (s == ServeStatus::kOk) {
      streams[id].push_back(AsTuple(r));
    } else {
      ASSERT_EQ(s, ServeStatus::kExhausted);
      done[id] = true;
      --remaining;
    }
  }
  EXPECT_GT(manager.stats().evictions, 0u);
  EXPECT_EQ(manager.stats().failed_sessions, 0u);
  for (size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "session " << i);
    EXPECT_EQ(streams[ids[i]], refs[i].stream);
    test::ExpectStatsEqual(manager.session_stats(ids[i]), refs[i].stats);
  }
}

// --- pinned-resident degradation ---------------------------------------------

TEST(SessionManager, PinnedResidentWhenCheckpointCannotCommit) {
  const auto a = MakePoints(60, 31);
  const auto b = MakePoints(60, 32);
  DistanceJoinOptions join_options;
  join_options.max_pairs = 60;
  const EngineFactory factory = JoinFactory(a, b, join_options);
  const Reference ref = RunReference(factory);

  serve::ServeOptions options;
  // One torn commit, and no commit retry: the first eviction attempt fails.
  storage::FaultInjectionOptions faults;
  faults.torn_write_at = 4;
  options.fault_injection = faults;
  options.commit_retry = {.max_attempts = 1, .backoff_us = 0};
  options.retry.backoff_us = 0;
  serve::SessionManager<2> manager(options);
  const auto admit = manager.Admit("pinned", factory);
  ASSERT_EQ(admit.status, ServeStatus::kOk);
  std::vector<Pair> stream;
  JoinResult<2> r;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(manager.Next(admit.id, &r), ServeStatus::kOk);
    stream.push_back(AsTuple(r));
  }
  // The torn commit fails the eviction; the session degrades to
  // pinned-resident instead of losing progress.
  EXPECT_FALSE(manager.Evict(admit.id));
  EXPECT_EQ(manager.state(admit.id), SessionState::kLive);
  EXPECT_TRUE(manager.counters(admit.id).pinned_resident);
  EXPECT_EQ(manager.stats().pinned_sessions, 1u);
  EXPECT_GE(manager.counters(admit.id).cursor.checkpoint_failures, 1u);
  // Pinned sessions keep serving.
  ASSERT_EQ(manager.Next(admit.id, &r), ServeStatus::kOk);
  stream.push_back(AsTuple(r));
  // A later successful checkpoint unpins; eviction works again.
  EXPECT_TRUE(manager.Checkpoint(admit.id));
  EXPECT_FALSE(manager.counters(admit.id).pinned_resident);
  EXPECT_TRUE(manager.Evict(admit.id));
  EXPECT_EQ(manager.state(admit.id), SessionState::kEvicted);
  DrainSession(&manager, admit.id, &stream);
  EXPECT_EQ(stream, ref.stream);
  test::ExpectStatsEqual(manager.session_stats(admit.id), ref.stats);
}

TEST(SessionManager, DeadDiskPinsEverySessionButAllComplete) {
  DistanceJoinOptions join_options;
  join_options.max_pairs = 30;
  std::vector<EngineFactory> factories;
  std::vector<Reference> refs;
  for (int i = 0; i < 2; ++i) {
    factories.push_back(JoinFactory(MakePoints(40, 33 + 2 * i),
                                    MakePoints(40, 34 + 2 * i),
                                    join_options));
    refs.push_back(RunReference(factories.back()));
  }

  serve::ServeOptions options;
  options.memory_budget_entries = 32;  // pressure on every Next
  storage::FaultInjectionOptions faults;
  faults.hard_write_after = 0;  // every snapshot store is a dead disk
  options.fault_injection = faults;
  options.commit_retry = {.max_attempts = 2, .backoff_us = 0};
  options.retry.backoff_us = 0;
  serve::SessionManager<2> manager(options);
  std::vector<SessionId> ids;
  for (int i = 0; i < 2; ++i) {
    std::string tag = "dead";
    tag += std::to_string(i);
    const auto admit = manager.Admit(tag, factories[i]);
    ASSERT_EQ(admit.status, ServeStatus::kOk);
    ids.push_back(admit.id);
  }
  // No checkpoint can ever commit, so eviction is impossible — the budget
  // degrades to pinned-resident sessions rather than stalling or aborting.
  std::map<SessionId, std::vector<Pair>> streams;
  std::map<SessionId, bool> done;
  size_t remaining = ids.size();
  while (remaining > 0) {
    for (const SessionId id : ids) {
      if (done[id]) continue;
      JoinResult<2> r;
      const ServeStatus s = manager.Next(id, &r);
      if (s == ServeStatus::kOk) {
        streams[id].push_back(AsTuple(r));
      } else {
        ASSERT_EQ(s, ServeStatus::kExhausted);
        done[id] = true;
        --remaining;
      }
    }
  }
  EXPECT_EQ(manager.stats().evictions, 0u);
  EXPECT_EQ(manager.stats().pinned_sessions, 2u);
  for (size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "session " << i);
    EXPECT_EQ(streams[ids[i]], refs[i].stream);
  }
}

// --- failure isolation -------------------------------------------------------

TEST(SessionManager, RehydrationFailureIsIsolatedToItsSession) {
  const auto a = MakePoints(50, 41);
  const auto b = MakePoints(50, 42);
  DistanceJoinOptions join_options;
  join_options.max_pairs = 40;
  const EngineFactory good_factory = JoinFactory(a, b, join_options);
  const Reference good_ref = RunReference(good_factory);

  // The poisoned factory rebuilds the engine with a different metric after
  // eviction: the snapshot's config fingerprint no longer matches, so the
  // restore fails — serving this stale stream from scratch would duplicate
  // results, so the session must fail instead.
  auto poison = std::make_shared<bool>(false);
  const auto pts_a = MakePoints(50, 43);
  const auto pts_b = MakePoints(50, 44);
  EngineFactory poisoned_factory =
      [pts_a, pts_b, join_options, poison](util::StopToken token)
      -> std::unique_ptr<serve::ErasedEngine<2>> {
    auto ctx = std::make_shared<TreePairContext>(pts_a, pts_b);
    DistanceJoinOptions o = join_options;
    o.stop_token = token;
    if (*poison) o.metric = Metric::kManhattan;
    auto join = std::make_unique<DistanceJoin<2>>(ctx->a, ctx->b, o);
    return serve::Erase<2>(std::move(join), ctx);
  };

  serve::SessionManager<2> manager(serve::ServeOptions{});
  const auto good = manager.Admit("good", good_factory);
  const auto bad = manager.Admit("bad", poisoned_factory);
  ASSERT_EQ(good.status, ServeStatus::kOk);
  ASSERT_EQ(bad.status, ServeStatus::kOk);

  JoinResult<2> r;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(manager.Next(bad.id, &r), ServeStatus::kOk);
  }
  ASSERT_TRUE(manager.Evict(bad.id));
  *poison = true;
  // Rehydration fails: explicit kIoError, session isolated as kFailed.
  EXPECT_EQ(manager.Next(bad.id, &r), ServeStatus::kIoError);
  EXPECT_EQ(manager.state(bad.id), SessionState::kFailed);
  EXPECT_EQ(manager.stats().failed_sessions, 1u);
  EXPECT_EQ(manager.Next(bad.id, &r), ServeStatus::kIoError);

  // The healthy session is untouched by its neighbor's failure.
  std::vector<Pair> stream;
  DrainSession(&manager, good.id, &stream);
  EXPECT_EQ(stream, good_ref.stream);
  test::ExpectStatsEqual(manager.session_stats(good.id), good_ref.stats);
}

// Query options are user input: a session admitted with invalid options
// fails alone with kInvalidArgument — before this engine construction
// aborted, killing every session in the process.
TEST(SessionManager, InvalidOptionsFailOnlyTheirSession) {
  const auto a = MakePoints(50, 45);
  const auto b = MakePoints(50, 46);
  DistanceJoinOptions join_options;
  join_options.max_pairs = 30;
  WithinJoinOptions within_options;
  within_options.epsilon = 40.0;
  DistanceJoinOptions bad_options;
  bad_options.min_distance = 9.0;
  bad_options.max_distance = 3.0;  // inverted range
  const EngineFactory join_factory = JoinFactory(a, b, join_options);
  const EngineFactory within_factory = WithinFactory(a, b, within_options);
  const Reference join_ref = RunReference(join_factory);
  const Reference within_ref = RunReference(within_factory);

  serve::SessionManager<2> manager(serve::ServeOptions{});
  const auto good_join = manager.Admit("join", join_factory);
  const auto bad = manager.Admit("bad", JoinFactory(a, b, bad_options));
  const auto good_within = manager.Admit("within", within_factory);
  ASSERT_EQ(good_join.status, ServeStatus::kOk);
  ASSERT_EQ(bad.status, ServeStatus::kOk);
  ASSERT_EQ(good_within.status, ServeStatus::kOk);

  JoinResult<2> r;
  EXPECT_EQ(manager.Next(bad.id, &r), ServeStatus::kInvalidArgument);
  EXPECT_EQ(manager.state(bad.id), SessionState::kFailed);
  std::vector<Pair> join_stream;
  std::vector<Pair> within_stream;
  DrainSession(&manager, good_join.id, &join_stream);
  DrainSession(&manager, good_within.id, &within_stream);
  EXPECT_EQ(join_stream, join_ref.stream);
  EXPECT_EQ(within_stream, within_ref.stream);
  test::ExpectStatsEqual(manager.session_stats(good_join.id), join_ref.stats);
  test::ExpectStatsEqual(manager.session_stats(good_within.id),
                         within_ref.stats);
  EXPECT_EQ(manager.stats().failed_sessions, 1u);
  EXPECT_EQ(manager.stats().finished_sessions, 2u);
}

// --- crash recovery ----------------------------------------------------------

TEST(SessionManager, CrashRecoveryResumesCheckpointedSessions) {
  const std::string dir = FreshStateDir("serve_recovery");
  DistanceJoinOptions join_options;
  join_options.max_pairs = 60;
  const EngineFactory factory_a =
      JoinFactory(MakePoints(60, 51), MakePoints(60, 52), join_options);
  const EngineFactory factory_b =
      JoinFactory(MakePoints(60, 53), MakePoints(60, 54), join_options);
  const Reference ref_a = RunReference(factory_a);
  const Reference ref_b = RunReference(factory_b);

  serve::ServeOptions options;
  options.state_dir = dir;
  std::map<std::string, std::vector<Pair>> streams;
  SessionId id_a = 0;
  SessionId id_b = 0;
  {
    serve::SessionManager<2> manager(options);
    const auto admit_a = manager.Admit("join-a", factory_a);
    const auto admit_b = manager.Admit("join-b", factory_b);
    ASSERT_EQ(admit_a.status, ServeStatus::kOk);
    ASSERT_EQ(admit_b.status, ServeStatus::kOk);
    id_a = admit_a.id;
    id_b = admit_b.id;
    JoinResult<2> r;
    for (int i = 0; i < 12; ++i) {
      ASSERT_EQ(manager.Next(id_a, &r), ServeStatus::kOk);
      streams["join-a"].push_back(AsTuple(r));
    }
    for (int i = 0; i < 7; ++i) {
      ASSERT_EQ(manager.Next(id_b, &r), ServeStatus::kOk);
      streams["join-b"].push_back(AsTuple(r));
    }
    // Both sessions checkpoint + evict, committing their snapshots and the
    // session table; then the process "crashes" (manager destroyed).
    ASSERT_TRUE(manager.Evict(id_a));
    ASSERT_TRUE(manager.Evict(id_b));
  }

  serve::SessionManager<2> manager(options);
  const size_t recovered = manager.Recover(
      [&](const serve::SessionRecord& record) -> EngineFactory {
        if (record.tag == "join-a") return factory_a;
        if (record.tag == "join-b") return factory_b;
        return nullptr;
      });
  EXPECT_EQ(recovered, 2u);
  EXPECT_EQ(manager.stats().recovered_sessions, 2u);
  EXPECT_EQ(manager.state(id_a), SessionState::kEvicted);
  EXPECT_EQ(manager.state(id_b), SessionState::kEvicted);

  DrainSession(&manager, id_a, &streams["join-a"]);
  DrainSession(&manager, id_b, &streams["join-b"]);
  EXPECT_EQ(streams["join-a"], ref_a.stream);
  EXPECT_EQ(streams["join-b"], ref_b.stream);
  test::ExpectStatsEqual(manager.session_stats(id_a), ref_a.stats);
  test::ExpectStatsEqual(manager.session_stats(id_b), ref_b.stats);

  // The id allocator's high-water mark was recovered too: new sessions must
  // not collide with recovered ids.
  const auto fresh = manager.Admit("join-c", factory_a);
  ASSERT_EQ(fresh.status, ServeStatus::kOk);
  EXPECT_GT(fresh.id, id_b);
}

TEST(SessionManager, RecoveryWithoutSnapshotRestartsFromScratch) {
  const std::string dir = FreshStateDir("serve_recovery_scratch");
  DistanceJoinOptions join_options;
  join_options.max_pairs = 30;
  const EngineFactory factory =
      JoinFactory(MakePoints(40, 55), MakePoints(40, 56), join_options);
  const Reference ref = RunReference(factory);

  serve::ServeOptions options;
  options.state_dir = dir;
  SessionId id = 0;
  {
    serve::SessionManager<2> manager(options);
    const auto admit = manager.Admit("scratch", factory);
    ASSERT_EQ(admit.status, ServeStatus::kOk);
    id = admit.id;
    // A few results, but no checkpoint — then crash. The table records the
    // session with has_snapshot = false.
    JoinResult<2> r;
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(manager.Next(id, &r), ServeStatus::kOk);
    }
  }

  serve::SessionManager<2> manager(options);
  const size_t recovered = manager.Recover(
      [&](const serve::SessionRecord& record) -> EngineFactory {
        EXPECT_FALSE(record.has_snapshot);
        return factory;
      });
  ASSERT_EQ(recovered, 1u);
  // No committed progress existed, so the session restarts from scratch:
  // the full stream again (at-least-once delivery across crashes).
  std::vector<Pair> stream;
  DrainSession(&manager, id, &stream);
  EXPECT_EQ(stream, ref.stream);
}

// Flips one byte inside a physical page (page_size + trailer bytes each);
// the page checksum catches it on the next read.
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

TEST(SessionManager, TornTableCommitFallsBackToPreviousEpoch) {
  const std::string dir = FreshStateDir("serve_torn_table");
  DistanceJoinOptions join_options;
  join_options.max_pairs = 20;
  const EngineFactory factory =
      JoinFactory(MakePoints(30, 57), MakePoints(30, 58), join_options);
  const Reference ref = RunReference(factory);

  serve::ServeOptions options;
  options.state_dir = dir;
  SessionId id_a = 0;
  {
    serve::SessionManager<2> manager(options);
    const auto admit_a = manager.Admit("table-a", factory);  // table epoch 1
    const auto admit_b = manager.Admit("table-b", factory);  // table epoch 2
    ASSERT_EQ(admit_a.status, ServeStatus::kOk);
    ASSERT_EQ(admit_b.status, ServeStatus::kOk);
    id_a = admit_a.id;
  }
  // Tear the newest table epoch (epoch 2 lives in slot 2 % 2 = 0, header
  // page 0): recovery must fall back to the consistent epoch-1 set — just
  // "table-a" — never a half-written one.
  CorruptPage(dir + "/sessions.tbl", 4096, 0);

  serve::SessionManager<2> manager(options);
  const size_t recovered = manager.Recover(
      [&](const serve::SessionRecord& record) -> EngineFactory {
        EXPECT_EQ(record.tag, "table-a");
        return factory;
      });
  ASSERT_EQ(recovered, 1u);
  std::vector<Pair> stream;
  DrainSession(&manager, id_a, &stream);
  EXPECT_EQ(stream, ref.stream);
}

// --- serving self-healing (DESIGN.md §16) ------------------------------------

// An unrestorable newest epoch — here, version skew: a fully checksummed
// snapshot whose payload no engine of this configuration can restore —
// engages the self-healing fallback: scrub, retry the newest epoch once,
// then walk older committed epochs. The session resumes from the eviction
// checkpoint, serves its exact remaining stream, and is marked degraded.
TEST(SessionManager, SelfHealFallsBackToOlderEpochAndMarksDegraded) {
  const std::string dir = FreshStateDir("serve_self_heal");
  DistanceJoinOptions join_options;
  join_options.max_pairs = 60;
  const EngineFactory factory =
      JoinFactory(MakePoints(60, 61), MakePoints(60, 62), join_options);
  const Reference ref = RunReference(factory);

  serve::ServeOptions options;
  options.state_dir = dir;
  options.snapshot_slots = 3;
  serve::SessionManager<2> manager(options);
  const auto admit = manager.Admit("heal", factory);
  ASSERT_EQ(admit.status, ServeStatus::kOk);
  std::vector<Pair> stream;
  JoinResult<2> r;
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(manager.Next(admit.id, &r), ServeStatus::kOk);
    stream.push_back(AsTuple(r));
  }
  ASSERT_TRUE(manager.Checkpoint(admit.id));  // epoch 1
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(manager.Next(admit.id, &r), ServeStatus::kOk);
    stream.push_back(AsTuple(r));
  }
  ASSERT_TRUE(manager.Evict(admit.id));  // epoch 2: the 10-result checkpoint

  // While the session is evicted, an incompatible epoch 3 lands in its
  // store: valid pages, valid header, a payload RestoreState must reject.
  {
    auto store = snapshot::SnapshotStore::Open(
        {dir + "/session_" + std::to_string(admit.id) + ".snap", 4096,
         std::nullopt, std::nullopt, {}, nullptr, 3});
    ASSERT_NE(store, nullptr);
    snapshot::Blob junk;
    junk.PutU64(0xDEADBEEFULL);  // wrong engine fingerprint
    ASSERT_TRUE(store->WriteSnapshot(junk));
    EXPECT_EQ(store->last_epoch(), 3u);
  }

  // The next Next() rehydrates through SelfHeal and the stream continues
  // exactly where the epoch-2 checkpoint stopped — no duplicates, no gaps.
  DrainSession(&manager, admit.id, &stream);
  EXPECT_EQ(stream, ref.stream);
  test::ExpectStatsEqual(manager.session_stats(admit.id), ref.stats);
  EXPECT_EQ(manager.health(admit.id), serve::SessionHealth::kDegraded);
  EXPECT_EQ(manager.stats().degraded_sessions, 1u);
  EXPECT_EQ(manager.stats().quarantined_sessions, 0u);
  const serve::SessionCounters counters = manager.counters(admit.id);
  EXPECT_EQ(counters.scrubs, 1u);
  // Nothing was torn — this was a fallback past a rejected epoch, not a
  // header repair.
  EXPECT_EQ(counters.slots_healed, 0u);
  EXPECT_GE(counters.cursor.snapshot_fallbacks, 1u);
}

// When every slot of a session's store is corrupt, self-healing finds no
// committed epoch to fall back to: the session is quarantined — explicit
// kIoError, store left on disk for offline scrub — and its neighbors never
// notice.
TEST(SessionManager, QuarantineIsolatesCorruptStoreFromNeighbors) {
  const std::string dir = FreshStateDir("serve_quarantine");
  DistanceJoinOptions join_options;
  join_options.max_pairs = 40;
  const EngineFactory bad_factory =
      JoinFactory(MakePoints(50, 63), MakePoints(50, 64), join_options);
  const EngineFactory good_factory =
      JoinFactory(MakePoints(50, 65), MakePoints(50, 66), join_options);
  const Reference good_ref = RunReference(good_factory);

  serve::ServeOptions options;
  options.state_dir = dir;
  serve::SessionManager<2> manager(options);
  const auto bad = manager.Admit("bad", bad_factory);
  const auto good = manager.Admit("good", good_factory);
  ASSERT_EQ(bad.status, ServeStatus::kOk);
  ASSERT_EQ(good.status, ServeStatus::kOk);
  JoinResult<2> r;
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(manager.Next(bad.id, &r), ServeStatus::kOk);
  }
  ASSERT_TRUE(manager.Evict(bad.id));

  // Corrupt both header slots of the evicted session's store on disk.
  const std::string snap =
      dir + "/session_" + std::to_string(bad.id) + ".snap";
  CorruptPage(snap, 4096, 0);
  CorruptPage(snap, 4096, 1);

  EXPECT_EQ(manager.Next(bad.id, &r), ServeStatus::kIoError);
  EXPECT_EQ(manager.state(bad.id), SessionState::kFailed);
  EXPECT_EQ(manager.health(bad.id), serve::SessionHealth::kQuarantined);
  EXPECT_EQ(manager.stats().quarantined_sessions, 1u);
  EXPECT_EQ(manager.stats().failed_sessions, 1u);
  const serve::SessionCounters counters = manager.counters(bad.id);
  EXPECT_EQ(counters.scrubs, 1u);
  EXPECT_EQ(counters.slots_healed, 2u);  // both torn headers quarantined
  // Terminal, not aborting — and the store survives for offline repair.
  EXPECT_EQ(manager.Next(bad.id, &r), ServeStatus::kIoError);
  struct stat st;
  EXPECT_EQ(::stat(snap.c_str(), &st), 0);

  // The neighbor streams to exhaustion, bit-for-bit.
  std::vector<Pair> good_stream;
  DrainSession(&manager, good.id, &good_stream);
  EXPECT_EQ(good_stream, good_ref.stream);
  test::ExpectStatsEqual(manager.session_stats(good.id), good_ref.stats);
  EXPECT_EQ(manager.health(good.id), serve::SessionHealth::kHealthy);
}

// Satellite of ISSUE 8, manager level: a crash at EVERY write/sync op of
// the session-table store loses at most the uncommitted table delta. After
// restart, Recover() sees exactly one of the committed session sets —
// {}, {a}, {a,b}, or {a(snapshotted),b} — never a blend, and every
// recovered session serves its exact stream.
TEST(SessionManager, TableCrashPointSweepRecoversConsistentSessionSet) {
  DistanceJoinOptions join_options;
  join_options.max_pairs = 30;
  const EngineFactory factory_a =
      JoinFactory(MakePoints(40, 67), MakePoints(40, 68), join_options);
  const EngineFactory factory_b =
      JoinFactory(MakePoints(40, 69), MakePoints(40, 70), join_options);
  const Reference ref_a = RunReference(factory_a);
  const Reference ref_b = RunReference(factory_b);
  constexpr storage::CrashTearMode kModes[] = {
      storage::CrashTearMode::kPartialPage,
      storage::CrashTearMode::kGarbageTail,
      storage::CrashTearMode::kDroppedOp,
  };

  struct WorkloadResult {
    uint64_t table_ops = 0;
    uint64_t commit_failures = 0;
    SessionId id_a = 0;
    SessionId id_b = 0;
  };
  // Admits two sessions (table epochs 1 and 2), serves six results from the
  // first, then checkpoints it (epoch 3 records has_snapshot). The table
  // store crashes at mutation op `crash.crash_at` (kNever = counting pass).
  const auto run_workload =
      [&](const std::string& dir,
          const storage::CrashPointOptions& crash) -> WorkloadResult {
    serve::ServeOptions options;
    options.state_dir = dir;
    options.table_crash_point = crash;
    serve::SessionManager<2> manager(options);
    WorkloadResult out;
    const auto admit_a = manager.Admit("table-a", factory_a);
    EXPECT_EQ(admit_a.status, ServeStatus::kOk);
    JoinResult<2> r;
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(manager.Next(admit_a.id, &r), ServeStatus::kOk);
    }
    const auto admit_b = manager.Admit("table-b", factory_b);
    EXPECT_EQ(admit_b.status, ServeStatus::kOk);
    // The session-store checkpoint commits regardless of the table's fate;
    // only the has_snapshot table record is at the crash's mercy.
    EXPECT_TRUE(manager.Checkpoint(admit_a.id));
    out.id_a = admit_a.id;
    out.id_b = admit_b.id;
    out.commit_failures = manager.stats().table_commit_failures;
    EXPECT_NE(manager.table(), nullptr);
    if (manager.table() != nullptr) {
      out.table_ops = manager.table()->store()->crash_point()->mutation_ops();
    }
    return out;
  };

  const WorkloadResult counting =
      run_workload(FreshStateDir("serve_table_crash"), {});
  ASSERT_GT(counting.table_ops, 0u);
  ASSERT_EQ(counting.commit_failures, 0u);

  for (uint64_t k = 0; k < counting.table_ops; ++k) {
    SCOPED_TRACE(::testing::Message() << "crash at table op " << k);
    const std::string dir = FreshStateDir("serve_table_crash");
    const WorkloadResult crashed = run_workload(
        dir, storage::CrashPointOptions{k, kModes[k % 3], k + 1});
    // The crash fails at least one table commit (the previous epoch
    // survives); serving itself never stops.
    EXPECT_GE(crashed.commit_failures, 1u);

    serve::ServeOptions options;
    options.state_dir = dir;
    serve::SessionManager<2> manager(options);
    std::map<uint64_t, serve::SessionRecord> records;
    const size_t recovered = manager.Recover(
        [&](const serve::SessionRecord& record) -> EngineFactory {
          records[record.id] = record;
          if (record.tag == "table-a") return factory_a;
          if (record.tag == "table-b") return factory_b;
          ADD_FAILURE() << "unexpected record tag: " << record.tag;
          return nullptr;
        });
    ASSERT_EQ(recovered, records.size());
    // Exactly one committed epoch's session set — never a blend.
    ASSERT_LE(recovered, 2u);
    if (recovered == 1) {
      ASSERT_TRUE(records.count(crashed.id_a));
      EXPECT_FALSE(records[crashed.id_a].has_snapshot);  // epoch 1
    } else if (recovered == 2) {
      ASSERT_TRUE(records.count(crashed.id_a));
      ASSERT_TRUE(records.count(crashed.id_b));
      EXPECT_FALSE(records[crashed.id_b].has_snapshot);  // epochs 2 and 3
    }
    // Every recovered session serves its exact stream: from the six-result
    // checkpoint when the table remembers it, from scratch otherwise.
    if (records.count(crashed.id_a)) {
      std::vector<Pair> stream;
      if (records[crashed.id_a].has_snapshot) {
        stream.assign(ref_a.stream.begin(), ref_a.stream.begin() + 6);
      }
      DrainSession(&manager, crashed.id_a, &stream);
      EXPECT_EQ(stream, ref_a.stream);
    }
    if (records.count(crashed.id_b)) {
      std::vector<Pair> stream;
      DrainSession(&manager, crashed.id_b, &stream);
      EXPECT_EQ(stream, ref_b.stream);
    }
    // The recovered table is writable again: admission commits new epochs.
    const auto fresh = manager.Admit("table-c", factory_a);
    ASSERT_EQ(fresh.status, ServeStatus::kOk);
  }
  std::printf("session-table crash sweep: %llu crash points, all modes\n",
              static_cast<unsigned long long>(counting.table_ops));
}

// --- sharded engines behind the serving layer --------------------------------

// A sharded join (DESIGN.md §18) exposes the same JoinCursor-compatible
// contract as every serial engine, so it erases and serves unchanged.
EngineFactory ShardedJoinFactory(std::vector<Point<2>> a,
                                 std::vector<Point<2>> b,
                                 DistanceJoinOptions options) {
  return [a = std::move(a), b = std::move(b),
          options](util::StopToken token)
             -> std::unique_ptr<serve::ErasedEngine<2>> {
    auto ctx = std::make_shared<TreePairContext>(a, b);
    DistanceJoinOptions o = options;
    o.stop_token = token;
    auto join = std::make_unique<ShardedDistanceJoin<2>>(ctx->a, ctx->b, o);
    return serve::Erase<2>(std::move(join), ctx);
  };
}

TEST(SessionManager, ShardedEngineServesEvictsAndRecoversLikeSerial) {
  const auto a = MakePoints(400, 61);
  const auto b = MakePoints(400, 62);
  DistanceJoinOptions options;
  options.max_pairs = 600;
  // Serial reference: the served sharded session must reproduce this exact
  // stream across slicing, eviction, and post-crash recovery.
  const Reference ref = RunReference(JoinFactory(a, b, options));

  DistanceJoinOptions sharded_options = options;
  sharded_options.shards = 4;
  const EngineFactory factory = ShardedJoinFactory(a, b, sharded_options);

  serve::ServeOptions serve_options;
  serve_options.state_dir = FreshStateDir("serve_sharded");
  std::vector<Pair> stream;
  SessionId id = 0;
  {
    serve::SessionManager<2> manager(serve_options);
    const auto admit = manager.Admit("sharded", factory);
    ASSERT_EQ(admit.status, ServeStatus::kOk);
    id = admit.id;
    JoinResult<2> r;
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(manager.Next(id, &r), ServeStatus::kOk);
      stream.push_back(AsTuple(r));
    }
    // Checkpoint-evict mid-stream (shard snapshots + merge cursor), then
    // rehydrate transparently and keep serving.
    ASSERT_TRUE(manager.Evict(id));
    for (int i = 0; i < 50; ++i) {
      ASSERT_EQ(manager.Next(id, &r), ServeStatus::kOk);
      stream.push_back(AsTuple(r));
    }
    // "Crash" with a committed checkpoint (manager destroyed while evicted).
    ASSERT_TRUE(manager.Evict(id));
  }
  serve::SessionManager<2> manager(serve_options);
  const size_t recovered = manager.Recover(
      [&](const serve::SessionRecord&) -> EngineFactory { return factory; });
  ASSERT_EQ(recovered, 1u);
  DrainSession(&manager, id, &stream);
  EXPECT_EQ(stream, ref.stream);
  // Capped sharded runs report the same pairs even though per-shard
  // lookahead lets traversal counters run ahead (DESIGN.md §18).
  EXPECT_EQ(manager.session_stats(id).pairs_reported,
            ref.stats.pairs_reported);
}

}  // namespace
}  // namespace sdj
