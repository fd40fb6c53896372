// serve_evict: one SessionManager multiplexes four client sessions
// round-robin (Euclidean join, Manhattan join, semi-join, within-join) over
// a reduced Water x Roads instance. Snapshots go to a file-backed state
// directory and the memory budget sits far below any session's queue, so
// every visit to a session rehydrates it and checkpoint-evicts the one
// served before: the durable write path next to the reads.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/distance_join.h"
#include "core/semi_join.h"
#include "core/within_join.h"
#include "oracle.h"
#include "serve/erased_engine.h"
#include "serve/session_manager.h"
#include "workload.h"

namespace perfbench {

namespace {

using Manager = sdj::serve::SessionManager<2>;

constexpr double kScale = 0.01;         // 375 x 2,005 points
constexpr uint64_t kCap = 500;          // results a client pulls per session
constexpr uint64_t kTurn = 32;          // Next() calls per visit
constexpr uint64_t kBudget = 512;       // resident queue entries, all sessions
constexpr int kSessionsPerSlot = 2;     // sessions each client runs per unit

sdj::DistanceJoinOptions SessionJoinOptions(sdj::Metric metric,
                                            sdj::obs::Metrics* metrics,
                                            sdj::util::StopToken token) {
  sdj::DistanceJoinOptions options = JoinOptions(metrics);
  options.metric = metric;
  options.stop_token = std::move(token);
  return options;
}

// One client: runs sessions of one kind back to back (a closed loop).
struct Client {
  using Factory = std::function<Manager::EngineFactory(sdj::obs::Metrics*)>;
  Client(std::string t, Factory f) : tag(std::move(t)), factory(std::move(f)) {}

  std::string tag;
  Factory factory;
  int completed = 0;
  bool active = false;
  Manager::SessionId id = 0;
  uint64_t query = 0;
  uint64_t admitted_ns = 0;
  uint64_t last_result_ns = 0;
  std::vector<StreamItem> items;
};

struct Finished {
  size_t client;
  bool healthy;
  std::vector<StreamItem> items;
};

class ServeWorkload : public Workload {
 public:
  ServeWorkload(const RunConfig& cfg, Instance inst)
      : cfg_(cfg), inst_(std::move(inst)) {
    // The within-join radius: the distance of the kCap-th closest pair.
    sdj::DistanceJoin<2> join(
        *inst_.water, *inst_.roads,
        SessionJoinOptions(sdj::Metric::kEuclidean, nullptr,
                           sdj::util::StopToken{}));
    sdj::JoinResult<2> pair;
    for (uint64_t n = 0; n < kCap && join.Next(&pair); ++n) epsilon_ = pair.distance;

    const sdj::RTree<2>* a = inst_.water.get();
    const sdj::RTree<2>* b = inst_.roads.get();
    const auto join_factory = [a, b](sdj::Metric metric) {
      return [a, b, metric](sdj::obs::Metrics* metrics) -> Manager::EngineFactory {
        return [a, b, metric, metrics](sdj::util::StopToken token) {
          return sdj::serve::Erase<2>(std::make_unique<sdj::DistanceJoin<2>>(
              *a, *b, SessionJoinOptions(metric, metrics, std::move(token))));
        };
      };
    };
    clients_.emplace_back("join-euclid", join_factory(sdj::Metric::kEuclidean));
    clients_.emplace_back("join-manhattan",
                          join_factory(sdj::Metric::kManhattan));
    clients_.emplace_back(
        "semi", [a, b](sdj::obs::Metrics* metrics) -> Manager::EngineFactory {
           return [a, b, metrics](sdj::util::StopToken token) {
             sdj::SemiJoinOptions options;
             options.join = SessionJoinOptions(sdj::Metric::kEuclidean, metrics,
                                               std::move(token));
             options.filter = sdj::SemiJoinFilter::kInside2;
             options.bound = sdj::SemiJoinBound::kNone;
             return sdj::serve::Erase<2>(
                 std::make_unique<sdj::DistanceSemiJoin<2>>(*a, *b, options));
           };
         });
    const double eps = epsilon_;
    clients_.emplace_back(
        "within", [a, b, eps](sdj::obs::Metrics* metrics) -> Manager::EngineFactory {
           return [a, b, eps, metrics](sdj::util::StopToken token) {
             sdj::WithinJoinOptions options = WithinOptions(eps, metrics);
             options.stop_token = std::move(token);
             return sdj::serve::Erase<2>(
                 std::make_unique<sdj::IncWithinJoin<2>>(*a, *b, options));
           };
         });
  }

  void RunUnit(QueryLog* log, sdj::obs::Metrics* metrics) override {
    const std::string state_dir = cfg_.out_dir + "/serve_state_" +
                                  std::to_string(::getpid()) + "_" +
                                  std::to_string(units_++);
    std::filesystem::remove_all(state_dir);
    std::filesystem::create_directories(state_dir);
    sdj::serve::ServeOptions options;
    options.state_dir = state_dir;
    options.memory_budget_entries = kBudget;
    options.slice = std::chrono::microseconds(0);
    options.checkpoint_every = 0;
    options.metrics = metrics;
    layers_ = LayerInputs{};
    checkpoint_events_ = 0;

    const sdj::storage::IoStats water0 = inst_.water->pool().stats();
    const sdj::storage::IoStats roads0 = inst_.roads->pool().stats();
    const double cpu0 = CpuSeconds();
    const uint64_t t0 = NowNs();
    uint64_t covered = 0;
    {
      ScopedPoolMetrics attach({inst_.water.get(), inst_.roads.get()}, metrics);
      Manager manager(options);
      const auto finish = [&](Client& c, size_t index, bool healthy) {
        const uint64_t a = NowNs();
        const sdj::serve::SessionCounters counters = manager.counters(c.id);
        const sdj::JoinStats stats = manager.session_stats(c.id);
        const sdj::obs::MetricsSummary session =
            manager.session_metrics(c.id)->Summary();
        manager.Close(c.id);
        const uint64_t b = NowNs();
        log->AddSpan("bench.close", a, b, c.query);
        log->AddSpan("bench.session", c.admitted_ns, b, c.query);
        covered += b - a;
        if (!c.items.empty()) {
          log->query_ms[static_cast<int>(index)].push_back(
              static_cast<double>(c.last_result_ns - c.admitted_ns) * 1e-6);
        }
        log->stats.MergeFrom(stats);
        log->results += c.items.size();
        ++log->queries;
        layers_.checkpoints += counters.cursor.checkpoints_written;
        layers_.yields += counters.yields;
        layers_.checkpoint_ns += session.of(sdj::obs::Op::kCheckpoint).total_ns;
        layers_.commit_ns += session.of(sdj::obs::Op::kSnapshotCommit).total_ns;
        layers_.restore_ns += session.of(sdj::obs::Op::kRestore).total_ns;
        checkpoint_events_ += session.of(sdj::obs::Op::kCheckpoint).count;
        finished_.push_back({index, healthy, std::move(c.items)});
        c.items.clear();
        c.active = false;
        ++c.completed;
      };
      bool busy = true;
      while (busy) {
        busy = false;
        for (size_t i = 0; i < clients_.size(); ++i) {
          Client& c = clients_[i];
          if (c.completed >= kSessionsPerSlot) continue;
          busy = true;
          if (!c.active) {
            c.query = log->next_query_id++;
            const uint64_t a = NowNs();
            const Manager::AdmitResult admit =
                manager.Admit(c.tag, c.factory(metrics));
            const uint64_t b = NowNs();
            log->AddSpan("bench.admit", a, b, c.query);
            covered += b - a;
            c.admitted_ns = a;
            if (admit.status != sdj::serve::ServeStatus::kOk) {
              ++log->queries;
              finished_.push_back({i, false, {}});
              ++c.completed;
              continue;
            }
            c.id = admit.id;
            c.active = true;
          }
          for (uint64_t turn = 0; turn < kTurn; ++turn) {
            sdj::JoinResult<2> result;
            const uint64_t a = NowNs();
            const sdj::serve::ServeStatus status = manager.Next(c.id, &result);
            const uint64_t b = NowNs();
            log->AddSpan("bench.next", a, b, c.query);
            covered += b - a;
            if (c.items.empty()) {
              if (status == sdj::serve::ServeStatus::kOk) {
                log->first_result_ms[static_cast<int>(i)].push_back(
                    static_cast<double>(b - c.admitted_ns) * 1e-6);
              }
            } else {
              log->next_us.push_back(static_cast<double>(b - a) * 1e-3);
            }
            if (status == sdj::serve::ServeStatus::kOk) {
              c.items.push_back(ToItem(result));
              c.last_result_ns = b;
              if (c.items.size() >= kCap) {
                finish(c, i, true);
                break;
              }
            } else if (status == sdj::serve::ServeStatus::kYield) {
              break;  // slice expired: on to the next client
            } else {
              finish(c, i, status == sdj::serve::ServeStatus::kExhausted);
              break;
            }
          }
        }
      }
      layers_.evictions = manager.stats().evictions;
      layers_.rehydrations = manager.stats().rehydrations;
      if (manager.stats().quarantined_sessions != 0 ||
          manager.stats().failed_sessions != 0) {
        std::printf("serving: %llu failed, %llu quarantined sessions\n",
                    static_cast<unsigned long long>(
                        manager.stats().failed_sessions),
                    static_cast<unsigned long long>(
                        manager.stats().quarantined_sessions));
      }
    }
    const uint64_t t1 = NowNs();
    for (Client& c : clients_) c.completed = 0;
    log->timed_s += static_cast<double>(t1 - t0) * 1e-9;
    log->cpu_s += CpuSeconds() - cpu0;
    if (t1 > t0) {
      log->min_coverage = std::min(
          log->min_coverage,
          static_cast<double>(covered) / static_cast<double>(t1 - t0));
    }
    const sdj::storage::IoStats water1 = inst_.water->pool().stats();
    const sdj::storage::IoStats roads1 = inst_.roads->pool().stats();
    layers_.page_reads = (water1.buffer_misses - water0.buffer_misses) +
                         (roads1.buffer_misses - roads0.buffer_misses);
    layers_.page_accesses = (water1.logical_reads - water0.logical_reads) +
                            (roads1.logical_reads - roads0.logical_reads);
    std::filesystem::remove_all(state_dir);
  }

  void CheckUnit(QueryLog* log) override {
    // Each session's stream must be exactly what one uninterrupted engine
    // of the same configuration produces.
    for (const Finished& f : finished_) {
      if (!f.healthy) {
        Expect("session failed", clients_[f.client].tag.c_str(), log);
        continue;
      }
      std::unique_ptr<sdj::serve::ErasedEngine<2>> engine =
          clients_[f.client].factory(nullptr)(sdj::util::StopToken{});
      std::vector<StreamItem> want;
      sdj::JoinResult<2> result;
      while (want.size() < kCap && engine->Next(&result)) {
        want.push_back(ToItem(result));
      }
      Expect(CompareExact(f.items, want), clients_[f.client].tag.c_str(), log);
    }
    finished_.clear();
  }

  void CollectLayers(const QueryLog& log, LayerInputs* in,
                     Report* report) override {
    in->page_reads = layers_.page_reads;
    in->page_accesses = layers_.page_accesses;
    in->checkpoints = layers_.checkpoints;
    in->checkpoint_ns = layers_.checkpoint_ns;
    in->commit_ns = layers_.commit_ns;
    in->restore_ns = layers_.restore_ns;
    in->evictions = layers_.evictions;
    in->rehydrations = layers_.rehydrations;
    in->yields = layers_.yields;
    using sdj::obs::Op;
    const auto expect_equal = [&](const char* what, uint64_t traced,
                                  uint64_t counted) {
      if (traced != counted) {
        report->Fail(std::string(what) + ": " + std::to_string(traced) +
                     " traced vs " + std::to_string(counted) + " counted");
      }
    };
    expect_equal("evictions", in->lib.of(Op::kSessionEvict).count,
                 layers_.evictions);
    expect_equal("rehydrations", in->lib.of(Op::kSessionRehydrate).count,
                 layers_.rehydrations);
    expect_equal("checkpoints", checkpoint_events_, layers_.checkpoints);
    expect_equal("page reads", in->lib.of(Op::kPageRead).count,
                 layers_.page_reads);
    expect_equal("pops", in->lib.of(Op::kPop).count, log.stats.queue_pops);
  }

 private:
  const RunConfig cfg_;
  Instance inst_;
  double epsilon_ = 0.0;
  std::vector<Client> clients_;
  std::vector<Finished> finished_;
  LayerInputs layers_;
  uint64_t checkpoint_events_ = 0;
  uint64_t units_ = 0;
};

}  // namespace

SetupParams ServeEvictSetup(const RunConfig& cfg) {
  return {cfg.seed, kScale, TreeSpec{}};
}

std::unique_ptr<Workload> MakeServeEvict(const RunConfig& cfg, Instance inst) {
  return std::make_unique<ServeWorkload>(cfg, std::move(inst));
}

}  // namespace perfbench
