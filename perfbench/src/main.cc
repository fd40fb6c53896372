// perfbench: the repository's seeded end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir> [--git-sha <sha>]
//   perfbench --selftest --out-dir <dir>
//   perfbench --setup-once --workload <name> --seed <n> --out-dir <dir>
//
// Generates the workload's inputs from the seed, runs it through the public
// API for the given query time, checks every output against the
// brute-force baselines, and prints one line per metric followed by a JSON
// result line. --trace 1 attaches the library's metrics and trace sink and
// reports per-layer metrics instead of end-to-end ones. Exit status 0 means
// every check passed. --setup-once builds the workload's inputs once and
// prints the set-up times (the benchmark runs itself this way to repeat the
// set-up in a fresh process).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "geometry/simd.h"
#include "workload.h"

extern char** environ;

namespace perfbench {
namespace {

struct WorkloadEntry {
  const char* name;
  SetupParams (*setup)(const RunConfig&);
  std::unique_ptr<Workload> (*make)(const RunConfig&, Instance);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"join_topk", JoinTopkSetup, MakeJoinTopk},
    {"bounded_quantized", BoundedQuantizedSetup, MakeBoundedQuantized},
    {"simultaneous_par", SimultaneousParSetup, MakeSimultaneousPar},
    {"serve_evict", ServeEvictSetup, MakeServeEvict},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <join_topk|bounded_quantized|"
               "simultaneous_par|serve_evict> --seed <n> --seconds <s> "
               "--trace <0|1> --out-dir <dir> [--git-sha <sha>]\n"
               "       perfbench --selftest --out-dir <dir>\n"
               "       perfbench --setup-once --workload <name> --seed <n> "
               "--out-dir <dir>\n");
  return 2;
}

void PrintStamp(const RunConfig& cfg, const std::string& git_sha) {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("# git_sha=%s kernel_isa=%s nproc=%u\n", git_sha.c_str(),
              sdj::simd::IsaName(sdj::simd::DetectIsa()),
              std::thread::hardware_concurrency());
  std::printf("# environment:");
  int seen = 0;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SDJ_", 4) == 0) {
      std::printf(" %s", *e);
      ++seen;
    }
  }
  std::printf("%s (engine options are set explicitly; these do not apply)\n",
              seen == 0 ? " no SDJ_* variables" : "");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string git_sha = "unknown";
  bool selftest = false;
  bool setup_once = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
      continue;
    }
    if (arg == "--setup-once") {
      setup_once = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      cfg.trace = value == "1";
    } else if (arg == "--out-dir") {
      cfg.out_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else {
      return Usage();
    }
  }
  if (cfg.out_dir.empty()) return Usage();
  if (selftest) return RunSelfTest(cfg.out_dir);

  const WorkloadEntry* entry = nullptr;
  for (const WorkloadEntry& e : kWorkloads) {
    if (cfg.workload == e.name) entry = &e;
  }
  if (entry == nullptr || !(cfg.seconds > 0.0)) return Usage();
  if (setup_once) return PrintOneSetUp(entry->setup(cfg));

  PrintStamp(cfg, git_sha);
  SetupFacts setup;
  setup.origin_ns = NowNs();
  Instance inst = SetUp(entry->setup(cfg), &setup.times, &setup.spans);
  setup.tree_pages =
      inst.water->pool().num_pages() + inst.roads->pool().num_pages();
  std::unique_ptr<Workload> workload = entry->make(cfg, std::move(inst));
  Report report;
  Drive(cfg, setup, workload.get(), &report);
  report.Print();
  return report.failed == 0 && report.failures().empty() ? 0 : 1;
}
