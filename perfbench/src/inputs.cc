#include "inputs.h"

#include <spawn.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <utility>

#include "data/datasets.h"

extern char** environ;

namespace perfbench {

namespace {

// Symmetry `v` of the extent: bit 0 mirrors x, bit 1 mirrors y, bit 2 swaps
// the axes. Distances between points are unchanged under all three.
void ApplySymmetry(int v, const sdj::Rect<2>& extent,
                   std::vector<sdj::Point<2>>* points) {
  if (v == 0) return;
  for (sdj::Point<2>& p : *points) {
    if (v & 1) p[0] = extent.hi[0] - (p[0] - extent.lo[0]);
    if (v & 2) p[1] = extent.hi[1] - (p[1] - extent.lo[1]);
    if (v & 4) std::swap(p[0], p[1]);
  }
}

std::unique_ptr<sdj::RTree<2>> BuildTree(const std::vector<sdj::Point<2>>& points,
                                         const TreeSpec& spec) {
  sdj::RTreeOptions options;
  options.page_size = 2048;  // fan-out 51 raw (the paper's 50), 125 quantized
  options.buffer_pages = spec.buffer_pages;
  options.encoding = spec.encoding;
  auto tree = std::make_unique<sdj::RTree<2>>(options);
  if (spec.bulk_load) {
    std::vector<sdj::RTree<2>::Entry> entries;
    entries.reserve(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      entries.push_back({sdj::Rect<2>::FromPoint(points[i]), i});
    }
    tree->BulkLoad(std::move(entries));
  } else {
    for (size_t i = 0; i < points.size(); ++i) {
      tree->Insert(sdj::Rect<2>::FromPoint(points[i]), i);
    }
  }
  return tree;
}

}  // namespace

Relations MakeRelations(uint64_t seed, double scale) {
  const sdj::Rect<2> extent = sdj::data::EvaluationExtent();
  Relations rel;
  rel.water = sdj::data::MakeWater(scale);
  rel.roads = sdj::data::MakeRoads(scale);
  const int symmetry =
      seed == kDefaultSeed ? 0 : static_cast<int>(SplitMix(seed).Next() % 8);
  ApplySymmetry(symmetry, extent, &rel.water);
  ApplySymmetry(symmetry, extent, &rel.roads);
  return rel;
}

Instance SetUp(const SetupParams& params, SetupTimes* times,
               std::vector<Span>* spans) {
  Instance inst;
  const uint64_t t0 = NowNs();
  inst.rel = MakeRelations(params.seed, params.scale);
  const uint64_t t1 = NowNs();
  inst.water = BuildTree(inst.rel.water, params.spec);
  inst.roads = BuildTree(inst.rel.roads, params.spec);
  const uint64_t t2 = NowNs();
  times->generate_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
  times->build_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
  times->total_s.push_back(static_cast<double>(t2 - t0) * 1e-9);
  if (spans != nullptr) {
    spans->push_back({"bench.generate", t0, t1 - t0, 0});
    spans->push_back({"bench.build", t1, t2 - t1, 0});
  }
  return inst;
}

int PrintOneSetUp(const SetupParams& params) {
  SetupTimes t;
  SetUp(params, &t, nullptr);
  std::printf("%.17g %.17g %.17g\n", t.total_s[0], t.generate_s[0],
              t.build_s[0]);
  return std::fflush(stdout) == 0 ? 0 : 1;
}

bool RepeatSetUp(const std::string& workload, uint64_t seed,
                 const std::string& out_dir, SetupTimes* times) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const std::string seed_arg = std::to_string(seed);
  const char* argv[] = {"perfbench", "--setup-once",     "--workload",
                        workload.c_str(), "--seed",      seed_arg.c_str(),
                        "--out-dir",  out_dir.c_str(), nullptr};
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    return false;
  }
  std::string out;
  char buf[256];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  double total = 0.0;
  double generate = 0.0;
  double build = 0.0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      std::sscanf(out.c_str(), "%lf %lf %lf", &total, &generate, &build) !=
          3) {
    return false;
  }
  times->total_s.push_back(total);
  times->generate_s.push_back(generate);
  times->build_s.push_back(build);
  return true;
}

}  // namespace perfbench
