// Seeded inputs: the Water/Roads relations and the R-trees built over them.
#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "rtree/rtree.h"

namespace perfbench {

// The seed whose inputs are exactly data::MakeWater / data::MakeRoads, so
// its numbers line up with the repository's own experiments.
inline constexpr uint64_t kDefaultSeed = 1;

struct Relations {
  std::vector<sdj::Point<2>> water;
  std::vector<sdj::Point<2>> roads;
};

// Water and Roads at `scale` of the paper's sizes: data::MakeWater /
// data::MakeRoads. The seed picks one of the eight
// symmetries of the square extent (identity for kDefaultSeed) and applies it
// to both relations: every seed gets its own point sets, while the join
// costs stay those of the paper-shaped instance. Drawing fresh cluster
// centres per seed instead moves the first-pair cost by 3x between seeds,
// which would hide any regression a bound of a few percent should catch.
Relations MakeRelations(uint64_t seed, double scale);

struct TreeSpec {
  sdj::NodeEncoding encoding = sdj::NodeEncoding::kRaw;
  uint32_t buffer_pages = 128;  // the paper's 256 KB of 2 KB pages
  bool bulk_load = false;       // STR bulk load instead of R* insertion
};

// A built instance: both relations and a tree over each (object id = index).
struct Instance {
  Relations rel;
  std::unique_ptr<sdj::RTree<2>> water;
  std::unique_ptr<sdj::RTree<2>> roads;
};

// Set-up timings, one entry per repetition.
struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> generate_s;
  std::vector<double> build_s;
};

// What a workload's set-up generates and builds.
struct SetupParams {
  uint64_t seed = kDefaultSeed;
  double scale = 1.0;
  TreeSpec spec;
};

// Generates the relations and builds both trees from scratch, timing both
// steps into `times`, and appends one generate and one build span to `spans`
// (if not null).
Instance SetUp(const SetupParams& params, SetupTimes* times,
               std::vector<Span>* spans);

// One more timed set-up of `workload`'s inputs, in a fresh process: runs
// this binary again as `--setup-once`, reads the three times it prints (see
// PrintOneSetUp) and waits for it to exit. Drive() calls it between units,
// so the median set-up time samples the machine over the whole run rather
// than its first seconds, and the instances it builds never enter the
// measured process's heap or its peak RSS. Returns false, recording
// nothing, if the child failed.
bool RepeatSetUp(const std::string& workload, uint64_t seed,
                 const std::string& out_dir, SetupTimes* times);

// The child's side of RepeatSetUp: one SetUp, then its total, generate and
// build seconds on one line of stdout. Returns the exit status.
int PrintOneSetUp(const SetupParams& params);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
