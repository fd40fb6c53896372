// Output checks against the brute-force baselines in src/baseline/. Every
// engine stream is compared outside the timed region: distance sequences
// must match exactly, and pairs must match as multisets within each group
// of equal distances (engines and baselines may order ties differently).
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "baseline/nn_semi_join.h"
#include "baseline/within_join.h"
#include "geometry/distance.h"
#include "rtree/rtree.h"

namespace perfbench {

// One reported result, reduced to what the checks compare.
struct StreamItem {
  uint64_t id1 = 0;
  uint64_t id2 = 0;
  double distance = 0.0;
  bool operator==(const StreamItem&) const = default;
};

namespace oracle_internal {

inline std::vector<std::pair<uint64_t, uint64_t>> Ids(
    const std::vector<StreamItem>& v, size_t begin, size_t end) {
  std::vector<std::pair<uint64_t, uint64_t>> ids;
  for (size_t i = begin; i < end; ++i) ids.emplace_back(v[i].id1, v[i].id2);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace oracle_internal

// Checks `got` against the oracle stream `want` (both by non-decreasing
// distance). With `prefix`, the engine stopped after got.size() results, so
// only that many leading oracle results are due and the last tie group of
// `got` may be any part of the oracle's group at that distance. Returns an
// empty string on a match, else what differs.
inline std::string CompareByTieGroups(const std::vector<StreamItem>& got,
                                      const std::vector<StreamItem>& want,
                                      bool prefix) {
  if (prefix ? want.size() < got.size() : want.size() != got.size()) {
    return "result count " + std::to_string(got.size()) + " vs oracle " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].distance != want[i].distance) {
      return "distance #" + std::to_string(i) + " differs from the oracle";
    }
  }
  for (size_t i = 0; i < got.size();) {
    size_t j = i;
    while (j < got.size() && got[j].distance == got[i].distance) ++j;
    size_t k = j;
    while (k < want.size() && want[k].distance == got[i].distance) ++k;
    const auto mine = oracle_internal::Ids(got, i, j);
    const auto theirs = oracle_internal::Ids(want, i, k);
    const bool ok = (j == got.size() && prefix)
                        ? std::includes(theirs.begin(), theirs.end(),
                                        mine.begin(), mine.end())
                        : mine == theirs;
    if (!ok) return "pairs at tie group #" + std::to_string(i) + " differ";
    i = j;
  }
  return "";
}

// Exact stream identity (serving sessions against an uninterrupted engine).
inline std::string CompareExact(const std::vector<StreamItem>& got,
                                const std::vector<StreamItem>& want) {
  if (got.size() != want.size()) {
    return "result count " + std::to_string(got.size()) + " vs " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == want[i])) return "result #" + std::to_string(i) + " differs";
  }
  return "";
}

// Every pair within `eps`, sorted by distance (baseline::WithinJoinSorted).
inline std::vector<StreamItem> WithinOracle(const sdj::RTree<2>& a,
                                            const sdj::RTree<2>& b, double eps,
                                            sdj::Metric metric) {
  std::vector<StreamItem> out;
  for (const auto& r : sdj::baseline::WithinJoinSorted(a, b, eps, metric)) {
    out.push_back({r.id1, r.id2, r.distance});
  }
  return out;
}

// The distance semi-join restricted to distance <= eps: for each first
// object with a partner within eps, its nearest distance, with every
// partner at that distance (a reported partner may be any of them).
struct SemiOracle {
  std::vector<StreamItem> nearest;  // id2 zeroed; sorted by distance
  std::unordered_map<uint64_t, std::vector<uint64_t>> partners;
};

inline SemiOracle SemiWithinOracle(const sdj::RTree<2>& a,
                                   const sdj::RTree<2>& b, double eps,
                                   sdj::Metric metric) {
  std::unordered_map<uint64_t, double> best;
  SemiOracle o;
  sdj::baseline::WithinJoin(
      a, b, eps, metric,
      [&](sdj::ObjectId id1, sdj::ObjectId id2, const sdj::Rect<2>&,
          const sdj::Rect<2>&, double d) {
        auto [it, inserted] = best.emplace(id1, d);
        if (!inserted && d > it->second) return;
        std::vector<uint64_t>& ids = o.partners[id1];
        if (!inserted && d < it->second) ids.clear();
        it->second = d;
        ids.push_back(id2);
      });
  for (const auto& [id1, d] : best) o.nearest.push_back({id1, 0, d});
  std::sort(o.nearest.begin(), o.nearest.end(),
            [](const StreamItem& x, const StreamItem& y) {
              return x.distance < y.distance ||
                     (x.distance == y.distance && x.id1 < y.id1);
            });
  return o;
}

inline std::string CompareSemi(const std::vector<StreamItem>& got,
                               const SemiOracle& want) {
  std::vector<StreamItem> firsts = got;
  for (StreamItem& item : firsts) item.id2 = 0;
  std::string diff = CompareByTieGroups(firsts, want.nearest, false);
  if (!diff.empty()) return diff;
  for (const StreamItem& item : got) {
    const auto it = want.partners.find(item.id1);
    if (it == want.partners.end() ||
        std::find(it->second.begin(), it->second.end(), item.id2) ==
            it->second.end()) {
      return "object " + std::to_string(item.id1) + " got a non-nearest partner";
    }
  }
  return "";
}

// The complete semi-join by one nearest-neighbour search per first object
// (baseline::NnSemiJoin; point objects only).
inline std::vector<StreamItem> NnSemiOracle(const sdj::RTree<2>& a,
                                            const sdj::RTree<2>& b,
                                            sdj::Metric metric) {
  std::vector<StreamItem> out;
  for (const auto& r : sdj::baseline::NnSemiJoin(a, b, metric)) {
    out.push_back({r.id1, r.id2, r.distance});
  }
  return out;
}

// The k nearest of `objects` to `query` within `eps`, by brute-force scan
// (id2 carries the object id, as the engine-side stream does).
inline std::vector<StreamItem> KnnOracle(
    const std::vector<std::pair<sdj::Rect<2>, sdj::ObjectId>>& objects,
    const sdj::Point<2>& query, size_t k, double eps, sdj::Metric metric) {
  std::vector<StreamItem> hits;
  for (const auto& [rect, id] : objects) {
    const double d = sdj::MinDist(query, rect, metric);
    if (d <= eps) hits.push_back({0, id, d});
  }
  std::sort(hits.begin(), hits.end(),
            [](const StreamItem& x, const StreamItem& y) {
              return x.distance < y.distance;
            });
  // Keep whole tie groups past k: any k of them is a correct answer.
  size_t keep = std::min(k, hits.size());
  while (keep > 0 && keep < hits.size() &&
         hits[keep].distance == hits[keep - 1].distance) {
    ++keep;
  }
  hits.resize(keep);
  return hits;
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
