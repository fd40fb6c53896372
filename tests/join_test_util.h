// Shared helpers for the join/semi-join test suites: tree construction from
// point sets, brute-force reference results, the one JoinStats comparator,
// and a reference hash for pinning serialized bytes.
#ifndef SDJOIN_TESTS_JOIN_TEST_UTIL_H_
#define SDJOIN_TESTS_JOIN_TEST_UTIL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/join_stats.h"
#include "geometry/distance.h"
#include "geometry/metrics.h"
#include "geometry/point.h"
#include "rtree/rtree.h"

namespace sdj::test {

// Builds a small-node R-tree over `points` with object ids = indices.
inline RTree<2> BuildPointTree(const std::vector<Point<2>>& points,
                               uint32_t page_size = 512,
                               bool bulk = true,
                               NodeEncoding encoding = NodeEncoding::kRaw) {
  RTreeOptions options;
  options.page_size = page_size;
  options.encoding = encoding;
  RTree<2> tree(options);
  if (bulk) {
    std::vector<RTree<2>::Entry> entries;
    entries.reserve(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      entries.push_back({Rect<2>::FromPoint(points[i]), i});
    }
    tree.BulkLoad(std::move(entries));
  } else {
    for (size_t i = 0; i < points.size(); ++i) {
      tree.Insert(Rect<2>::FromPoint(points[i]), i);
    }
  }
  return tree;
}

struct RefPair {
  double distance;
  size_t id1;
  size_t id2;
};

// All |a| x |b| pairs sorted by distance (ascending).
inline std::vector<RefPair> BruteForcePairs(const std::vector<Point<2>>& a,
                                            const std::vector<Point<2>>& b,
                                            Metric metric = Metric::kEuclidean) {
  std::vector<RefPair> pairs;
  pairs.reserve(a.size() * b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      pairs.push_back({Dist(a[i], b[j], metric), i, j});
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const RefPair& x, const RefPair& y) {
    return x.distance < y.distance;
  });
  return pairs;
}

// For each a[i], the distance to its nearest b (the semi-join reference),
// sorted ascending.
inline std::vector<double> BruteForceSemiDistances(
    const std::vector<Point<2>>& a, const std::vector<Point<2>>& b,
    Metric metric = Metric::kEuclidean) {
  std::vector<double> nearest(a.size(),
                              std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < a.size(); ++i) {
    for (const auto& q : b) {
      nearest[i] = std::min(nearest[i], Dist(a[i], q, metric));
    }
  }
  std::sort(nearest.begin(), nearest.end());
  return nearest;
}

// Per-object nearest distance (unsorted, indexed by a's ids).
inline std::vector<double> BruteForceNearestByObject(
    const std::vector<Point<2>>& a, const std::vector<Point<2>>& b,
    Metric metric = Metric::kEuclidean) {
  std::vector<double> nearest(a.size(),
                              std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < a.size(); ++i) {
    for (const auto& q : b) {
      nearest[i] = std::min(nearest[i], Dist(a[i], q, metric));
    }
  }
  return nearest;
}

// Expects every JoinStats counter of `a` and `b` to match, walking
// kJoinStatFields, except the counters named in `except` (each name must
// be a real field). Call sites name their exclusions: parallel_expansions
// across thread counts, max_queue_size for sharded runs.
inline void ExpectStatsEqual(const JoinStats& a, const JoinStats& b,
                             std::initializer_list<std::string_view> except =
                                 {}) {
  for (const std::string_view name : except) {
    EXPECT_TRUE(std::any_of(std::begin(kJoinStatFields),
                            std::end(kJoinStatFields),
                            [&](const JoinStatField& f) {
                              return name == f.name;
                            }))
        << "unknown JoinStats field " << name;
  }
  for (const JoinStatField& f : kJoinStatFields) {
    if (std::find(except.begin(), except.end(), f.name) != except.end()) {
      continue;
    }
    EXPECT_EQ(a.*f.member, b.*f.member) << "JoinStats::" << f.name;
  }
}

// 64-bit FNV-1a, a byte-serial hash kept only as an independent reference:
// tests/snapshot_format_test.cc pins SaveState bytes by their FNV-1a, so a
// change to the library's own checksum (storage/checksum.h) cannot re-pin
// the wire format by accident.
inline uint64_t Fnv1a64(const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace sdj::test

#endif  // SDJOIN_TESTS_JOIN_TEST_UTIL_H_
