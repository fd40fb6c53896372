// The process-wide shard-count knob resolved from the environment
// (DESIGN.md §18), mirroring SDJ_KERNEL / SDJ_SCREEN: an options-struct
// `shards` of 0 means "unset — take the environment default", any value
// >= 1 is an explicit caller choice and always wins. check.sh sweeps whole
// test runs through SDJ_SHARDS=4 without per-call flags.
//
//   SDJ_SHARDS=<n>   default shard count for the Sharded* wrappers
//
// Unset, empty, or unparsable values fall back to 1 (serial), matching the
// historical defaults. The environment is read once per process (static
// cache, like code_screen::DefaultEnabled) so a run cannot change
// configuration midway.
#ifndef SDJOIN_CORE_ENV_KNOBS_H_
#define SDJOIN_CORE_ENV_KNOBS_H_

#include <cstdlib>

namespace sdj::env_knobs {

namespace internal {

inline int ParsePositive(const char* value, int fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 1 || parsed > 1 << 20) {
    return fallback;
  }
  return static_cast<int>(parsed);
}

}  // namespace internal

// Environment default for the shard count (SDJ_SHARDS; 1 when unset).
inline int DefaultShards() {
  static const int cached = internal::ParsePositive(
      std::getenv("SDJ_SHARDS"), /*fallback=*/1);
  return cached;
}

// Resolves an options-struct value: 0 = unset (environment default wins),
// >= 1 explicit. Negative values are treated as unset.
inline int ResolveShards(int requested) {
  return requested >= 1 ? requested : DefaultShards();
}

}  // namespace sdj::env_knobs

#endif  // SDJOIN_CORE_ENV_KNOBS_H_
