// Checksums for silent-corruption detection (xxHash64, seed 0).
//
// Every page store assembled by page_store.h carries an 8-byte trailer with
// the hash of the page payload, written on every physical write and verified
// on every physical read. A mismatch surfaces as IoStatus::kCorrupt instead
// of poisoning the join's distance bounds with garbage geometry. The
// snapshot store (core/snapshot.h) checksums each committed payload with the
// same function, and sdjoin_scrub re-verifies trailers offline.
//
// The hash is the published xxHash64 algorithm: four independent 64-bit
// lanes consume 32-byte stripes a word at a time, so it runs roughly an
// order of magnitude faster than a byte-serial hash on the multi-megabyte
// snapshots of the durable path. Words are loaded little-endian, so the
// value is the same on every platform.
#ifndef SDJOIN_STORAGE_CHECKSUM_H_
#define SDJOIN_STORAGE_CHECKSUM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace sdj::storage {

// Bytes reserved at the end of each physical page for the checksum trailer.
inline constexpr uint32_t kPageTrailerSize = 8;

namespace internal_xxh64 {

inline constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
inline constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
inline constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

template <typename T>
inline T LoadLe(const unsigned char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(T) == 8) v = __builtin_bswap64(v);
    if constexpr (sizeof(T) == 4) v = __builtin_bswap32(v);
  }
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  acc ^= Round(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace internal_xxh64

// xxHash64 of `n` bytes with seed 0. Deterministic across platforms.
inline uint64_t XxHash64(const void* data, size_t n) {
  using internal_xxh64::kPrime1, internal_xxh64::kPrime2,
      internal_xxh64::kPrime3, internal_xxh64::kPrime4,
      internal_xxh64::kPrime5, internal_xxh64::LoadLe,
      internal_xxh64::MergeRound, internal_xxh64::Round;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  uint64_t h;
  if (n >= 32) {
    uint64_t v1 = kPrime1 + kPrime2;
    uint64_t v2 = kPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = Round(v1, LoadLe<uint64_t>(p));
      v2 = Round(v2, LoadLe<uint64_t>(p + 8));
      v3 = Round(v3, LoadLe<uint64_t>(p + 16));
      v4 = Round(v4, LoadLe<uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = kPrime5;
  }
  h += static_cast<uint64_t>(n);
  for (; end - p >= 8; p += 8) {
    h ^= Round(0, LoadLe<uint64_t>(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h ^= static_cast<uint64_t>(LoadLe<uint32_t>(p)) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<uint64_t>(*p) * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace sdj::storage

#endif  // SDJOIN_STORAGE_CHECKSUM_H_
