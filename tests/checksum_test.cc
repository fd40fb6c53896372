// Tests for the page/snapshot checksum (storage/checksum.h): published
// xxHash64 answers, detection of every single-bit flip and every single
// 8-byte-word overwrite of a full page payload, and the checksum layer's
// page rules (torn half pages are corrupt; a zero trailer is valid only for
// an all-zero payload).
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/checksum.h"
#include "storage/fault_injection.h"
#include "storage/page_file.h"
#include "storage/page_store.h"

namespace sdj::storage {
namespace {

// Payload bytes of a 4 KB physical page.
constexpr uint32_t kPayload = 4096 - kPageTrailerSize;

uint64_t Hash(const std::string& s) { return XxHash64(s.data(), s.size()); }

std::vector<char> PatternPage(uint32_t seed) {
  std::vector<char> page(kPayload);
  uint64_t x = 0x9E3779B97F4A7C15ULL * (seed + 1);
  for (char& c : page) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x);
  }
  return page;
}

TEST(Checksum, PublishedXxHash64Answers) {
  EXPECT_EQ(Hash(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(Hash("abc"), 0x44BC2CF5AD770999ULL);
  // Published seed-0 vectors that reach the other paths: a 4-byte word
  // ("asdf"), 8-byte words, and 32-byte stripes followed by every kind of
  // tail (63 bytes = one stripe, three words, one 4-byte word, three bytes).
  EXPECT_EQ(Hash("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(Hash("asdf"), 0x415872F599CEA71EULL);
  EXPECT_EQ(Hash("abcdefghijklmnopqrstuvwxyz"), 0xCFE1F278FA89835CULL);
  EXPECT_EQ(Hash("The quick brown fox jumps over the lazy dog"),
            0x0B242D361FDA71BCULL);
  EXPECT_EQ(
      Hash("Call me Ishmael. Some years ago--never mind how long precisely-"),
      0x02A2E85470D6FD96ULL);
}

TEST(Checksum, EverySingleBitFlipOfAPagePayloadIsDetected) {
  std::vector<char> page = PatternPage(2);
  const uint64_t clean = XxHash64(page.data(), page.size());
  for (size_t byte = 0; byte < page.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      page[byte] = static_cast<char>(page[byte] ^ (1 << bit));
      ASSERT_NE(XxHash64(page.data(), page.size()), clean)
          << "byte " << byte << " bit " << bit;
      page[byte] = static_cast<char>(page[byte] ^ (1 << bit));
    }
  }
  EXPECT_EQ(XxHash64(page.data(), page.size()), clean);
}

TEST(Checksum, EverySingleWordOverwriteOfAPagePayloadIsDetected) {
  std::vector<char> page = PatternPage(3);
  const uint64_t clean = XxHash64(page.data(), page.size());
  for (size_t offset = 0; offset + 8 <= page.size(); offset += 8) {
    uint64_t original;
    std::memcpy(&original, page.data() + offset, 8);
    for (const uint64_t value :
         {~original, uint64_t{0}, original + 1, uint64_t{0x0123456789ABCDEF}}) {
      if (value == original) continue;
      std::memcpy(page.data() + offset, &value, 8);
      ASSERT_NE(XxHash64(page.data(), page.size()), clean)
          << "word at " << offset;
    }
    std::memcpy(page.data() + offset, &original, 8);
  }
}

TEST(Checksum, TornHalfPageIsCorrupt) {
  FaultInjectionOptions faults;
  faults.torn_write_at = 1;  // the second write tears
  PageStoreOptions options;
  options.page_size = kPayload;
  options.fault_injection = faults;
  auto store = CreatePageStore(options);
  ASSERT_NE(store, nullptr);
  const PageId written = store->Allocate();
  const PageId fresh = store->Allocate();
  std::vector<char> buffer = PatternPage(4);
  ASSERT_EQ(store->Write(written, buffer.data()), IoStatus::kOk);
  // Overwrite tears: the first half is new, the rest and the trailer old.
  std::vector<char> next = PatternPage(5);
  EXPECT_EQ(store->Write(written, next.data()), IoStatus::kFailed);
  EXPECT_EQ(store->Read(written, buffer.data()), IoStatus::kCorrupt);
  // A write that tears onto a fresh page leaves a zero trailer over a
  // payload that is no longer all zeros.
  FaultInjectionOptions tear_first;
  tear_first.torn_write_at = 0;
  options.fault_injection = tear_first;
  auto torn_fresh = CreatePageStore(options);
  ASSERT_NE(torn_fresh, nullptr);
  const PageId page = torn_fresh->Allocate();
  EXPECT_EQ(torn_fresh->Write(page, next.data()), IoStatus::kFailed);
  EXPECT_EQ(torn_fresh->Read(page, buffer.data()), IoStatus::kCorrupt);
  // The untouched fresh page of the first store still reads as zeros.
  ASSERT_EQ(store->Read(fresh, buffer.data()), IoStatus::kOk);
  EXPECT_EQ(buffer, std::vector<char>(kPayload, '\0'));
}

TEST(Checksum, ZeroTrailerIsValidOnlyForAnAllZeroPayload) {
  auto owned_inner = NewMemoryPageFile(kPayload + kPageTrailerSize);
  PageFile* inner = owned_inner.get();
  auto store = NewChecksummingPageFile(std::move(owned_inner));
  std::vector<char> buffer(kPayload);
  std::vector<char> physical(kPayload + kPageTrailerSize, '\0');

  // Allocated, never written: zero payload under a zero trailer.
  const PageId unwritten = store->Allocate();
  EXPECT_EQ(store->Read(unwritten, buffer.data()), IoStatus::kOk);
  EXPECT_EQ(buffer, std::vector<char>(kPayload, '\0'));

  // Written zeros carry the real checksum of zeros, which verifies too.
  const PageId zeros = store->Allocate();
  ASSERT_EQ(store->Write(zeros, buffer.data()), IoStatus::kOk);
  ASSERT_EQ(inner->Read(zeros, physical.data()), IoStatus::kOk);
  uint64_t trailer;
  std::memcpy(&trailer, physical.data() + kPayload, sizeof(trailer));
  EXPECT_EQ(trailer, XxHash64(buffer.data(), kPayload));
  EXPECT_NE(trailer, 0u);
  EXPECT_EQ(store->Read(zeros, buffer.data()), IoStatus::kOk);

  // One nonzero payload byte under a zero trailer is corrupt.
  const PageId dirty = store->Allocate();
  std::fill(physical.begin(), physical.end(), '\0');
  physical[kPayload / 2] = 1;
  ASSERT_EQ(inner->Write(dirty, physical.data()), IoStatus::kOk);
  EXPECT_EQ(store->Read(dirty, buffer.data()), IoStatus::kCorrupt);

  // A zero payload under a wrong nonzero trailer is corrupt as well.
  const PageId bad_trailer = store->Allocate();
  std::fill(physical.begin(), physical.end(), '\0');
  physical[kPayload] = 1;
  ASSERT_EQ(inner->Write(bad_trailer, physical.data()), IoStatus::kOk);
  EXPECT_EQ(store->Read(bad_trailer, buffer.data()), IoStatus::kCorrupt);
}

}  // namespace
}  // namespace sdj::storage
