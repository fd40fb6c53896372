// Durable snapshots for the incremental join iterators (DESIGN.md §11).
//
// Two pieces:
//
//   * Blob / BlobReader — a flat, little-endian, fail-soft serialization
//     buffer. Readers never abort on malformed input (a snapshot file is
//     external data): every Get* past the end returns zero and latches
//     ok() == false, so restore paths check one flag at the end.
//
//   * SnapshotStore — shadow-paged snapshot persistence through the PR 1
//     page-store stack (checksummed pages, optional fault injection).
//     Layout: the first S pages (S = num_slots, default 2) are header slots
//     that rotate by epoch modulo S; the payload of epoch e lives on pages
//     S + S*i + (e % S), so consecutive snapshots interleave and the file
//     stops growing once the payload size stabilizes. A snapshot commits by
//     (1) writing + syncing the payload pages and (2) writing + syncing the
//     slot header, which carries the payload's length and xxHash64 checksum.
//     A torn write or bit flip anywhere — caught by the per-page checksum
//     trailer or by the payload checksum — invalidates only that slot;
//     ReadLatest then falls back past every invalid slot to the newest
//     surviving snapshot (with S slots, up to S-1 consecutive torn or
//     corrupt epochs) instead of failing.
#ifndef SDJOIN_CORE_SNAPSHOT_H_
#define SDJOIN_CORE_SNAPSHOT_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/pair_entry.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/checksum.h"
#include "storage/fault_injection.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "storage/page_store.h"
#include "util/check.h"

namespace sdj::snapshot {

// Append-only little-endian serialization buffer.
class Blob {
 public:
  void PutU8(uint8_t v) { PutBytes(&v, 1); }
  void PutU16(uint16_t v) { PutBytes(&v, 2); }
  void PutU32(uint32_t v) { PutBytes(&v, 4); }
  void PutU64(uint64_t v) { PutBytes(&v, 8); }
  void PutI16(int16_t v) { PutBytes(&v, 2); }
  void PutDouble(double v) { PutBytes(&v, 8); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutBytes(const void* src, size_t n) {
    const char* p = static_cast<const char*>(src);
    data_.insert(data_.end(), p, p + n);
  }
  void Append(const Blob& other) { PutBytes(other.data(), other.size()); }
  // Grows capacity to at least `n` bytes in total (no effect on contents).
  void Reserve(size_t n) { data_.reserve(n); }

  const char* data() const { return data_.data(); }
  size_t size() const { return data_.size(); }

 private:
  std::vector<char> data_;
};

// Fail-soft reader over a serialized blob. Reads past the end return zero
// and latch ok() == false; callers validate once, at the end.
class BlobReader {
 public:
  BlobReader(const char* data, size_t size) : data_(data), size_(size) {}
  explicit BlobReader(const std::string& s) : BlobReader(s.data(), s.size()) {}

  uint8_t GetU8() { return Get<uint8_t>(); }
  uint16_t GetU16() { return Get<uint16_t>(); }
  uint32_t GetU32() { return Get<uint32_t>(); }
  uint64_t GetU64() { return Get<uint64_t>(); }
  int16_t GetI16() { return Get<int16_t>(); }
  double GetDouble() { return Get<double>(); }
  bool GetBool() { return GetU8() != 0; }

  bool GetBytes(void* dst, size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      std::memset(dst, 0, n);
      return false;
    }
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  // Consumes the next expected.size() bytes if they equal `expected` byte
  // for byte; otherwise consumes nothing and returns false. Restore paths
  // check a fingerprint by re-writing the expected one into a scratch Blob
  // and matching it here, so Save and Restore cannot disagree on its fields
  // (doubles compare by bit pattern: -0.0 and +0.0 differ).
  bool Expect(const Blob& expected) {
    if (!ok_ || size_ - pos_ < expected.size() ||
        std::memcmp(data_ + pos_, expected.data(), expected.size()) != 0) {
      return false;
    }
    pos_ += expected.size();
    return true;
  }

  // A length prefix about to drive an allocation must be plausible: it can
  // never exceed the bytes remaining in the blob divided by the per-element
  // size. Latches ok() == false and returns 0 when it does.
  uint64_t GetCount(size_t element_size) {
    const uint64_t n = GetU64();
    SDJ_DCHECK(element_size > 0);
    if (!ok_ || n > (size_ - pos_) / element_size) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  bool ok() const { return ok_; }
  size_t remaining() const { return ok_ ? size_ - pos_ : 0; }

 private:
  template <typename T>
  T Get() {
    T v{};
    GetBytes(&v, sizeof(T));
    return v;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---- PairEntry serialization (the queue's wire format) ----
//
// One entry is a fixed-width record: key, distance, item1, item2, seq,
// category, depth, where an item is its lo coords, hi coords, ref, level and
// kind — every field at a fixed offset, in memory byte order, unpadded.
// WriteEntry packs the record on the stack and appends it with one call;
// ReadEntry consumes it with one call and decodes at the same offsets.

// Serialized size of one JoinItem / PairEntry (also the GetCount
// plausibility bound for entry counts).
template <int Dim>
constexpr size_t ItemWireSize() {
  return 16 * Dim + 8 + 2 + 1;
}
template <int Dim>
constexpr size_t EntryWireSize() {
  return 2 * 8 + 2 * ItemWireSize<Dim>() + 8 + 1 + 2;
}

namespace internal_wire {

template <typename T>
char* Pack(char* dst, const T& v) {
  std::memcpy(dst, &v, sizeof(T));
  return dst + sizeof(T);
}

template <typename T>
const char* Unpack(const char* src, T* v) {
  std::memcpy(v, src, sizeof(T));
  return src + sizeof(T);
}

template <int Dim>
char* PackItem(char* dst, const JoinItem<Dim>& item) {
  dst = Pack(dst, item.rect.lo.coords);
  dst = Pack(dst, item.rect.hi.coords);
  dst = Pack(dst, item.ref);
  dst = Pack(dst, item.level);
  return Pack(dst, static_cast<uint8_t>(item.kind));
}

// Null when the kind byte names no JoinItemKind.
template <int Dim>
const char* UnpackItem(const char* src, JoinItem<Dim>* item) {
  src = Unpack(src, &item->rect.lo.coords);
  src = Unpack(src, &item->rect.hi.coords);
  src = Unpack(src, &item->ref);
  src = Unpack(src, &item->level);
  uint8_t kind;
  src = Unpack(src, &kind);
  if (kind > static_cast<uint8_t>(JoinItemKind::kObject)) return nullptr;
  item->kind = static_cast<JoinItemKind>(kind);
  return src;
}

}  // namespace internal_wire

template <int Dim>
void WriteEntry(Blob* out, const PairEntry<Dim>& e) {
  using internal_wire::Pack;
  char record[EntryWireSize<Dim>()];
  char* p = Pack(record, e.key);
  p = Pack(p, e.distance);
  p = internal_wire::PackItem(p, e.item1);
  p = internal_wire::PackItem(p, e.item2);
  p = Pack(p, e.seq);
  p = Pack(p, e.category);
  p = Pack(p, e.depth);
  SDJ_DCHECK(p == record + sizeof(record));
  out->PutBytes(record, sizeof(record));
}

template <int Dim>
bool ReadEntry(BlobReader* in, PairEntry<Dim>* e) {
  using internal_wire::Unpack;
  char record[EntryWireSize<Dim>()];
  if (!in->GetBytes(record, sizeof(record))) return false;
  const char* p = Unpack(record, &e->key);
  p = Unpack(p, &e->distance);
  p = internal_wire::UnpackItem(p, &e->item1);
  if (p == nullptr) return false;
  p = internal_wire::UnpackItem(p, &e->item2);
  if (p == nullptr) return false;
  p = Unpack(p, &e->seq);
  p = Unpack(p, &e->category);
  Unpack(p, &e->depth);
  return true;
}

// ---- SnapshotStore ----

struct SnapshotStoreOptions {
  // If non-empty, snapshots live in this file (and survive the process);
  // otherwise in memory (in-process suspend/resume and tests).
  std::string path;
  // Logical page size of the snapshot file.
  uint32_t page_size = 4096;
  // If set, faults are injected under the checksum layer (testing).
  std::optional<storage::FaultInjectionOptions> fault_injection;
  // If set, the store simulates power loss at one exact write/sync op
  // (testing — see storage::CrashPointPageFile).
  std::optional<storage::CrashPointOptions> crash_point;
  // Bounded-retry policy for transient page faults.
  storage::RetryPolicy retry;
  // Optional observability sink (DESIGN.md §12): records the latency of
  // each shadow-paged snapshot commit, of its two file syncs, and of each
  // verified snapshot read. Null = disabled.
  obs::Metrics* metrics = nullptr;
  // Header/payload slots (>= 2). S slots keep the S newest epochs on disk,
  // so resume survives up to S-1 consecutive torn or corrupt commits. Like
  // page_size, this is part of the file layout: reopen an existing snapshot
  // file with the slot count it was created with.
  uint32_t num_slots = 2;
};

// Read-side counters of one SnapshotStore.
struct SnapshotStoreStats {
  uint64_t snapshots_written = 0;
  // WriteSnapshot calls that failed; the previous snapshot stays committed.
  uint64_t write_failures = 0;
  // Header slots that existed but failed validation during ReadLatest —
  // each one is a snapshot that was skipped in favor of an older (or no)
  // snapshot.
  uint64_t invalid_slots_seen = 0;
};

// Classification of one snapshot header slot (ClassifySlots). The scrub
// layer (storage/scrub.h, tools/sdjoin_scrub) reports these; the serving
// layer's rehydration self-heal routes around torn/corrupt slots.
enum class SlotStatus : uint8_t {
  kEmpty = 0,  // all-zero header: nothing was ever committed here
  kCommitted,  // fully verified, newest epoch — the resume point
  kStale,      // fully verified, but older than the committed slot
  kTorn,       // header or payload pages unreadable (failed checksum / I/O)
  kCorrupt,    // readable but inconsistent: bad magic/version, payload
               // checksum mismatch, or header naming pages the file lacks
};

inline const char* SlotStatusName(SlotStatus status) {
  switch (status) {
    case SlotStatus::kEmpty:     return "empty";
    case SlotStatus::kCommitted: return "committed";
    case SlotStatus::kStale:     return "stale";
    case SlotStatus::kTorn:      return "torn";
    case SlotStatus::kCorrupt:   return "corrupt";
  }
  return "unknown";
}

// Shadow-paged snapshot file. See file comment for the layout and commit
// protocol. Not thread-safe (one cursor owns one store).
class SnapshotStore {
 public:
  // One header slot's scrub verdict (see SlotStatus). epoch/length/
  // payload_pages are meaningful only when the header itself was readable
  // (kCommitted, kStale, kCorrupt-with-readable-header).
  struct SlotReport {
    uint32_t slot = 0;
    SlotStatus status = SlotStatus::kEmpty;
    uint64_t epoch = 0;
    uint64_t length = 0;
    uint64_t payload_pages = 0;
  };

  // Creates the store (or opens an existing snapshot file, recovering a
  // truncated tail from a crashed writer). Returns null only if the backing
  // file can neither be opened nor created.
  static std::unique_ptr<SnapshotStore> Open(
      const SnapshotStoreOptions& options) {
    storage::FaultInjectingPageFile* injector = nullptr;
    storage::CrashPointPageFile* crash = nullptr;
    std::unique_ptr<storage::PageFile> file;
    const storage::PageStoreOptions store_options{
        options.page_size, options.path, options.fault_injection,
        options.crash_point};
    if (!options.path.empty()) {
      file = storage::OpenPageStore(store_options,
                                    /*recover_truncated_tail=*/true,
                                    &injector, &crash);
    }
    if (file == nullptr) {
      file = storage::CreatePageStore(store_options, &injector, &crash);
    }
    if (file == nullptr) return nullptr;
    auto store = std::unique_ptr<SnapshotStore>(
        new SnapshotStore(options, std::move(file), injector));
    store->crash_ = crash;
    store->InitHeaders();
    return store;
  }

  // Commits `payload` as the next snapshot epoch. On any unrecoverable
  // write failure the slot under construction is abandoned and the previous
  // snapshot remains the committed one; returns false.
  bool WriteSnapshot(const Blob& payload) {
    // Whole-commit latency: payload pages + sync + header + sync.
    obs::PhaseTimer timer(metrics_, obs::Op::kSnapshotCommit);
    const uint64_t epoch = last_epoch_ + 1;
    const uint32_t slot = static_cast<uint32_t>(epoch % num_slots_);
    const uint64_t length = payload.size();
    const uint64_t npages = (length + page_size_ - 1) / page_size_;
    if (!EnsurePages(num_slots_ + num_slots_ * npages)) {
      ++stats_.write_failures;
      return false;
    }
    std::vector<char> buffer(page_size_);
    for (uint64_t i = 0; i < npages; ++i) {
      const size_t offset = i * page_size_;
      const size_t chunk =
          std::min<size_t>(page_size_, length - offset);
      std::memcpy(buffer.data(), payload.data() + offset, chunk);
      std::memset(buffer.data() + chunk, 0, page_size_ - chunk);
      if (!WriteWithRetry(PayloadPage(i, slot), buffer.data())) {
        ++stats_.write_failures;
        return false;
      }
    }
    if (!Sync()) {
      ++stats_.write_failures;
      return false;
    }
    // Commit point: the slot header names the payload.
    std::memset(buffer.data(), 0, page_size_);
    PackHeader(buffer.data(), epoch, length,
               storage::XxHash64(payload.data(), payload.size()));
    if (!WriteWithRetry(slot, buffer.data()) || !Sync()) {
      ++stats_.write_failures;
      return false;
    }
    last_epoch_ = epoch;
    ++stats_.snapshots_written;
    return true;
  }

  // Loads the newest valid snapshot into *payload (and its epoch into
  // *epoch, when non-null). A slot whose header or payload fails validation
  // is skipped — counted in invalid_slots_seen — and the newest surviving
  // slot is used instead. Returns false if no valid snapshot exists.
  bool ReadLatest(std::string* payload, uint64_t* epoch = nullptr) {
    obs::PhaseTimer timer(metrics_, obs::Op::kSnapshotRead);
    std::string best_payload;
    uint64_t best_epoch = 0;
    bool found = false;
    for (uint32_t slot = 0; slot < num_slots_; ++slot) {
      std::string slot_payload;
      SlotReport report;
      switch (ProbeSlot(slot, &slot_payload, &report,
                        /*consume_corrupt_at_open=*/true)) {
        case SlotState::kEmpty:
          break;
        case SlotState::kTorn:
        case SlotState::kCorrupt:
          ++stats_.invalid_slots_seen;
          break;
        case SlotState::kValid:
          if (!found || report.epoch > best_epoch) {
            best_epoch = report.epoch;
            best_payload = std::move(slot_payload);
          }
          found = true;
          break;
      }
    }
    if (!found) return false;
    // Future snapshots must never overwrite the slot we are about to resume
    // from — even when another slot claims a newer epoch whose payload
    // failed validation (its epoch is forgotten here, so subsequent writes
    // rotate through the invalid slots first).
    last_epoch_ = best_epoch;
    *payload = std::move(best_payload);
    if (epoch != nullptr) *epoch = best_epoch;
    return true;
  }

  // Classifies every header slot (scrub view — DESIGN.md §16). Read-only:
  // no healing, no stats_ changes, no effect on which slot a later
  // ReadLatest picks. Of the fully-verified slots, the newest epoch is
  // kCommitted and the rest kStale.
  std::vector<SlotReport> ClassifySlots() {
    std::vector<SlotReport> reports(num_slots_);
    uint32_t best_slot = num_slots_;
    uint64_t best_epoch = 0;
    for (uint32_t slot = 0; slot < num_slots_; ++slot) {
      std::string payload;
      reports[slot].slot = slot;
      switch (ProbeSlot(slot, &payload, &reports[slot],
                        /*consume_corrupt_at_open=*/false)) {
        case SlotState::kEmpty:
          reports[slot].status = SlotStatus::kEmpty;
          break;
        case SlotState::kTorn:
          reports[slot].status = SlotStatus::kTorn;
          break;
        case SlotState::kCorrupt:
          reports[slot].status = SlotStatus::kCorrupt;
          break;
        case SlotState::kValid:
          reports[slot].status = SlotStatus::kStale;
          if (best_slot == num_slots_ || reports[slot].epoch > best_epoch) {
            best_slot = slot;
            best_epoch = reports[slot].epoch;
          }
          break;
      }
    }
    if (best_slot != num_slots_) {
      reports[best_slot].status = SlotStatus::kCommitted;
    }
    return reports;
  }

  // Scrub-and-repair: classifies every slot, then quarantines torn and
  // corrupt headers by zeroing them — the slot becomes cleanly empty, so
  // future commits rotate through it instead of tripping over garbage.
  // Committed and stale slots are never touched. `healed`, when non-null,
  // receives the number of slots quarantined. Returns the (pre-repair)
  // classification.
  std::vector<SlotReport> ScrubSlots(uint64_t* healed = nullptr) {
    std::vector<SlotReport> reports = ClassifySlots();
    uint64_t fixed = 0;
    std::vector<char> zero(page_size_, 0);
    for (const SlotReport& report : reports) {
      if (report.status != SlotStatus::kTorn &&
          report.status != SlotStatus::kCorrupt) {
        continue;
      }
      if (WriteWithRetry(report.slot, zero.data())) {
        corrupt_at_open_[report.slot] = false;
        ++fixed;
      }
    }
    if (healed != nullptr) *healed = fixed;
    return reports;
  }

  // Reads one specific slot, verifying it fully. On success the slot is
  // adopted as the resume point: last_epoch_ becomes its epoch, so the next
  // WriteSnapshot continues from it (overwriting any newer — necessarily
  // rejected — epochs as their slots rotate around). This is the serving
  // layer's fall-back-past-the-newest-snapshot path; ReadLatest remains the
  // default. False if the slot is empty, torn, or corrupt (not counted in
  // invalid_slots_seen — the caller is inspecting, not resuming blind).
  bool ReadSlotPayload(uint32_t slot, std::string* payload,
                       uint64_t* epoch = nullptr) {
    if (slot >= num_slots_) return false;
    obs::PhaseTimer timer(metrics_, obs::Op::kSnapshotRead);
    SlotReport report;
    if (ProbeSlot(slot, payload, &report,
                  /*consume_corrupt_at_open=*/false) != SlotState::kValid) {
      return false;
    }
    last_epoch_ = report.epoch;
    if (epoch != nullptr) *epoch = report.epoch;
    return true;
  }

  // File pages the committed and stale slots actually need (header slots
  // included). Pages beyond this are orphaned tails from abandoned larger
  // commits; sdjoin_scrub --repair truncates them (storage/scrub.h).
  uint64_t NeededPages() {
    uint64_t needed = num_slots_;
    for (const SlotReport& report : ClassifySlots()) {
      if (report.status != SlotStatus::kCommitted &&
          report.status != SlotStatus::kStale) {
        continue;
      }
      if (report.payload_pages == 0) continue;
      needed = std::max<uint64_t>(
          needed, PayloadPage(report.payload_pages - 1, report.slot) + 1);
    }
    return needed;
  }

  const SnapshotStoreStats& stats() const { return stats_; }
  uint64_t last_epoch() const { return last_epoch_; }
  uint32_t num_slots() const { return num_slots_; }
  // Allocated pages of the backing store (>= NeededPages()).
  uint64_t file_pages() const { return file_->num_pages(); }

  // Fault-injection layer, when configured; null otherwise.
  storage::FaultInjectingPageFile* injector() const { return injector_; }
  // Crash-point layer, when configured; null otherwise.
  storage::CrashPointPageFile* crash_point() const { return crash_; }

 private:
  static constexpr uint64_t kMagic = 0x53444A534E415031ULL;  // "SDJSNAP1"
  // Version 2: page trailers and the payload checksum are xxHash64
  // (storage/checksum.h). Files written under version 1 (FNV-1a) fail their
  // page checksums and are refused like any other corrupt slot.
  static constexpr uint32_t kVersion = 2;
  static constexpr size_t kHeaderBytes = 40;

  // kTorn = pages unreadable; kCorrupt = readable but inconsistent. Both
  // are "invalid" to ReadLatest; the scrub report keeps them apart.
  enum class SlotState { kEmpty, kValid, kTorn, kCorrupt };

  SnapshotStore(const SnapshotStoreOptions& options,
                std::unique_ptr<storage::PageFile> file,
                storage::FaultInjectingPageFile* injector)
      : page_size_(options.page_size),
        num_slots_(options.num_slots),
        retry_(options.retry),
        metrics_(options.metrics),
        file_(std::move(file)),
        injector_(injector),
        corrupt_at_open_(num_slots_, false) {
    SDJ_CHECK(page_size_ >= kHeaderBytes);
    SDJ_CHECK(num_slots_ >= 2);
  }

  storage::PageId PayloadPage(uint64_t index, uint32_t slot) const {
    return static_cast<storage::PageId>(num_slots_ + num_slots_ * index +
                                        slot);
  }

  static void PackHeader(char* dst, uint64_t epoch, uint64_t length,
                         uint64_t checksum) {
    std::memcpy(dst, &kMagic, 8);
    const uint32_t version = kVersion;
    std::memcpy(dst + 8, &version, 4);
    const uint32_t reserved = 0;
    std::memcpy(dst + 12, &reserved, 4);
    std::memcpy(dst + 16, &epoch, 8);
    std::memcpy(dst + 24, &length, 8);
    std::memcpy(dst + 32, &checksum, 8);
  }

  // Makes the file span at least `count` pages. New pages are written as
  // zeroes so they carry a valid checksum trailer.
  bool EnsurePages(uint64_t count) {
    std::vector<char> zero(page_size_, 0);
    while (file_->num_pages() < count) {
      const storage::PageId id = file_->Allocate();
      if (!WriteWithRetry(id, zero.data())) return false;
    }
    return true;
  }

  // Fresh stores get readable all-zero header slots, so "empty" and
  // "corrupt" stay distinguishable. An existing slot that cannot even be
  // read (e.g., a torn header commit from a crashed writer) is remembered
  // as corrupt-at-open, then healed to empty so the slot is reusable.
  void InitHeaders() {
    if (file_->num_pages() >= num_slots_) {
      // Existing file: probe every header; heal unreadable ones.
      std::vector<char> buffer(page_size_);
      std::vector<char> zero(page_size_, 0);
      for (uint32_t slot = 0; slot < num_slots_; ++slot) {
        if (!ReadWithRetry(slot, buffer.data())) {
          corrupt_at_open_[slot] = true;
          WriteWithRetry(slot, zero.data());  // best effort
          continue;
        }
        // Track the newest committed epoch so the next WriteSnapshot never
        // targets the slot holding it, even if ReadLatest is never called.
        uint64_t magic;
        uint32_t version;
        uint64_t epoch;
        std::memcpy(&magic, buffer.data(), 8);
        std::memcpy(&version, buffer.data() + 8, 4);
        std::memcpy(&epoch, buffer.data() + 16, 8);
        if (magic == kMagic && version == kVersion) {
          last_epoch_ = std::max(last_epoch_, epoch);
        }
      }
      return;
    }
    EnsurePages(num_slots_);
  }

  // Fully verifies one slot: header readable, magic/version right, payload
  // pages present and readable, payload checksum matching. Fills *report
  // with whatever the header revealed (epoch/length/payload_pages stay zero
  // when the header itself was unreadable). `consume_corrupt_at_open`
  // preserves the historical ReadLatest behavior of reporting a healed
  // torn-at-open header exactly once; scrub probes pass false and leave the
  // memory of the tear intact.
  SlotState ProbeSlot(uint32_t slot, std::string* payload, SlotReport* report,
                      bool consume_corrupt_at_open) {
    report->slot = slot;
    if (corrupt_at_open_[slot]) {
      if (consume_corrupt_at_open) corrupt_at_open_[slot] = false;
      return SlotState::kTorn;
    }
    if (file_->num_pages() < num_slots_) return SlotState::kEmpty;
    std::vector<char> buffer(page_size_);
    if (!ReadWithRetry(slot, buffer.data())) return SlotState::kTorn;
    uint64_t magic;
    std::memcpy(&magic, buffer.data(), 8);
    if (magic == 0) return SlotState::kEmpty;
    if (magic != kMagic) return SlotState::kCorrupt;
    uint32_t version;
    std::memcpy(&version, buffer.data() + 8, 4);
    if (version != kVersion) return SlotState::kCorrupt;
    uint64_t checksum;
    std::memcpy(&report->epoch, buffer.data() + 16, 8);
    std::memcpy(&report->length, buffer.data() + 24, 8);
    std::memcpy(&checksum, buffer.data() + 32, 8);
    report->payload_pages =
        (report->length + page_size_ - 1) / page_size_;
    const uint64_t npages = report->payload_pages;
    if (npages > 0 &&
        PayloadPage(npages - 1, slot) >= file_->num_pages()) {
      return SlotState::kCorrupt;  // header names pages the file lacks
    }
    payload->resize(report->length);
    for (uint64_t i = 0; i < npages; ++i) {
      if (!ReadWithRetry(PayloadPage(i, slot), buffer.data())) {
        return SlotState::kTorn;
      }
      const size_t offset = i * page_size_;
      const size_t chunk =
          std::min<size_t>(page_size_, report->length - offset);
      std::memcpy(payload->data() + offset, buffer.data(), chunk);
    }
    if (storage::XxHash64(payload->data(), payload->size()) != checksum) {
      return SlotState::kCorrupt;
    }
    return SlotState::kValid;
  }

  // One commit-path file sync (two per WriteSnapshot).
  bool Sync() {
    obs::PhaseTimer timer(metrics_, obs::Op::kSnapshotSync);
    return file_->Sync() == storage::IoStatus::kOk;
  }

  bool ReadWithRetry(storage::PageId id, char* buffer) {
    for (uint32_t attempt = 0; attempt < retry_.max_attempts; ++attempt) {
      const storage::IoStatus status = file_->Read(id, buffer);
      if (status == storage::IoStatus::kOk) return true;
      if (status == storage::IoStatus::kFailed) return false;
    }
    return false;
  }

  bool WriteWithRetry(storage::PageId id, const char* buffer) {
    for (uint32_t attempt = 0; attempt < retry_.max_attempts; ++attempt) {
      const storage::IoStatus status = file_->Write(id, buffer);
      if (status == storage::IoStatus::kOk) return true;
      if (status == storage::IoStatus::kFailed) return false;
    }
    return false;
  }

  const uint32_t page_size_;
  const uint32_t num_slots_;
  const storage::RetryPolicy retry_;
  obs::Metrics* const metrics_;
  std::unique_ptr<storage::PageFile> file_;
  storage::FaultInjectingPageFile* injector_ = nullptr;
  storage::CrashPointPageFile* crash_ = nullptr;
  uint64_t last_epoch_ = 0;
  std::vector<char> corrupt_at_open_;
  SnapshotStoreStats stats_;
};

}  // namespace sdj::snapshot

#endif  // SDJOIN_CORE_SNAPSHOT_H_
