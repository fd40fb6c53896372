// Fixed-size page store, the bottom layer under the buffer pool.
//
// Two backends share one interface: an in-memory store (the common case for
// tests and experiments — it still produces exact logical/physical I/O counts)
// and a POSIX file store (for datasets larger than memory and for the hybrid
// priority queue's disk tier). Decorators compose over either backend:
// NewChecksummingPageFile (per-page xxHash64 trailers, storage/checksum.h) and
// NewFaultInjectingPageFile (storage/fault_injection.h). page_store.h
// assembles the standard stack.
#ifndef SDJOIN_STORAGE_PAGE_FILE_H_
#define SDJOIN_STORAGE_PAGE_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/page.h"

namespace sdj::storage {

// Outcome of a single page-store operation. The buffer pool retries
// kTransient and kCorrupt (a re-read can heal a fault that happened in
// transfer); kFailed is surfaced to the caller immediately.
enum class IoStatus : uint8_t {
  kOk = 0,
  kTransient,  // transient failure (EINTR-style); retrying may succeed
  kCorrupt,    // page transferred but failed checksum verification
  kFailed,     // hard failure or invalid page id; retrying cannot help
};

// Human-readable status name for diagnostics.
const char* IoStatusName(IoStatus status);

// Abstract fixed-size page store. All pages have the same size; page ids are
// dense and allocated in order. Thread-compatible (external synchronization
// required for concurrent use).
class PageFile {
 public:
  explicit PageFile(uint32_t page_size) : page_size_(page_size) {}
  virtual ~PageFile() = default;

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  uint32_t page_size() const { return page_size_; }

  // Number of allocated pages; valid ids are [0, num_pages()).
  virtual PageId num_pages() const = 0;

  // Allocates a new zeroed page and returns its id, or kInvalidPageId if the
  // store could not be extended.
  virtual PageId Allocate() = 0;

  // Reads page `id` into `buffer` (page_size() bytes).
  virtual IoStatus Read(PageId id, char* buffer) = 0;

  // Writes `buffer` (page_size() bytes) to page `id`.
  virtual IoStatus Write(PageId id, const char* buffer) = 0;

  // Forces written pages to durable storage (fsync for the POSIX backend;
  // a no-op for the in-memory store and pass-through for decorators).
  virtual IoStatus Sync() { return IoStatus::kOk; }

  uint64_t physical_reads() const { return physical_reads_; }
  uint64_t physical_writes() const { return physical_writes_; }
  void ResetCounters() {
    physical_reads_ = 0;
    physical_writes_ = 0;
  }

 protected:
  const uint32_t page_size_;
  uint64_t physical_reads_ = 0;
  uint64_t physical_writes_ = 0;
};

// Creates a heap-backed page store.
std::unique_ptr<PageFile> NewMemoryPageFile(uint32_t page_size);

// Creates (truncating) a file-backed page store at `path`. Returns null if
// the file cannot be created.
std::unique_ptr<PageFile> NewFilePageFile(const std::string& path,
                                          uint32_t page_size);

// Opens an existing file-backed page store at `path`. The file size must be
// a multiple of `page_size`; existing pages keep their contents. With
// `recover_truncated_tail` set, a file whose final page is incomplete (a torn
// final write, e.g. a crash mid-append) is truncated back to the last whole
// page instead of being refused. Returns null if the file cannot be opened or
// has an inconsistent size that recovery was not asked to (or could not) fix.
std::unique_ptr<PageFile> OpenFilePageFile(const std::string& path,
                                           uint32_t page_size,
                                           bool recover_truncated_tail = false);

// Wraps `inner` with per-page checksum trailers: the returned store exposes
// logical pages of inner->page_size() - kPageTrailerSize bytes, writes an
// xxHash64 trailer on every physical write, and verifies it on every read
// (checksum mismatch => IoStatus::kCorrupt). A page that was allocated but
// never written reads back as zeros. `inner` must have page_size >
// kPageTrailerSize.
std::unique_ptr<PageFile> NewChecksummingPageFile(
    std::unique_ptr<PageFile> inner);

}  // namespace sdj::storage

#endif  // SDJOIN_STORAGE_PAGE_FILE_H_
