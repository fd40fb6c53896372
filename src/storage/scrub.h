// Offline integrity scrub and repair for page-store files (DESIGN.md §16).
//
// A scrub inspects a file written through the page_store.h stack without
// mutating it: every physical page's xxHash64 trailer is verified (the same
// rule ChecksummingPageFile applies on reads — a zero trailer is valid only
// for an all-zero payload), and a torn final partial page (a crash
// mid-append) is detected from the file size. Findings are reported and
// quarantined, never aborted on: a scrub of a corrupt file returns a report,
// not a crash.
//
// Repair handles the two mechanical classes:
//   * a torn tail — the trailing partial page is truncated away (the same
//     recovery OpenFilePageFile performs with recover_truncated_tail);
//   * orphaned tail pages — whole pages beyond what the file's committed
//     contents need (e.g., payload pages of an abandoned snapshot commit
//     that was larger than every committed one), truncated on request.
// Corrupt *interior* pages are not repairable here: what they should
// contain is gone. They are reported for the owning layer to route around —
// the snapshot store falls back to an older slot (SnapshotStore::
// ClassifySlots), the hybrid queue abandons the chain.
//
// The free-list audit is arithmetic over the hybrid queue's spill
// accounting: every allocated page must be live, free, or abandoned
// (CLAUDE.md invariant); a violation means pages leaked silently.
#ifndef SDJOIN_STORAGE_SCRUB_H_
#define SDJOIN_STORAGE_SCRUB_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/page.h"

namespace sdj::storage {

// Findings of one read-only page scrub.
struct PageScrubReport {
  // False when the file could not be opened at all; every other field is
  // meaningless then.
  bool opened = false;
  // Whole physical pages present in the file.
  uint64_t pages_scanned = 0;
  // Pages whose checksum trailer failed verification.
  std::vector<PageId> corrupt_pages;
  // Bytes of a trailing partial page (0 = none): a torn final append.
  uint64_t torn_tail_bytes = 0;

  bool clean() const {
    return opened && corrupt_pages.empty() && torn_tail_bytes == 0;
  }
};

// Verifies every page trailer in `path` (logical `page_size`, physical
// page_size + kPageTrailerSize). Read-only; never aborts.
PageScrubReport ScrubPages(const std::string& path, uint32_t page_size);

// Truncates `path` to exactly `keep_pages` whole physical pages, removing a
// torn tail and any orphaned whole pages beyond. Refuses (returns false) to
// grow the file. `removed_bytes`, when non-null, receives the bytes cut.
bool TruncateToPages(const std::string& path, uint32_t page_size,
                     uint64_t keep_pages, uint64_t* removed_bytes = nullptr);

// The hybrid queue's spill-page accounting invariant (CLAUDE.md): every
// allocated page is in exactly one of the three states.
inline bool SpillAccountingConsistent(uint64_t allocated, uint64_t live,
                                      uint64_t free_pages,
                                      uint64_t abandoned) {
  return allocated == live + free_pages + abandoned;
}

}  // namespace sdj::storage

#endif  // SDJOIN_STORAGE_SCRUB_H_
