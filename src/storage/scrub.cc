#include "storage/scrub.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "storage/checksum.h"
#include "util/check.h"

namespace sdj::storage {

namespace {

// Reads exactly `n` bytes at `offset`, resuming short transfers. False on
// any hard error (the page is then reported corrupt, not retried — a scrub
// is a single deterministic pass).
bool ReadFull(int fd, char* buffer, size_t n, off_t offset) {
  size_t done = 0;
  while (done < n) {
    const ssize_t r = ::pread(fd, buffer + done, n - done,
                              offset + static_cast<off_t>(done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // short file
    done += static_cast<size_t>(r);
  }
  return true;
}

}  // namespace

PageScrubReport ScrubPages(const std::string& path, uint32_t page_size) {
  SDJ_CHECK(page_size > 0);
  PageScrubReport report;
  const uint64_t physical = page_size + kPageTrailerSize;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return report;
  report.opened = true;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    report.opened = false;
    ::close(fd);
    return report;
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  report.pages_scanned = size / physical;
  report.torn_tail_bytes = size % physical;

  std::vector<char> buffer(physical);
  const uint64_t zero_checksum = XxHash64(buffer.data(), page_size);
  for (uint64_t page = 0; page < report.pages_scanned; ++page) {
    if (!ReadFull(fd, buffer.data(), physical,
                  static_cast<off_t>(page * physical))) {
      report.corrupt_pages.push_back(static_cast<PageId>(page));
      continue;
    }
    uint64_t stored = 0;
    std::memcpy(&stored, buffer.data() + page_size, sizeof(stored));
    const uint64_t actual = XxHash64(buffer.data(), page_size);
    // Same rule as ChecksummingPageFile::Read: a zero trailer marks an
    // allocated-but-never-written page and is valid only while the payload
    // is still all zeros.
    if (actual != stored && !(stored == 0 && actual == zero_checksum)) {
      report.corrupt_pages.push_back(static_cast<PageId>(page));
    }
  }
  ::close(fd);
  return report;
}

bool TruncateToPages(const std::string& path, uint32_t page_size,
                     uint64_t keep_pages, uint64_t* removed_bytes) {
  SDJ_CHECK(page_size > 0);
  if (removed_bytes != nullptr) *removed_bytes = 0;
  const uint64_t physical = page_size + kPageTrailerSize;
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return false;
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  const uint64_t target = keep_pages * physical;
  if (target > size) {
    ::close(fd);
    return false;  // repair only shrinks; growing would fabricate pages
  }
  int rc;
  do {
    rc = ::ftruncate(fd, static_cast<off_t>(target));
  } while (rc != 0 && errno == EINTR);
  if (rc == 0 && removed_bytes != nullptr) *removed_bytes = size - target;
  ::close(fd);
  return rc == 0;
}

}  // namespace sdj::storage
