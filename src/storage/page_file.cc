#include "storage/page_file.h"

#include <cerrno>
#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/checksum.h"
#include "util/check.h"

namespace sdj::storage {

namespace {

// Heap-backed page store. Pages are allocated lazily and zero-initialized.
class MemoryPageFile final : public PageFile {
 public:
  explicit MemoryPageFile(uint32_t page_size) : PageFile(page_size) {}

  PageId num_pages() const override {
    return static_cast<PageId>(pages_.size());
  }

  PageId Allocate() override {
    pages_.emplace_back(page_size_, '\0');
    return static_cast<PageId>(pages_.size() - 1);
  }

  IoStatus Read(PageId id, char* buffer) override {
    if (id >= pages_.size()) return IoStatus::kFailed;
    ++physical_reads_;
    std::memcpy(buffer, pages_[id].data(), page_size_);
    return IoStatus::kOk;
  }

  IoStatus Write(PageId id, const char* buffer) override {
    if (id >= pages_.size()) return IoStatus::kFailed;
    ++physical_writes_;
    std::memcpy(pages_[id].data(), buffer, page_size_);
    return IoStatus::kOk;
  }

 private:
  std::vector<std::vector<char>> pages_;
};

// POSIX file-backed page store using pread/pwrite at page-aligned offsets.
// Short transfers are resumed and EINTR is retried, so a page read or write
// either completes in full or reports a real error — a partial pwrite never
// silently tears a page.
class PosixPageFile final : public PageFile {
 public:
  PosixPageFile(int fd, uint32_t page_size, PageId num_pages = 0)
      : PageFile(page_size), fd_(fd), num_pages_(num_pages) {}

  ~PosixPageFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  PageId num_pages() const override { return num_pages_; }

  PageId Allocate() override {
    // Extend the file with a zeroed page so that reads of fresh pages succeed.
    std::vector<char> zeros(page_size_, '\0');
    const off_t offset = static_cast<off_t>(num_pages_) * page_size_;
    if (WriteFull(zeros.data(), offset) != IoStatus::kOk) {
      return kInvalidPageId;
    }
    return num_pages_++;
  }

  IoStatus Read(PageId id, char* buffer) override {
    if (id >= num_pages_) return IoStatus::kFailed;
    ++physical_reads_;
    const off_t offset = static_cast<off_t>(id) * page_size_;
    size_t done = 0;
    while (done < page_size_) {
      const ssize_t n = ::pread(fd_, buffer + done, page_size_ - done,
                                offset + static_cast<off_t>(done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return (errno == EAGAIN || errno == EWOULDBLOCK) ? IoStatus::kTransient
                                                         : IoStatus::kFailed;
      }
      if (n == 0) return IoStatus::kFailed;  // file truncated under us
      done += static_cast<size_t>(n);
    }
    return IoStatus::kOk;
  }

  IoStatus Write(PageId id, const char* buffer) override {
    if (id >= num_pages_) return IoStatus::kFailed;
    ++physical_writes_;
    const off_t offset = static_cast<off_t>(id) * page_size_;
    return WriteFull(buffer, offset);
  }

  IoStatus Sync() override {
    while (::fsync(fd_) != 0) {
      if (errno != EINTR) return IoStatus::kFailed;
    }
    return IoStatus::kOk;
  }

 private:
  // Writes one full page at `offset`, resuming short transfers.
  IoStatus WriteFull(const char* buffer, off_t offset) {
    size_t done = 0;
    while (done < page_size_) {
      const ssize_t n = ::pwrite(fd_, buffer + done, page_size_ - done,
                                 offset + static_cast<off_t>(done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return (errno == EAGAIN || errno == EWOULDBLOCK) ? IoStatus::kTransient
                                                         : IoStatus::kFailed;
      }
      done += static_cast<size_t>(n);
    }
    return IoStatus::kOk;
  }

  int fd_;
  PageId num_pages_ = 0;
};

// Checksumming decorator; see NewChecksummingPageFile in the header.
class ChecksummingPageFile final : public PageFile {
 public:
  explicit ChecksummingPageFile(std::unique_ptr<PageFile> inner)
      : PageFile(inner->page_size() - kPageTrailerSize),
        inner_(std::move(inner)),
        scratch_(inner_->page_size(), '\0'),
        zero_checksum_(XxHash64(scratch_.data(), page_size_)) {}

  PageId num_pages() const override { return inner_->num_pages(); }

  PageId Allocate() override { return inner_->Allocate(); }

  IoStatus Read(PageId id, char* buffer) override {
    ++physical_reads_;
    const IoStatus status = inner_->Read(id, scratch_.data());
    if (status != IoStatus::kOk) return status;
    uint64_t stored = 0;
    std::memcpy(&stored, scratch_.data() + page_size_, sizeof(stored));
    const uint64_t actual = XxHash64(scratch_.data(), page_size_);
    // A zero trailer marks a page that was allocated but never written; it is
    // valid only while the payload is still all zeros.
    if (actual != stored && !(stored == 0 && actual == zero_checksum_)) {
      ++checksum_failures_;
      return IoStatus::kCorrupt;
    }
    std::memcpy(buffer, scratch_.data(), page_size_);
    return IoStatus::kOk;
  }

  IoStatus Write(PageId id, const char* buffer) override {
    ++physical_writes_;
    std::memcpy(scratch_.data(), buffer, page_size_);
    const uint64_t checksum = XxHash64(buffer, page_size_);
    std::memcpy(scratch_.data() + page_size_, &checksum, sizeof(checksum));
    return inner_->Write(id, scratch_.data());
  }

  IoStatus Sync() override { return inner_->Sync(); }

 private:
  std::unique_ptr<PageFile> inner_;
  std::vector<char> scratch_;  // one physical (payload + trailer) page
  const uint64_t zero_checksum_;
  uint64_t checksum_failures_ = 0;
};

}  // namespace

const char* IoStatusName(IoStatus status) {
  switch (status) {
    case IoStatus::kOk:
      return "ok";
    case IoStatus::kTransient:
      return "transient";
    case IoStatus::kCorrupt:
      return "corrupt";
    case IoStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

std::unique_ptr<PageFile> NewMemoryPageFile(uint32_t page_size) {
  SDJ_CHECK(page_size > 0);
  return std::make_unique<MemoryPageFile>(page_size);
}

std::unique_ptr<PageFile> NewFilePageFile(const std::string& path,
                                          uint32_t page_size) {
  SDJ_CHECK(page_size > 0);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return nullptr;
  return std::make_unique<PosixPageFile>(fd, page_size);
}

std::unique_ptr<PageFile> OpenFilePageFile(const std::string& path,
                                           uint32_t page_size,
                                           bool recover_truncated_tail) {
  SDJ_CHECK(page_size > 0);
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return nullptr;
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return nullptr;
  }
  if (size % page_size != 0) {
    if (!recover_truncated_tail) {
      ::close(fd);
      return nullptr;
    }
    // Torn final write: drop the incomplete trailing page. Whole preceding
    // pages are untouched (their checksums still verify).
    size = size - size % page_size;
    if (::ftruncate(fd, size) != 0) {
      ::close(fd);
      return nullptr;
    }
  }
  return std::make_unique<PosixPageFile>(
      fd, page_size, static_cast<PageId>(size / page_size));
}

std::unique_ptr<PageFile> NewChecksummingPageFile(
    std::unique_ptr<PageFile> inner) {
  SDJ_CHECK(inner != nullptr);
  SDJ_CHECK(inner->page_size() > kPageTrailerSize);
  return std::make_unique<ChecksummingPageFile>(std::move(inner));
}

}  // namespace sdj::storage
