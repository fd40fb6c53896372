// Counters for measuring I/O behaviour, mirroring the performance measures of
// the paper's Table 1 (node I/O = buffer misses that reach the page file).
#ifndef SDJOIN_STORAGE_IO_STATS_H_
#define SDJOIN_STORAGE_IO_STATS_H_

#include <cstdint>

namespace sdj::storage {

// Cumulative I/O counters. Plain data; reset by assigning {}.
struct IoStats {
  uint64_t logical_reads = 0;    // page accesses through the buffer pool
  uint64_t buffer_hits = 0;      // accesses served from the pool
  uint64_t buffer_misses = 0;    // accesses that read the page file
  uint64_t physical_reads = 0;   // page-file reads
  uint64_t physical_writes = 0;  // page-file writes (evictions + flushes)

  // Failure-handling counters (see DESIGN.md "Failure model").
  uint64_t read_retries = 0;        // re-issued reads after transient/corrupt
  uint64_t write_retries = 0;       // re-issued writes after transient faults
  uint64_t checksum_failures = 0;   // reads that came back IoStatus::kCorrupt
  uint64_t read_failures = 0;       // reads abandoned after retries ran out
  uint64_t write_failures = 0;      // writes abandoned after retries ran out

  IoStats& operator+=(const IoStats& other) {
    logical_reads += other.logical_reads;
    buffer_hits += other.buffer_hits;
    buffer_misses += other.buffer_misses;
    physical_reads += other.physical_reads;
    physical_writes += other.physical_writes;
    read_retries += other.read_retries;
    write_retries += other.write_retries;
    checksum_failures += other.checksum_failures;
    read_failures += other.read_failures;
    write_failures += other.write_failures;
    return *this;
  }

  IoStats operator-(const IoStats& other) const {
    return IoStats{logical_reads - other.logical_reads,
                   buffer_hits - other.buffer_hits,
                   buffer_misses - other.buffer_misses,
                   physical_reads - other.physical_reads,
                   physical_writes - other.physical_writes,
                   read_retries - other.read_retries,
                   write_retries - other.write_retries,
                   checksum_failures - other.checksum_failures,
                   read_failures - other.read_failures,
                   write_failures - other.write_failures};
  }
};

}  // namespace sdj::storage

#endif  // SDJOIN_STORAGE_IO_STATS_H_
