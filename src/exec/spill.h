#ifndef VSTORE_EXEC_SPILL_H_
#define VSTORE_EXEC_SPILL_H_

#include <cstdint>
#include <cstdio>
#include <memory>

#include "common/macros.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "exec/batch.h"

namespace vstore {

// Growable byte buffer for one spill record, charged to a MemoryTracker by
// capacity. Operators own one for writing and one for reading and share
// them across all their partition files.
class SpillBuffer {
 public:
  explicit SpillBuffer(MemoryTracker* tracker = nullptr)
      : reservation_(tracker) {}
  VSTORE_DISALLOW_COPY_AND_ASSIGN(SpillBuffer);

  // Re-points the capacity charge at `tracker`.
  void SetMemoryTracker(MemoryTracker* tracker) {
    reservation_.Reset(tracker);
  }

  // Returns at least `size` writable bytes; earlier contents are lost when
  // the buffer grows.
  uint8_t* Reserve(size_t size);
  uint8_t* data() { return data_.get(); }

  // Frees the buffer and its charge.
  void Release();

 private:
  std::unique_ptr<uint8_t[]> data_;
  size_t capacity_ = 0;
  MemoryReservation reservation_;
};

// A temp file of batch-columnar spill records, the one spill format of the
// hash joins and the hash aggregate. A record holds up to
// `max_record_rows` rows of one schema:
//
//   header: u32 rows, u32 columns, u64 body bytes
//   body, per column:
//     rows validity bytes (1 = non-null), then
//     int64/double: rows x 8-byte values (unspecified where null), or
//     string: rows x u32 lengths (0 where null), then the bytes of every
//             row concatenated.
//
// Append writes the rows a selection picks from a batch, splitting them
// into records of at most `max_record_rows`; Read decodes one record into a
// batch. Strings of a read batch view the read buffer, so they are valid
// until the next Read with that buffer; anything that outlives the batch
// copies them. Files come from std::tmpfile() (unlinked on creation,
// reclaimed on close or exit).
class SpillFile {
 public:
  Status Open(int64_t max_record_rows);
  void Close() { file_.reset(); }

  // Appends rows sel[0..n) of `batch` (rows 0..n-1 when `sel` is null; a
  // selection must ascend) through the write buffer `scratch`. Returns the
  // bytes written.
  Result<int64_t> Append(const Batch& batch, const int32_t* sel, int64_t n,
                         SpillBuffer* scratch);

  // Moves to the first record; required before the first Read.
  Status Rewind();
  // Reads the next record into `out` (reset first, every row active),
  // through the read buffer `scratch`. Returns false at a clean end of
  // file; a truncated or malformed record, or one with more rows than
  // `out` holds or a different column count, is an error.
  Result<bool> Read(Batch* out, SpillBuffer* scratch);

  // Rows appended so far.
  int64_t rows() const { return rows_; }

  // The underlying stream (tests use it to damage records).
  std::FILE* file() const { return file_.get(); }

 private:
  // Writes one record of rows sel[0..n), or of rows first..first+n-1 when
  // `sel` is null; returns its size.
  Result<int64_t> WriteRecord(const Batch& batch, const int32_t* sel,
                              int64_t first, int64_t n, SpillBuffer* scratch);

  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  std::unique_ptr<std::FILE, Closer> file_;
  int64_t max_record_rows_ = 0;
  int64_t rows_ = 0;
  // File size at the last Rewind and the offset of the next record.
  int64_t read_size_ = 0;
  int64_t read_offset_ = 0;
};

}  // namespace vstore

#endif  // VSTORE_EXEC_SPILL_H_
