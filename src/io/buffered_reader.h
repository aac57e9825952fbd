#ifndef NODB_IO_BUFFERED_READER_H_
#define NODB_IO_BUFFERED_READER_H_

#include <cstdint>
#include <memory>

#include "io/file.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace nodb {

/// Block-buffered positional reader over a RandomAccessFile.
///
/// The in-situ scan mixes sequential access (tokenizing unmapped
/// regions) with jumps (positional-map hits), so the reader exposes a
/// positional API and keeps one aligned block buffered. Ranges that
/// cross a block boundary are served by refilling so the caller always
/// receives one contiguous Slice; ranges longer than the buffer grow it.
///
/// All physical reads are accounted in io_nanos()/bytes_read() so the
/// per-query breakdown (Figure 3) can separate I/O from CPU work.
class BufferedReader {
 public:
  static constexpr size_t kDefaultBufferSize = 1 << 20;  // 1 MiB

  explicit BufferedReader(std::shared_ptr<RandomAccessFile> file,
                          size_t buffer_size = kDefaultBufferSize);

  /// Views `length` bytes at `offset`. Short only at end of file.
  Status ReadAt(uint64_t offset, size_t length, Slice* out);

  /// Finds the next '\n' at or after `offset`.
  ///
  /// On success `*line_end` is the newline's offset. Returns OutOfRange
  /// when the file ends first; `*line_end` is then the file size (i.e.
  /// the final unterminated line ends at EOF).
  Status FindNewline(uint64_t offset, uint64_t* line_end);

  /// Cached size captured at construction; Refresh() re-stats the file.
  uint64_t file_size() const { return file_size_; }
  /// The configured buffer size: a ReadAt of at most this many bytes
  /// never grows the buffer.
  size_t buffer_size() const { return buffer_size_; }
  Status Refresh();

  int64_t io_nanos() const { return io_nanos_; }
  uint64_t bytes_read() const { return bytes_read_; }
  void ResetCounters() {
    io_nanos_ = 0;
    bytes_read_ = 0;
  }

  const std::string& path() const { return file_->path(); }

 private:
  /// Loads the aligned block containing `offset`; extends the buffer if
  /// `min_length` does not fit in one block.
  Status Fill(uint64_t offset, size_t min_length);

  std::shared_ptr<RandomAccessFile> file_;
  size_t buffer_size_;
  std::unique_ptr<char[]> buffer_;
  size_t buffer_capacity_;
  uint64_t buffer_offset_ = 0;
  size_t buffer_valid_ = 0;
  uint64_t file_size_ = 0;
  int64_t io_nanos_ = 0;
  uint64_t bytes_read_ = 0;
};

}  // namespace nodb

#endif  // NODB_IO_BUFFERED_READER_H_
