#ifndef NODB_IO_BUFFERED_READER_H_
#define NODB_IO_BUFFERED_READER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "io/file.h"
#include "simd/simd.h"
#include "util/result.h"
#include "util/slice.h"
#include "util/status.h"

namespace nodb {

/// Block-buffered positional reader over a RandomAccessFile.
///
/// The in-situ scan mixes sequential access (finding rows nobody has
/// indexed yet) with jumps (positional-map hits), so the reader exposes
/// a positional API and keeps one window of the file buffered. A
/// buffered range is served without I/O; a miss reads what the call
/// needs:
///   - ReadAt reads exactly the requested range, so a warm scan that
///     knows its rows reads their bytes and nothing around them;
///   - FindRows reads a whole buffer from the first unindexed byte — the
///     window the scan then tokenizes without reading it again;
///   - FindNewline reads whole buffer-aligned blocks.
/// The caller always receives one contiguous Slice; ranges longer than
/// the buffer grow it.
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

  /// Skips the header line: `*data_begin` is one past its newline,
  /// where the data rows start (the file size for a header-only file,
  /// 0 for an empty one). Any read error is returned, `*data_begin`
  /// untouched, so a failed skip never reads the header as a row.
  Status SkipHeader(uint64_t* data_begin);

  /// The row finder shared by every scan. Finds the rows that start at
  /// `offset` (a row start) within one window of buffered bytes: the
  /// bytes already buffered from `offset`, else a buffer read there.
  /// Every raw '\n' ends a row (for every dialect), found with the
  /// `level` tier's byte kernel; row starts before `limit` (the file
  /// size, or a row start) are appended to `starts`, at most
  /// `max_rows` of them, and `*next` is set one past the last found
  /// row's terminator. Two rules close the walk:
  ///   - a window that reaches `limit` closes its unterminated tail as
  ///     the last row, with `*next = limit + 1`;
  ///   - a window holding no complete row is read again from `offset`,
  ///     twice as large each time, until it holds one (a row longer
  ///     than the buffer grows it).
  /// Finds at least one row unless `offset >= limit`. The found rows'
  /// bytes stay buffered: ReadAt serves them without I/O until the next
  /// call that misses.
  Status FindRows(uint64_t offset, uint64_t limit, size_t max_rows,
                  simd::SimdLevel level, std::vector<uint64_t>* starts,
                  uint64_t* next);

  /// The size the last Refresh() saw; 0 before the first.
  uint64_t file_size() const { return file_size_; }
  /// The configured buffer size: a ReadAt of at most this many bytes
  /// never grows the buffer.
  size_t buffer_size() const { return buffer_size_; }
  /// Stats the file: the one way a reader learns its size, so a failed
  /// stat is returned to the caller instead of read as an empty file.
  /// Call it before the first read, and again to see a grown file.
  Status Refresh();

  int64_t io_nanos() const { return io_nanos_; }
  uint64_t bytes_read() const { return bytes_read_; }
  void ResetCounters() {
    io_nanos_ = 0;
    bytes_read_ = 0;
  }

  const std::string& path() const { return file_->path(); }

 private:
  /// True when the byte at `offset` is buffered.
  bool Buffered(uint64_t offset) const {
    return offset >= buffer_offset_ && offset < buffer_offset_ + buffer_valid_;
  }
  /// Reads [offset, offset + length) into the buffer, growing it when
  /// `length` exceeds its capacity. Short only at end of file.
  Status Load(uint64_t offset, size_t length);

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
