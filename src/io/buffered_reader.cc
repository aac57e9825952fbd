#include "io/buffered_reader.h"

#include <algorithm>
#include <cstring>

#include "util/stopwatch.h"

namespace nodb {

namespace {

/// Newline positions FindRows collects per kernel call.
constexpr size_t kHitBatch = 256;

}  // namespace

BufferedReader::BufferedReader(std::shared_ptr<RandomAccessFile> file,
                               size_t buffer_size)
    : file_(std::move(file)),
      buffer_size_(std::max<size_t>(buffer_size, 4096)),
      // Left uninitialized: only bytes a read filled are ever viewed,
      // so a scan that never reads pays no zeroing or page faults.
      buffer_(std::unique_ptr<char[]>(new char[buffer_size_])),
      buffer_capacity_(buffer_size_) {}

Status BufferedReader::Refresh() {
  NODB_ASSIGN_OR_RETURN(file_size_, file_->Size());
  // Invalidate the buffer: the tail block may have grown.
  buffer_valid_ = 0;
  return Status::OK();
}

Status BufferedReader::Load(uint64_t offset, size_t length) {
  buffer_valid_ = 0;
  if (length > buffer_capacity_) {
    // No copy: the read below overwrites the buffer.
    buffer_ = std::unique_ptr<char[]>(new char[length]);
    buffer_capacity_ = length;
  }
  Slice got;
  {
    ScopedTimer timer(&io_nanos_);
    NODB_RETURN_NOT_OK(file_->Read(offset, length, buffer_.get(), &got));
  }
  bytes_read_ += got.size();
  buffer_offset_ = offset;
  buffer_valid_ = got.size();
  return Status::OK();
}

Status BufferedReader::ReadAt(uint64_t offset, size_t length, Slice* out) {
  if (offset >= file_size_ || length == 0) {
    *out = Slice();
    return Status::OK();
  }
  length = std::min<uint64_t>(length, file_size_ - offset);
  if (offset < buffer_offset_ ||
      offset + length > buffer_offset_ + buffer_valid_) {
    NODB_RETURN_NOT_OK(Load(offset, length));
    // A short read means the file shrank under us; surface what we have.
    length = std::min(length, buffer_valid_);
  }
  *out = Slice(buffer_.get() + (offset - buffer_offset_), length);
  return Status::OK();
}

Status BufferedReader::FindNewline(uint64_t offset, uint64_t* line_end) {
  // Scans the *buffered* bytes and refills one aligned block at a time.
  // (Asking ReadAt for a fixed-size window here would force an unaligned
  // refill on nearly every call once the window crosses the block edge.)
  uint64_t pos = offset;
  while (pos < file_size_) {
    if (!Buffered(pos)) {
      NODB_RETURN_NOT_OK(Load(pos - pos % buffer_size_, buffer_capacity_));
      if (!Buffered(pos)) break;  // file shrank under us
    }
    size_t avail =
        static_cast<size_t>(buffer_offset_ + buffer_valid_ - pos);
    const char* base = buffer_.get() + (pos - buffer_offset_);
    const char* nl =
        static_cast<const char*>(std::memchr(base, '\n', avail));
    if (nl != nullptr) {
      *line_end = pos + static_cast<uint64_t>(nl - base);
      return Status::OK();
    }
    pos += avail;
  }
  *line_end = file_size_;
  return Status::OutOfRange("no newline before end of file");
}

Status BufferedReader::SkipHeader(uint64_t* data_begin) {
  uint64_t header_end = 0;
  Status s = FindNewline(0, &header_end);
  if (!s.ok() && !s.IsOutOfRange()) return s;
  // OutOfRange leaves header_end at the file size: no data rows.
  *data_begin = std::min<uint64_t>(header_end + 1, file_size_);
  return Status::OK();
}

Status BufferedReader::FindRows(uint64_t offset, uint64_t limit,
                                size_t max_rows, simd::SimdLevel level,
                                std::vector<uint64_t>* starts,
                                uint64_t* next) {
  *next = offset;
  limit = std::min(limit, file_size_);
  size_t want = buffer_size_;
  // Reads the window from `offset`; a short read means the file shrank
  // under the walk, so its bytes end where the read did.
  auto load = [&]() {
    const size_t length =
        static_cast<size_t>(std::min<uint64_t>(want, limit - offset));
    NODB_RETURN_NOT_OK(Load(offset, length));
    if (buffer_valid_ < length) limit = offset + buffer_valid_;
    return Status::OK();
  };
  if (max_rows == 0 || offset >= limit) return Status::OK();
  if (!Buffered(offset)) NODB_RETURN_NOT_OK(load());
  while (offset < limit) {
    const char* data = buffer_.get() + (offset - buffer_offset_);
    const size_t size = static_cast<size_t>(
        std::min<uint64_t>(buffer_offset_ + buffer_valid_, limit) - offset);
    const bool at_limit = offset + size >= limit;
    // Each newline ends a row; bias 1 makes its position the next
    // row's start.
    uint32_t hits[kHitBatch];
    size_t found = 0;
    uint64_t row = offset;
    for (size_t from = 0; found < max_rows;) {
      const size_t batch = std::min(kHitBatch, max_rows - found);
      const size_t n = simd::FindBytePositions(level, data, size, from, '\n',
                                               batch, /*bias=*/1, hits);
      for (size_t i = 0; i < n; ++i) {
        starts->push_back(row);
        row = offset + hits[i];
      }
      found += n;
      if (n < batch) break;
      from = hits[n - 1];
    }
    if (found > 0 || at_limit) {
      if (found < max_rows && at_limit && row < limit) {
        starts->push_back(row);  // the unterminated last row
        row = limit + 1;
      }
      *next = row;
      return Status::OK();
    }
    // No complete row in the window: read it again from `offset`, twice
    // as large when it already started there.
    if (buffer_offset_ == offset) want = 2 * size;
    NODB_RETURN_NOT_OK(load());
  }
  return Status::OK();
}

}  // namespace nodb
