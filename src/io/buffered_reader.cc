#include "io/buffered_reader.h"

#include <algorithm>
#include <cstring>

#include "util/stopwatch.h"

namespace nodb {

BufferedReader::BufferedReader(std::shared_ptr<RandomAccessFile> file,
                               size_t buffer_size)
    : file_(std::move(file)),
      buffer_size_(std::max<size_t>(buffer_size, 4096)),
      // Left uninitialized: only bytes a read filled are ever viewed,
      // so a scan that never reads pays no zeroing or page faults.
      buffer_(std::unique_ptr<char[]>(new char[buffer_size_])),
      buffer_capacity_(buffer_size_) {
  auto size = file_->Size();
  file_size_ = size.ok() ? *size : 0;
}

Status BufferedReader::Refresh() {
  NODB_ASSIGN_OR_RETURN(file_size_, file_->Size());
  // Invalidate the buffer: the tail block may have grown.
  buffer_valid_ = 0;
  return Status::OK();
}

Status BufferedReader::Fill(uint64_t offset, size_t min_length) {
  if (min_length > buffer_capacity_) {
    // No copy: the read below overwrites the buffer.
    buffer_ = std::unique_ptr<char[]>(new char[min_length]);
    buffer_capacity_ = min_length;
    buffer_valid_ = 0;
  }
  // Align the fill to the buffer grid for sequential-scan friendliness,
  // unless alignment would leave less than min_length available.
  uint64_t aligned = offset - (offset % buffer_size_);
  if (offset - aligned + min_length > buffer_capacity_) {
    aligned = offset;
  }
  Slice got;
  {
    ScopedTimer timer(&io_nanos_);
    NODB_RETURN_NOT_OK(
        file_->Read(aligned, buffer_capacity_, buffer_.get(), &got));
  }
  bytes_read_ += got.size();
  buffer_offset_ = aligned;
  buffer_valid_ = got.size();
  return Status::OK();
}

Status BufferedReader::ReadAt(uint64_t offset, size_t length, Slice* out) {
  if (offset >= file_size_) {
    *out = Slice();
    return Status::OK();
  }
  length = std::min<uint64_t>(length, file_size_ - offset);
  if (offset < buffer_offset_ ||
      offset + length > buffer_offset_ + buffer_valid_) {
    NODB_RETURN_NOT_OK(Fill(offset, length));
    if (offset < buffer_offset_ ||
        offset + length > buffer_offset_ + buffer_valid_) {
      // File shrank under us; surface what we have.
      uint64_t avail =
          (offset >= buffer_offset_ + buffer_valid_)
              ? 0
              : buffer_offset_ + buffer_valid_ - offset;
      *out = Slice(buffer_.get() + (offset - buffer_offset_),
                   std::min<uint64_t>(length, avail));
      return Status::OK();
    }
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
    if (pos < buffer_offset_ || pos >= buffer_offset_ + buffer_valid_) {
      NODB_RETURN_NOT_OK(Fill(pos, 1));
      if (buffer_valid_ == 0 || pos < buffer_offset_ ||
          pos >= buffer_offset_ + buffer_valid_) {
        break;  // file shrank under us
      }
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

}  // namespace nodb
