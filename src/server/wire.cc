#include "server/wire.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <utility>
#include <vector>

namespace nodb {
namespace server {

namespace {

std::string ErrnoMessage(const std::string& context) {
  return context + ": " + ::strerror(errno);
}

}  // namespace

/// ---- Primitives -------------------------------------------------------

void WireWriter::PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

void WireWriter::PutU16(uint16_t v) {
  PutU8(static_cast<uint8_t>(v));
  PutU8(static_cast<uint8_t>(v >> 8));
}

void WireWriter::PutU32(uint32_t v) {
  PutU16(static_cast<uint16_t>(v));
  PutU16(static_cast<uint16_t>(v >> 16));
}

void WireWriter::PutU64(uint64_t v) {
  PutU32(static_cast<uint32_t>(v));
  PutU32(static_cast<uint32_t>(v >> 32));
}

void WireWriter::PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

void WireWriter::PutDouble(double v) {
  // Bit pattern, not text: remote doubles must compare bit-identical
  // to local execution.
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void WireWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

Status WireReader::Need(size_t n) const {
  if (data_.size() - pos_ < n) {
    return Status::ParseError("truncated frame payload");
  }
  return Status::OK();
}

Result<uint8_t> WireReader::GetU8() {
  NODB_RETURN_NOT_OK(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint16_t> WireReader::GetU16() {
  NODB_RETURN_NOT_OK(Need(2));
  uint16_t v = static_cast<uint16_t>(
      static_cast<uint8_t>(data_[pos_]) |
      (static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_ + 1])) << 8));
  pos_ += 2;
  return v;
}

Result<uint32_t> WireReader::GetU32() {
  NODB_RETURN_NOT_OK(Need(4));
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> WireReader::GetU64() {
  NODB_RETURN_NOT_OK(Need(8));
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<int64_t> WireReader::GetI64() {
  NODB_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> WireReader::GetDouble() {
  NODB_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> WireReader::GetString() {
  NODB_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  NODB_RETURN_NOT_OK(Need(len));
  std::string out(data_.substr(pos_, len));
  pos_ += len;
  return out;
}

Status WireReader::ExpectEnd() const {
  if (remaining() != 0) {
    return Status::ParseError("trailing bytes after frame payload");
  }
  return Status::OK();
}

/// ---- Typed payloads ---------------------------------------------------

void EncodeSchema(const Schema& schema, WireWriter* w) {
  w->PutU32(static_cast<uint32_t>(schema.num_fields()));
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& field = schema.field(i);
    w->PutU8(static_cast<uint8_t>(field.type));
    w->PutString(field.name);
  }
}

Result<std::shared_ptr<Schema>> DecodeSchema(WireReader* r) {
  NODB_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  // A field needs at least 5 encoded bytes; this caps allocation from
  // a hostile count before anything is reserved.
  if (n > r->remaining() / 5) {
    return Status::ParseError("schema field count exceeds payload");
  }
  std::vector<Field> fields;
  fields.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    NODB_ASSIGN_OR_RETURN(uint8_t type, r->GetU8());
    if (type > static_cast<uint8_t>(DataType::kDate)) {
      return Status::ParseError("unknown column type in schema");
    }
    NODB_ASSIGN_OR_RETURN(std::string name, r->GetString());
    fields.push_back(Field{std::move(name), static_cast<DataType>(type)});
  }
  return Schema::Make(std::move(fields));
}

void EncodeBatchRows(const RecordBatch& batch, size_t row_begin,
                     size_t row_end, WireWriter* w) {
  size_t nrows = row_end - row_begin;
  w->PutU32(static_cast<uint32_t>(nrows));
  w->PutU32(static_cast<uint32_t>(batch.num_columns()));
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const ColumnVector& col = batch.column(c);
    w->PutU8(static_cast<uint8_t>(col.type()));
    for (size_t r = row_begin; r < row_end; ++r) {
      w->PutU8(col.IsNull(r) ? 0 : 1);
    }
    for (size_t r = row_begin; r < row_end; ++r) {
      if (col.IsNull(r)) continue;
      switch (col.type()) {
        case DataType::kInt64:
          w->PutI64(col.GetInt64(r));
          break;
        case DataType::kDate:
          w->PutI64(col.GetDate(r));
          break;
        case DataType::kDouble:
          w->PutDouble(col.GetDouble(r));
          break;
        case DataType::kString:
          w->PutString(col.GetString(r));
          break;
      }
    }
  }
}

Result<size_t> DecodeBatchInto(WireReader* r, RecordBatch* batch) {
  NODB_ASSIGN_OR_RETURN(uint32_t nrows, r->GetU32());
  NODB_ASSIGN_OR_RETURN(uint32_t ncols, r->GetU32());
  if (ncols != batch->num_columns()) {
    return Status::ParseError("batch column count does not match header");
  }
  for (size_t c = 0; c < ncols; ++c) {
    ColumnVector& col = batch->column(c);
    NODB_ASSIGN_OR_RETURN(uint8_t type, r->GetU8());
    if (type != static_cast<uint8_t>(col.type())) {
      return Status::ParseError("batch column type does not match header");
    }
    // Validity first (also the cheap structural bound: a hostile row
    // count dies here against the actual payload size).
    std::vector<uint8_t> valid(nrows);
    for (uint32_t i = 0; i < nrows; ++i) {
      NODB_ASSIGN_OR_RETURN(valid[i], r->GetU8());
    }
    for (uint32_t i = 0; i < nrows; ++i) {
      if (valid[i] == 0) {
        col.AppendNull();
        continue;
      }
      switch (col.type()) {
        case DataType::kInt64: {
          NODB_ASSIGN_OR_RETURN(int64_t v, r->GetI64());
          col.AppendInt64(v);
          break;
        }
        case DataType::kDate: {
          NODB_ASSIGN_OR_RETURN(int64_t v, r->GetI64());
          col.AppendDate(v);
          break;
        }
        case DataType::kDouble: {
          NODB_ASSIGN_OR_RETURN(double v, r->GetDouble());
          col.AppendDouble(v);
          break;
        }
        case DataType::kString: {
          NODB_ASSIGN_OR_RETURN(std::string v, r->GetString());
          col.AppendString(Slice(v));
          break;
        }
      }
    }
  }
  batch->SetNumRows(batch->num_rows() + nrows);
  return static_cast<size_t>(nrows);
}

namespace {

/// One table's run of the metrics block: a u32 field count, then one
/// 8-byte word per field in table order.
template <typename Record, size_t N>
void EncodeFields(const Record& record, const MetricField<Record> (&fields)[N],
                  WireWriter* w) {
  w->PutU32(static_cast<uint32_t>(N));
  for (const MetricField<Record>& f : fields) w->PutU64(f.Word(record));
}

/// Fills the fields a run carries; a shorter run (an older sender)
/// leaves the rest 0 and a longer one (a newer sender) has its extra
/// words skipped. A count past the payload fails on the first missing
/// word, with nothing allocated from it.
template <typename Record, size_t N>
Status DecodeFields(WireReader* r, const MetricField<Record> (&fields)[N],
                    Record* record) {
  NODB_ASSIGN_OR_RETURN(uint32_t count, r->GetU32());
  for (uint32_t i = 0; i < count; ++i) {
    NODB_ASSIGN_OR_RETURN(uint64_t word, r->GetU64());
    if (i < N) fields[i].SetWord(record, word);
  }
  return Status::OK();
}

}  // namespace

void EncodeQueryMetrics(const QueryMetrics& metrics, WireWriter* w) {
  EncodeFields(metrics, kQueryFields, w);
  EncodeFields(metrics.scan, kScanFields, w);
}

Result<QueryMetrics> DecodeQueryMetrics(WireReader* r) {
  QueryMetrics m;
  NODB_RETURN_NOT_OK(DecodeFields(r, kQueryFields, &m));
  NODB_RETURN_NOT_OK(DecodeFields(r, kScanFields, &m.scan));
  return m;
}

uint8_t WireCodeFor(StatusCode code) { return static_cast<uint8_t>(code); }

StatusCode StatusCodeFromWire(uint8_t code) {
  if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return StatusCode::kInternal;
  }
  return static_cast<StatusCode>(code);
}

/// ---- Transport --------------------------------------------------------

Result<int> ListenTcp(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(ErrnoMessage("socket"));
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Status::IOError(ErrnoMessage("bind"));
    CloseFd(fd);
    return status;
  }
  if (::listen(fd, 128) != 0) {
    Status status = Status::IOError(ErrnoMessage("listen"));
    CloseFd(fd);
    return status;
  }
  return fd;
}

Result<uint16_t> LocalPort(int fd) {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Status::IOError(ErrnoMessage("getsockname"));
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

void SetNoDelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Result<int> ConnectTcp(const std::string& host, uint16_t port) {
  const std::string& ip = host == "localhost" ? "127.0.0.1" : host;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError(ErrnoMessage("socket"));
  while (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
         0) {
    if (errno == EINTR) continue;
    Status status = Status::IOError(ErrnoMessage("connect " + host));
    CloseFd(fd);
    return status;
  }
  SetNoDelay(fd);
  return fd;
}

Status WriteFully(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t written = ::send(fd, p, n, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("send"));
    }
    p += written;
    n -= static_cast<size_t>(written);
  }
  return Status::OK();
}

Status ReadFully(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    ssize_t got = ::recv(fd, p, n, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(ErrnoMessage("recv"));
    }
    if (got == 0) return Status::IOError("connection closed");
    p += got;
    n -= static_cast<size_t>(got);
  }
  return Status::OK();
}

void CloseFd(int fd) {
  if (fd >= 0) (void)::close(fd);
}

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  // One send per frame: header and payload go out together so a
  // concurrent reader never sees a torn prefix from interleaved
  // writes on a dead socket.
  std::string buf;
  buf.reserve(5 + payload.size());
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (size_t i = 0; i < 4; ++i) {
    buf.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  buf.push_back(static_cast<char>(type));
  buf.append(payload.data(), payload.size());
  return WriteFully(fd, buf.data(), buf.size());
}

Result<Frame> ReadFrame(int fd, size_t max_frame_bytes) {
  uint8_t header[5];
  NODB_RETURN_NOT_OK(ReadFully(fd, header, sizeof(header)));
  uint32_t len = 0;
  for (size_t i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(header[i]) << (8 * i);
  }
  if (len > max_frame_bytes) {
    return Status::OutOfRange("frame of " + std::to_string(len) +
                              " bytes exceeds limit of " +
                              std::to_string(max_frame_bytes));
  }
  Frame frame;
  frame.type = static_cast<FrameType>(header[4]);
  frame.payload.resize(len);
  if (len > 0) {
    NODB_RETURN_NOT_OK(ReadFully(fd, frame.payload.data(), len));
  }
  return frame;
}

}  // namespace server
}  // namespace nodb
