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

#include "types/row_codec.h"

namespace nodb {
namespace server {

namespace {

std::string ErrnoMessage(const std::string& context) {
  return context + ": " + ::strerror(errno);
}

Status TruncatedPayload() {
  return Status::ParseError("truncated frame payload");
}

}  // namespace

Status ReadStatus(const WireReader& r) {
  return r.ok() ? Status::OK() : TruncatedPayload();
}

Status ExpectEnd(const WireReader& r) {
  NODB_RETURN_NOT_OK(ReadStatus(r));
  if (r.remaining() != 0) {
    return Status::ParseError("trailing bytes after frame payload");
  }
  return Status::OK();
}

/// ---- Typed payloads ---------------------------------------------------

void EncodeSchema(const Schema& schema, WireWriter* w) {
  w->Put<uint32_t>(static_cast<uint32_t>(schema.num_fields()));
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    const Field& field = schema.field(i);
    w->Put<uint8_t>(static_cast<uint8_t>(field.type));
    w->PutStr(field.name);
  }
}

Result<std::shared_ptr<Schema>> DecodeSchema(WireReader* r) {
  const uint32_t n = r->Get<uint32_t>();
  // A field needs at least 5 encoded bytes; this caps allocation from
  // a hostile count before anything is reserved.
  if (!r->FitsCount(n, 5)) return ReadStatus(*r);
  std::vector<Field> fields;
  fields.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const uint8_t type = r->Get<uint8_t>();
    const std::string_view name = r->Str();
    NODB_RETURN_NOT_OK(ReadStatus(*r));
    if (type > static_cast<uint8_t>(DataType::kDate)) {
      return Status::ParseError("unknown column type in schema");
    }
    fields.push_back(Field{std::string(name), static_cast<DataType>(type)});
  }
  return Schema::Make(std::move(fields));
}

void EncodeBatchRows(const RecordBatch& batch, size_t row_begin,
                     size_t row_end, WireWriter* w) {
  w->Put<uint32_t>(static_cast<uint32_t>(row_end - row_begin));
  w->Put<uint32_t>(static_cast<uint32_t>(batch.num_columns()));
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    const ColumnVector& col = batch.column(c);
    w->Put<uint8_t>(static_cast<uint8_t>(col.type()));
    EncodeRows(col, row_begin, row_end, w);
  }
}

Result<size_t> DecodeBatchInto(WireReader* r, RecordBatch* batch) {
  const uint32_t nrows = r->Get<uint32_t>();
  const uint32_t ncols = r->Get<uint32_t>();
  NODB_RETURN_NOT_OK(ReadStatus(*r));
  if (ncols != batch->num_columns()) {
    return Status::ParseError("batch column count does not match header");
  }
  for (size_t c = 0; c < ncols; ++c) {
    ColumnVector& col = batch->column(c);
    const uint8_t type = r->Get<uint8_t>();
    NODB_RETURN_NOT_OK(ReadStatus(*r));
    if (type != static_cast<uint8_t>(col.type())) {
      return Status::ParseError("batch column type does not match header");
    }
    // DecodeRows bounds nrows against the payload before it sizes the
    // column, so a hostile row count fails here without allocating.
    if (!DecodeRows(r, nrows, &col)) return TruncatedPayload();
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
  w->Put<uint32_t>(static_cast<uint32_t>(N));
  for (const MetricField<Record>& f : fields) {
    w->Put<uint64_t>(f.Word(record));
  }
}

/// Fills the fields a run carries; a shorter run (an older sender)
/// leaves the rest 0 and a longer one (a newer sender) has its extra
/// words skipped. A count past the payload fails before any word is
/// read.
template <typename Record, size_t N>
Status DecodeFields(WireReader* r, const MetricField<Record> (&fields)[N],
                    Record* record) {
  const uint32_t count = r->Get<uint32_t>();
  if (!r->FitsCount(count, 8)) return ReadStatus(*r);
  for (uint32_t i = 0; i < count; ++i) {
    const uint64_t word = r->Get<uint64_t>();
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
  WireWriter frame;
  frame.Reserve(5 + payload.size());
  frame.Put<uint32_t>(static_cast<uint32_t>(payload.size()));
  frame.Put<uint8_t>(static_cast<uint8_t>(type));
  frame.PutBytes(payload);
  return WriteFully(fd, frame.data().data(), frame.size());
}

Result<Frame> ReadFrame(int fd, size_t max_frame_bytes) {
  char header[5];
  NODB_RETURN_NOT_OK(ReadFully(fd, header, sizeof(header)));
  WireReader r(std::string_view(header, sizeof(header)));
  const uint32_t len = r.Get<uint32_t>();
  const auto type = static_cast<FrameType>(r.Get<uint8_t>());
  if (len > max_frame_bytes) {
    return Status::OutOfRange("frame of " + std::to_string(len) +
                              " bytes exceeds limit of " +
                              std::to_string(max_frame_bytes));
  }
  Frame frame;
  frame.type = type;
  frame.payload.resize(len);
  if (len > 0) {
    NODB_RETURN_NOT_OK(ReadFully(fd, frame.payload.data(), len));
  }
  return frame;
}

}  // namespace server
}  // namespace nodb
