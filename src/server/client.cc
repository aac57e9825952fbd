#include "server/client.h"

#include <memory>
#include <utility>

#include "server/wire.h"

namespace nodb {
namespace server {

namespace {

/// Client-side receive cap. Deliberately larger than the server's
/// default send-side frame budget: a lagging client should never be
/// the one to declare a healthy server's batch oversized.
constexpr size_t kClientMaxFrameBytes = 256u << 20;

Status DecodeError(const Frame& frame) {
  WireReader r(frame.payload);
  const uint8_t code = r.Get<uint8_t>();
  const std::string_view message = r.Str();
  NODB_RETURN_NOT_OK(ReadStatus(r));
  return Status(StatusCodeFromWire(code), std::string(message));
}

Status DecodeRejected(const Frame& frame) {
  WireReader r(frame.payload);
  const std::string_view message = r.Str();
  NODB_RETURN_NOT_OK(ReadStatus(r));
  return Status::Unavailable(std::string(message));
}

}  // namespace

Result<ClientConnection> ClientConnection::Connect(
    const std::string& host, uint16_t port, const std::string& tenant,
    const std::string& client_name) {
  ClientConnection conn;
  conn.max_frame_bytes_ = kClientMaxFrameBytes;
  NODB_ASSIGN_OR_RETURN(conn.fd_, ConnectTcp(host, port));
  NODB_RETURN_NOT_OK(WriteFully(conn.fd_, kMagic, sizeof(kMagic)));
  WireWriter hello;
  hello.Put<uint16_t>(kProtocolVersion);
  hello.PutStr(tenant);
  hello.PutStr(client_name);
  NODB_RETURN_NOT_OK(WriteFrame(conn.fd_, FrameType::kHello, hello.data()));
  NODB_ASSIGN_OR_RETURN(Frame frame,
                        ReadFrame(conn.fd_, conn.max_frame_bytes_));
  if (frame.type == FrameType::kError) return DecodeError(frame);
  if (frame.type != FrameType::kHelloOk) {
    return Status::ParseError("expected HELLO_OK from server");
  }
  WireReader r(frame.payload);
  const uint16_t version = r.Get<uint16_t>();
  NODB_RETURN_NOT_OK(ReadStatus(r));
  if (version != kProtocolVersion) {
    return Status::InvalidArgument("server speaks protocol version " +
                                   std::to_string(version));
  }
  conn.server_name_ = std::string(r.Str());
  NODB_RETURN_NOT_OK(ReadStatus(r));
  return conn;
}

ClientConnection::ClientConnection(ClientConnection&& other) noexcept {
  *this = std::move(other);
}

ClientConnection& ClientConnection::operator=(
    ClientConnection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    server_name_ = std::move(other.server_name_);
    max_frame_bytes_ = other.max_frame_bytes_;
    other.fd_ = -1;
  }
  return *this;
}

ClientConnection::~ClientConnection() { Close(); }

void ClientConnection::Close() {
  if (fd_ < 0) return;
  (void)WriteFrame(fd_, FrameType::kGoodbye, "");  // best effort: closing
  CloseFd(fd_);
  fd_ = -1;
}

Result<QueryOutcome> ClientConnection::Execute(std::string_view sql) {
  if (fd_ < 0) return Status::IOError("not connected");
  WireWriter query;
  query.PutStr(sql);
  Status sent = WriteFrame(fd_, FrameType::kQuery, query.data());
  if (!sent.ok()) {
    CloseFd(fd_);
    fd_ = -1;
    return sent;
  }
  std::shared_ptr<RecordBatch> rows;
  std::shared_ptr<Schema> schema;
  for (;;) {
    Result<Frame> frame = ReadFrame(fd_, max_frame_bytes_);
    if (!frame.ok()) {
      // Transport failure mid-conversation: the stream position is
      // unknown, so the connection is unusable from here on.
      CloseFd(fd_);
      fd_ = -1;
      return frame.status();
    }
    switch (frame->type) {
      case FrameType::kResultHeader: {
        WireReader r(frame->payload);
        NODB_ASSIGN_OR_RETURN(schema, DecodeSchema(&r));
        NODB_RETURN_NOT_OK(ExpectEnd(r));
        rows = std::make_shared<RecordBatch>(schema);
        break;
      }
      case FrameType::kResultBatch: {
        if (rows == nullptr) {
          return Status::ParseError("RESULT_BATCH before RESULT_HEADER");
        }
        WireReader r(frame->payload);
        NODB_RETURN_NOT_OK(DecodeBatchInto(&r, rows.get()).status());
        NODB_RETURN_NOT_OK(ExpectEnd(r));
        break;
      }
      case FrameType::kResultDone: {
        if (rows == nullptr) {
          return Status::ParseError("RESULT_DONE before RESULT_HEADER");
        }
        WireReader r(frame->payload);
        const uint64_t total_rows = r.Get<uint64_t>();
        NODB_RETURN_NOT_OK(ReadStatus(r));
        if (total_rows != rows->num_rows()) {
          return Status::Internal(
              "row count mismatch: server sent " +
              std::to_string(total_rows) + ", received " +
              std::to_string(rows->num_rows()));
        }
        NODB_ASSIGN_OR_RETURN(QueryMetrics metrics, DecodeQueryMetrics(&r));
        NODB_RETURN_NOT_OK(ExpectEnd(r));
        metrics.sql = std::string(sql);
        QueryOutcome outcome;
        outcome.result = QueryResult::FromParts(schema, std::move(rows));
        outcome.metrics = std::move(metrics);
        return outcome;
      }
      case FrameType::kError:
        return DecodeError(*frame);
      case FrameType::kRejected:
        return DecodeRejected(*frame);
      default:
        return Status::ParseError("unexpected frame type in query reply");
    }
  }
}

Result<std::string> ClientConnection::FetchMetrics(bool prometheus) {
  if (fd_ < 0) return Status::IOError("not connected");
  WireWriter request;
  request.Put<uint8_t>(prometheus ? 1 : 0);
  NODB_RETURN_NOT_OK(
      WriteFrame(fd_, FrameType::kMetricsRequest, request.data()));
  NODB_ASSIGN_OR_RETURN(Frame frame, ReadFrame(fd_, max_frame_bytes_));
  if (frame.type == FrameType::kError) return DecodeError(frame);
  if (frame.type != FrameType::kMetricsReply) {
    return Status::ParseError("expected METRICS_REPLY from server");
  }
  WireReader r(frame.payload);
  std::string body(r.Str());
  NODB_RETURN_NOT_OK(ExpectEnd(r));
  return body;
}

Status ClientConnection::SendShutdown() {
  if (fd_ < 0) return Status::IOError("not connected");
  NODB_RETURN_NOT_OK(WriteFrame(fd_, FrameType::kShutdown, ""));
  NODB_ASSIGN_OR_RETURN(Frame frame, ReadFrame(fd_, max_frame_bytes_));
  if (frame.type == FrameType::kError) return DecodeError(frame);
  if (frame.type != FrameType::kGoodbye) {
    return Status::ParseError("expected GOODBYE from server");
  }
  CloseFd(fd_);
  fd_ = -1;
  return Status::OK();
}

}  // namespace server
}  // namespace nodb
