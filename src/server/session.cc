#include "server/session.h"

#include <sys/socket.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/tenant.h"
#include "server/http.h"
#include "server/wire.h"

namespace nodb {
namespace server {

namespace {

/// Forwards the Volcano drain onto the socket: RESULT_HEADER once,
/// then RESULT_BATCH frames of at most `batch_rows` rows each. A write
/// failure (client hung up) propagates back through the drain loop and
/// aborts the query at the next batch boundary.
class WireBatchSink : public BatchSink {
 public:
  WireBatchSink(int fd, uint32_t batch_rows)
      : fd_(fd), batch_rows_(batch_rows == 0 ? 1 : batch_rows) {}

  Status OnSchema(const std::shared_ptr<Schema>& schema) override {
    WireWriter w;
    EncodeSchema(*schema, &w);
    return WriteFrame(fd_, FrameType::kResultHeader, w.data());
  }

  Status OnBatch(const RecordBatch& batch) override {
    for (size_t begin = 0; begin < batch.num_rows(); begin += batch_rows_) {
      size_t end = std::min(batch.num_rows(),
                            begin + static_cast<size_t>(batch_rows_));
      WireWriter w;
      EncodeBatchRows(batch, begin, end, &w);
      NODB_RETURN_NOT_OK(WriteFrame(fd_, FrameType::kResultBatch, w.data()));
      rows_sent_ += end - begin;
    }
    // An empty projection-only batch still counts rows.
    if (batch.num_columns() == 0) rows_sent_ += batch.num_rows();
    return Status::OK();
  }

  uint64_t rows_sent() const { return rows_sent_; }

 private:
  int fd_;
  uint32_t batch_rows_;
  uint64_t rows_sent_ = 0;
};

}  // namespace

ServerSession::ServerSession(SessionEnv* env, int fd, uint64_t id)
    : env_(env), fd_(fd), id_(id) {}

ServerSession::~ServerSession() { CloseFd(fd_); }

void ServerSession::BeginDrain() {
  draining_.store(true, std::memory_order_release);
  // Wakes a blocked ReadFrame with EOF; data already buffered still
  // arrives, which is why the draining_ check above stays load-bearing.
  (void)::shutdown(fd_, SHUT_RD);  // best-effort: fd may already be closed
}

void ServerSession::ForceCancel() {
  cancel_.Cancel();
  (void)::shutdown(fd_, SHUT_RDWR);  // best-effort: unblocks any socket wait
}

void ServerSession::Run() {
  char magic[4] = {0, 0, 0, 0};
  Status status = ReadFully(fd_, magic, sizeof(magic));
  if (status.ok()) {
    if (std::memcmp(magic, kMagic, sizeof(kMagic)) == 0) {
      RunBinary();
    } else {
      ServeHttp(env_, fd_, std::string_view(magic, sizeof(magic)));
    }
  }
  // The fd itself is closed by the destructor (BeginDrain/ForceCancel
  // may still poke it from the server thread); the peer gets its EOF
  // now, not at reap time.
  (void)::shutdown(fd_, SHUT_RDWR);  // best effort: peer may be gone
  finished_.store(true, std::memory_order_release);
}

Status ServerSession::SendError(const Status& error) {
  WireWriter w;
  w.Put<uint8_t>(WireCodeFor(error.code()));
  w.PutStr(error.message());
  return WriteFrame(fd_, FrameType::kError, w.data());
}

void ServerSession::RunBinary() {
  bool saw_hello = false;
  for (;;) {
    Result<Frame> frame =
        ReadFrame(fd_, env_->config->server_max_frame_bytes);
    if (!frame.ok()) {
      // Oversized length prefix: the stream position is unrecoverable,
      // so tell the client why and close. Truncation/EOF just closes.
      if (frame.status().IsOutOfRange()) {
        (void)SendError(frame.status());  // best effort on a doomed stream
      }
      return;
    }
    if (!saw_hello && frame->type != FrameType::kHello) {
      (void)SendError(  // best effort: closing either way
          Status::InvalidArgument("first frame must be HELLO"));
      return;
    }
    Status status = Status::OK();
    switch (frame->type) {
      case FrameType::kHello:
        status = HandleHello(frame->payload, &saw_hello);
        break;
      case FrameType::kQuery:
        status = HandleQuery(frame->payload);
        break;
      case FrameType::kMetricsRequest:
        status = HandleMetrics(frame->payload);
        break;
      case FrameType::kShutdown:
        if (!env_->config->server_allow_remote_shutdown) {
          status = SendError(Status::InvalidArgument(
              "remote shutdown is disabled (server_allow_remote_shutdown)"));
          break;
        }
        (void)WriteFrame(fd_, FrameType::kGoodbye, "");  // peer is leaving
        env_->request_shutdown();
        return;
      case FrameType::kGoodbye:
        return;
      default:
        // Unknown type with intact framing: survivable.
        status = SendError(Status::InvalidArgument(
            "unknown frame type " +
            std::to_string(static_cast<int>(frame->type))));
        break;
    }
    // A non-OK status here means the socket itself failed; protocol
    // errors were already answered with an ERROR frame.
    if (!status.ok()) return;
  }
}

Status ServerSession::HandleHello(const std::string& payload,
                                  bool* saw_hello) {
  WireReader r(payload);
  // The version comes first and is checked before the rest is read:
  // another version's HELLO may lay its fields out differently.
  const uint16_t version = r.Get<uint16_t>();
  Status read = ReadStatus(r);
  if (!read.ok()) return SendError(read);
  if (version != kProtocolVersion) {
    return SendError(Status::InvalidArgument(
        "protocol version " + std::to_string(version) +
        " not supported (server speaks " +
        std::to_string(kProtocolVersion) + ")"));
  }
  const std::string tenant(r.Str());
  const std::string_view client = r.Str();
  Status end = ExpectEnd(r);
  if (!end.ok()) return SendError(end);
  if (tenant.empty()) {
    return SendError(
        Status::InvalidArgument("HELLO must name a non-empty tenant"));
  }
  tenant_id_ = obs::TenantIdFor(tenant);
  session_ = std::make_unique<QuerySession>(
      env_->engine,
      tenant + "/" + std::string(client) + "#" + std::to_string(id_));
  *saw_hello = true;
  WireWriter w;
  w.Put<uint16_t>(kProtocolVersion);
  w.PutStr(env_->server_name);
  return WriteFrame(fd_, FrameType::kHelloOk, w.data());
}

Status ServerSession::HandleQuery(const std::string& payload) {
  WireReader r(payload);
  const std::string_view sql = r.Str();
  Status end = ExpectEnd(r);
  if (!end.ok()) return SendError(end);

  if (draining_.load(std::memory_order_acquire)) {
    WireWriter w;
    w.PutStr("server is draining");
    return WriteFrame(fd_, FrameType::kRejected, w.data());
  }
  Result<AdmissionTicket> ticket = env_->admission->Admit(tenant_id_);
  if (!ticket.ok()) {
    if (ticket.status().IsUnavailable()) {
      WireWriter w;
      w.PutStr(ticket.status().message());
      return WriteFrame(fd_, FrameType::kRejected, w.data());
    }
    return SendError(ticket.status());
  }

  WireBatchSink sink(fd_, env_->config->server_result_batch_rows);
  obs::ScopedTenantLabel tenant_label(tenant_id_);
  Result<QueryOutcome> outcome =
      session_->ExecuteStreaming(sql, &sink, &cancel_);
  // Release before the terminal frame goes out: a client that has seen
  // RESULT_DONE/ERROR may immediately issue (or observe) another query,
  // and its slot must already be free by then.
  ticket->Release();
  if (!outcome.ok()) {
    // Covers query errors after RESULT_HEADER too: an ERROR frame
    // terminates the result stream wherever it lands. If the failure
    // was the socket itself, this send fails and closes the loop.
    return SendError(outcome.status());
  }
  env_->admission->RecordRowsServed(tenant_id_, sink.rows_sent());
  WireWriter w;
  w.Put<uint64_t>(sink.rows_sent());
  EncodeQueryMetrics(outcome->metrics, &w);
  return WriteFrame(fd_, FrameType::kResultDone, w.data());
}

Status ServerSession::HandleMetrics(const std::string& payload) {
  WireReader r(payload);
  const uint8_t format = r.Get<uint8_t>();
  Status end = ExpectEnd(r);
  if (!end.ok()) return SendError(end);
  if (format > 1) {
    return SendError(Status::InvalidArgument(
        "unknown metrics format " + std::to_string(format)));
  }
  WireWriter w;
  w.PutStr(env_->render_metrics(format == 1));
  return WriteFrame(fd_, FrameType::kMetricsReply, w.data());
}

}  // namespace server
}  // namespace nodb
