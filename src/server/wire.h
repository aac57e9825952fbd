#ifndef NODB_SERVER_WIRE_H_
#define NODB_SERVER_WIRE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "monitor/query_metrics.h"
#include "types/record_batch.h"
#include "types/schema.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/status.h"

namespace nodb {
namespace server {

/// The NoDB wire protocol.
///
/// A connection opens with the 4-byte magic "NoDB" (which also lets
/// one listener tell binary clients from HTTP requests — no HTTP verb
/// starts with these bytes), followed by length-prefixed frames:
///
///   u32 payload length (LE) | u8 frame type | payload
///
/// All integers are little-endian; strings are u32 length + raw bytes;
/// doubles travel as their IEEE-754 bit pattern so results round-trip
/// bit-identically. The conversation:
///
///   client: HELLO{version, tenant, client}     server: HELLO_OK{name}
///   client: QUERY{sql}                         server: RESULT_HEADER
///                                                      RESULT_BATCH*
///                                                      RESULT_DONE
///                                              or      ERROR / REJECTED
///   client: METRICS{format}                    server: METRICS_REPLY
///   client: SHUTDOWN                           server: GOODBYE (drain)
///   client: GOODBYE                            (either side closes)
///
/// Result batches stream straight out of the Volcano drain, chunked to
/// NoDbConfig::server_result_batch_rows rows per frame, so the first
/// rows of a large answer arrive while the scan is still running.
inline constexpr char kMagic[4] = {'N', 'o', 'D', 'B'};
inline constexpr uint16_t kProtocolVersion = 3;

enum class FrameType : uint8_t {
  kHello = 1,
  kHelloOk = 2,
  kQuery = 3,
  kResultHeader = 4,
  kResultBatch = 5,
  kResultDone = 6,
  kError = 7,
  kRejected = 8,
  kMetricsRequest = 9,
  kMetricsReply = 10,
  kGoodbye = 11,
  kShutdown = 12,
};

/// One decoded frame (payload still wire-encoded).
struct Frame {
  FrameType type = FrameType::kGoodbye;
  std::string payload;
};

/// Payloads are written and read with the shared byte codec
/// (util/bytes.h), the one the snapshot sidecar uses. A read past the
/// payload latches the reader's error, so a fuzzer's truncated frame
/// becomes an ERROR reply, never a crash.
using WireWriter = ByteWriter;
using WireReader = ByteReader;

/// ParseError("truncated frame payload") once a read ran past the
/// payload, else OK. A decoder checks it before it acts on a value.
Status ReadStatus(const WireReader& r);

/// ReadStatus, then a ParseError when bytes are left after the last
/// field (a protocol error).
Status ExpectEnd(const WireReader& r);

/// ---- Typed payloads ---------------------------------------------------

void EncodeSchema(const Schema& schema, WireWriter* w);
Result<std::shared_ptr<Schema>> DecodeSchema(WireReader* r);

/// Rows [row_begin, row_end) of `batch`: u32 row count, u32 column
/// count, then per column a u8 type and its rows in the shared row
/// layout (types/row_codec.h).
void EncodeBatchRows(const RecordBatch& batch, size_t row_begin,
                     size_t row_end, WireWriter* w);

/// Appends the frame's rows onto `batch` (whose schema must match the
/// preceding RESULT_HEADER). Returns the row count appended. A row
/// count the payload cannot hold fails before anything is sized.
Result<size_t> DecodeBatchInto(WireReader* r, RecordBatch* batch);

/// The full cost breakdown travels in RESULT_DONE so a remote shell's
/// `\timing` renders through the same MonitorPanel code as a local one
/// (the sql text stays client-side and is not re-sent). The block is
/// two runs, kQueryFields then kScanFields, each a u32 field count and
/// that many 8-byte words in table order. Fields append at the end of
/// their table, so either side may be newer without a version bump:
/// the decoder skips words it has no field for and leaves fields the
/// sender did not send at 0.
void EncodeQueryMetrics(const QueryMetrics& metrics, WireWriter* w);
Result<QueryMetrics> DecodeQueryMetrics(WireReader* r);

/// StatusCode <-> wire byte for ERROR frames (unknown bytes decode as
/// kInternal rather than failing — forward compatibility).
uint8_t WireCodeFor(StatusCode code);
StatusCode StatusCodeFromWire(uint8_t code);

/// ---- Transport --------------------------------------------------------

/// Binds and listens on 127.0.0.1:`port` (0 = ephemeral). Returns the
/// listening fd.
Result<int> ListenTcp(uint16_t port);

/// The locally-bound port of a listening fd (resolves port 0).
Result<uint16_t> LocalPort(int fd);

/// Disables Nagle on `fd`. Frames are written whole, so coalescing
/// small writes only adds delayed-ACK stalls; both ends of every
/// connection want this (ConnectTcp applies it itself; accepted fds
/// must opt in).
void SetNoDelay(int fd);

/// Connects to `host`:`port`; `host` must be an IPv4 literal or
/// "localhost".
Result<int> ConnectTcp(const std::string& host, uint16_t port);

/// Loops over partial writes/reads; EINTR-safe; writes suppress
/// SIGPIPE. ReadFully reports a clean mid-stream EOF as IOError
/// "connection closed".
Status WriteFully(int fd, const void* data, size_t n);
Status ReadFully(int fd, void* data, size_t n);

void CloseFd(int fd);

/// One frame out / in. ReadFrame refuses payloads over
/// `max_frame_bytes` *before* allocating (the anti-DoS check); the
/// caller decides whether that kills the connection.
Status WriteFrame(int fd, FrameType type, std::string_view payload);
Result<Frame> ReadFrame(int fd, size_t max_frame_bytes);

}  // namespace server
}  // namespace nodb

#endif  // NODB_SERVER_WIRE_H_
