#ifndef NODB_PERSIST_SNAPSHOT_H_
#define NODB_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "persist/image.h"
#include "raw/table_state.h"
#include "util/result.h"
#include "util/status.h"

namespace nodb::persist {

/// Persistent adaptive-state snapshots.
///
/// NoDB's auxiliary structures are built as a side effect of queries;
/// the paper notes the positional map "can also be written to disk"
/// so its benefit survives restarts. This subsystem does exactly that
/// for all four structures — positional map (row index + chunks),
/// on-the-fly statistics (samples, heat), zone maps, and the shadow
/// column store — in a versioned sidecar next to the raw file
/// (`<data>.nodbmeta` by default).
///
/// Format (little-endian, version 1):
///
///   magic "NODBMET1" | u32 version | u32 rows_per_block
///   | raw-file signature: u64 size, i64 mtime_ns, u64 head_hash,
///     u64 tail_hash, u64 probe_bytes
///   | u64 schema+dialect fingerprint | u32 section_count
///   | directory: {u32 id, u64 offset, u64 length, u32 crc32c} ×
///     section_count
///   | u32 header_crc32c
///   | section payloads
///
/// Durability and trust model:
///  - Written crash-safely (WriteFileAtomic: temp + fsync + rename) —
///    a torn write leaves the previous snapshot, not a broken one.
///  - The header binds the snapshot to the raw file's *content*
///    (bounded prefix/suffix hashes, verified on load even when
///    size+mtime match — detection is as strong as the live
///    update check's O(1) probes, no stronger) and to the schema,
///    dialect and row-block granularity it was built under.
///  - Every section carries its own CRC32C; a stale, truncated or
///    corrupt section makes exactly that structure start cold. A bad
///    header discards the whole snapshot. Recovery can therefore
///    never error out and never change query results — the sidecar is
///    a pure accelerator.
///  - A cleanly appended raw file (old content newline-terminated and
///    byte-identical) recovers the whole prefix; discovery reopens
///    and only the appended tail pays first-touch costs, mirroring
///    RawTableState::CheckForUpdates.
class Snapshot {
 public:
  static constexpr char kMagic[8] = {'N', 'O', 'D', 'B',
                                     'M', 'E', 'T', '1'};
  static constexpr uint32_t kVersion = 1;

  // Section ids (directory entries appear in this order).
  static constexpr uint32_t kSectionMap = 1;    ///< row index + chunks
  static constexpr uint32_t kSectionStats = 2;  ///< samples + heat
  static constexpr uint32_t kSectionZones = 3;
  static constexpr uint32_t kSectionStore = 4;  ///< manifest + segments
};

/// "table.csv" -> "table.csv.nodbmeta" (sidecar next to the data).
std::string DefaultSnapshotPath(const std::string& data_path);

/// Resolves where `info`'s snapshot lives under the configured
/// `snapshot_path`: the default sidecar when empty, otherwise
/// `<snapshot_path>/<basename>.nodbmeta`.
std::string SnapshotPathFor(const RawTableInfo& info,
                            const std::string& snapshot_path);

/// Freezes `state`'s adaptive structures and writes them crash-safely
/// to `path`. The recorded raw-file signature is the one the state
/// holds (captured when the structures were last validated), so the
/// snapshot is self-consistent even if the raw file changed since the
/// last query — the loader will then classify it stale and cold-start.
Status WriteSnapshot(const RawTableState& state, const std::string& path);

/// Validates the sidecar at `path` against the live raw file and thaws
/// every intact section into `state`. Degradations (missing sidecar,
/// stale signature, corrupt/truncated sections, already-warm
/// structures) are never errors: the returned report says what was
/// recovered and why the rest was not, and the same report is stored
/// on the state for MonitorPanel. Only pathological conditions (null
/// state) report a Status error.
Result<RecoveryReport> LoadSnapshot(RawTableState* state,
                                    const std::string& path);

/// Parsed snapshot layout (tests, fuzzing, shell inspection).
struct SectionInfo {
  uint32_t id = 0;
  uint64_t offset = 0;  ///< absolute byte offset of the payload
  uint64_t length = 0;
  uint32_t crc = 0;
};
struct SnapshotLayout {
  uint32_t version = 0;
  uint32_t rows_per_block = 0;
  uint64_t raw_size = 0;
  int64_t raw_mtime_nanos = 0;
  uint64_t head_hash = 0;
  uint64_t tail_hash = 0;
  uint64_t probe_bytes = 0;
  uint64_t schema_hash = 0;
  std::vector<SectionInfo> sections;
};

/// Reads and verifies just the header/directory of the sidecar at
/// `path` (payload CRCs are not checked).
Result<SnapshotLayout> InspectSnapshot(const std::string& path);

/// Fingerprint binding a snapshot to the table definition it was
/// built under: schema field names/types plus the CSV dialect.
uint64_t SchemaFingerprint(const RawTableInfo& info);

const char* SectionName(uint32_t id);

}  // namespace nodb::persist

#endif  // NODB_PERSIST_SNAPSHOT_H_
