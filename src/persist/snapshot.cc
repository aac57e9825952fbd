#include "persist/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "io/file.h"
#include "obs/metrics.h"
#include "util/checksum.h"
#include "util/hash.h"
#include "util/stopwatch.h"

namespace nodb::persist {

namespace {

// ------------------------------------------------- binary primitives
// The format is little-endian fixed-width; on a little-endian host a
// value's or an array's in-memory bytes are its encoding, so every
// field and counted array moves with one copy. std::string is the
// write buffer.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "snapshot sections are copied as little-endian host bytes");

template <typename T>
void Put(std::string* out, T v) {
  static_assert(std::is_arithmetic_v<T>);
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// A `Count`-wide element count, then the elements.
template <typename Count, typename T>
void PutArray(std::string* out, const std::vector<T>& v) {
  Put<Count>(out, static_cast<Count>(v.size()));
  out->append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

void PutStr(std::string* out, std::string_view s) {
  Put<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

/// Reads a T at `p` and steps past it; the caller has bounds-checked.
template <typename T>
T Load(const char*& p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  p += sizeof(T);
  return v;
}

/// Bounds-checked sequential reader over a section payload. Any
/// overrun flips `ok` and every subsequent read returns zero — the
/// caller checks `ok` once at the end and drops the section.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size)
      : p_(data), end_(data + size) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  /// The next `n` bytes, or nullptr (and !ok()) when fewer are left.
  const char* Take(size_t n) {
    if (remaining() < n) {
      ok_ = false;
      p_ = end_;
      return nullptr;
    }
    const char* at = p_;
    p_ += n;
    return at;
  }

  template <typename T>
  T Get() {
    const char* at = Take(sizeof(T));
    return at == nullptr ? T{} : Load<T>(at);
  }

  /// A counted array written by PutArray: one bounds check, one copy.
  template <typename Count, typename T>
  bool GetArray(std::vector<T>* out) {
    const uint64_t n = Get<Count>();
    if (!FitsCount(n, sizeof(T))) return false;
    out->resize(n);
    const char* at = Take(n * sizeof(T));
    if (n > 0) std::memcpy(out->data(), at, n * sizeof(T));
    return true;
  }

  /// A string written by PutStr, viewed in the payload.
  std::string_view Str() {
    const uint32_t len = Get<uint32_t>();
    const char* at = Take(len);
    return at == nullptr ? std::string_view() : std::string_view(at, len);
  }

  /// Guards a count field against absurd values: each element needs at
  /// least `elem_bytes` more payload, so a corrupt count that slipped
  /// past the CRC cannot drive a huge allocation.
  bool FitsCount(uint64_t count, size_t elem_bytes) {
    if (!ok_ || count > remaining() / elem_bytes) {
      ok_ = false;
      return false;
    }
    return true;
  }

 private:
  const char* p_;
  const char* end_;
  bool ok_ = true;
};

// ---------------------------------------------------- section codecs

void EncodeMap(const PositionalMap::Image& image, std::string* out) {
  PutArray<uint64_t>(out, image.row_starts);
  Put<uint8_t>(out, image.rows_complete ? 1 : 0);
  Put<uint64_t>(out, image.indexed_file_size);
  Put<uint64_t>(out, image.next_discovery_offset);
  Put<uint64_t>(out, image.chunks.size());
  for (const auto& chunk : image.chunks) {
    Put<uint64_t>(out, chunk.first_row);
    PutArray<uint32_t>(out, chunk.attrs);
    PutArray<uint64_t>(out, chunk.data);
  }
}

bool DecodeMap(const char* data, size_t size, PositionalMap::Image* out) {
  ByteReader r(data, size);
  if (!r.GetArray<uint64_t>(&out->row_starts)) return false;
  out->rows_complete = r.Get<uint8_t>() != 0;
  out->indexed_file_size = r.Get<uint64_t>();
  out->next_discovery_offset = r.Get<uint64_t>();
  const uint64_t chunks = r.Get<uint64_t>();
  if (!r.FitsCount(chunks, 8 + 4 + 8)) return false;
  out->chunks.resize(chunks);
  for (auto& chunk : out->chunks) {
    chunk.first_row = r.Get<uint64_t>();
    if (!r.GetArray<uint32_t>(&chunk.attrs) ||
        !r.GetArray<uint64_t>(&chunk.data)) {
      return false;
    }
    // A chunk's data is rows × attrs × {start,end}.
    const size_t stride = 2 * chunk.attrs.size();
    if (stride == 0 ? !chunk.data.empty() : chunk.data.size() % stride != 0) {
      return false;
    }
  }
  return r.ok();
}

void EncodeStats(const StatsCollector::Image& image, std::string* out) {
  Put<uint32_t>(out, static_cast<uint32_t>(image.attrs.size()));
  for (const auto& attr : image.attrs) {
    Put<uint8_t>(out, attr.has_value() ? 1 : 0);
    if (!attr.has_value()) continue;
    Put<uint64_t>(out, attr->count);
    // Version 1 also holds a null count, global bounds and a distinct-
    // value sketch: the null count is what the sample did not see, the
    // bounds and the sketch are written empty.
    Put<uint64_t>(out, attr->count - attr->sampled_stream);
    Put<uint8_t>(out, 0);
    Put<double>(out, 0);
    Put<uint8_t>(out, 0);
    Put<double>(out, 0);
    Put<uint64_t>(out, 0);
    PutArray<uint64_t>(out, attr->numeric_sample);
    Put<uint64_t>(out, attr->string_sample.size());
    for (const std::string& s : attr->string_sample) PutStr(out, s);
    Put<uint64_t>(out, attr->sampled_stream);
  }
  PutArray<uint64_t>(out, image.heat);
  PutArray<uint64_t>(out, image.observed);
}

bool DecodeStats(const char* data, size_t size,
                 StatsCollector::Image* out) {
  ByteReader r(data, size);
  const uint32_t nattrs = r.Get<uint32_t>();
  if (!r.FitsCount(nattrs, 1)) return false;
  out->attrs.resize(nattrs);
  for (auto& slot : out->attrs) {
    if (r.Get<uint8_t>() == 0) continue;
    AttributeStats::Image& attr = slot.emplace();
    attr.count = r.Get<uint64_t>();
    // The null count, the bounds and the sketch are skipped.
    r.Take(8 + 2 * (1 + 8));
    const uint64_t sketch = r.Get<uint64_t>();
    if (!r.FitsCount(sketch, 8)) return false;
    r.Take(sketch * 8);
    if (!r.GetArray<uint64_t>(&attr.numeric_sample)) return false;
    const uint64_t nstr = r.Get<uint64_t>();
    if (!r.FitsCount(nstr, 4)) return false;
    attr.string_sample.reserve(nstr);
    for (uint64_t i = 0; i < nstr; ++i) {
      attr.string_sample.emplace_back(r.Str());
    }
    attr.sampled_stream = r.Get<uint64_t>();
    if (attr.sampled_stream > attr.count) return false;
  }
  return r.GetArray<uint64_t>(&out->heat) &&
         r.GetArray<uint64_t>(&out->observed) && r.ok();
}

// attr, block, flags, min_i, max_i, min_d, max_d, rows.
constexpr size_t kZoneEntryBytes = 4 + 8 + 1 + 8 * 5;

void EncodeZones(const ZoneMaps::Image& image, std::string* out) {
  Put<uint64_t>(out, image.entries.size());
  for (const auto& ei : image.entries) {
    Put<uint32_t>(out, ei.attr);
    Put<uint64_t>(out, ei.block);
    uint8_t flags = 0;
    if (ei.entry.is_int) flags |= 1;
    if (ei.entry.has_null) flags |= 2;
    if (ei.entry.non_null) flags |= 4;
    if (ei.entry.unsafe) flags |= 8;
    Put<uint8_t>(out, flags);
    Put<int64_t>(out, ei.entry.min_i);
    Put<int64_t>(out, ei.entry.max_i);
    Put<double>(out, ei.entry.min_d);
    Put<double>(out, ei.entry.max_d);
    Put<uint64_t>(out, ei.entry.rows);
  }
}

bool DecodeZones(const char* data, size_t size, ZoneMaps::Image* out) {
  ByteReader r(data, size);
  const uint64_t n = r.Get<uint64_t>();
  if (!r.FitsCount(n, kZoneEntryBytes)) return false;
  const char* p = r.Take(n * kZoneEntryBytes);
  out->entries.resize(n);
  for (auto& ei : out->entries) {
    ei.attr = Load<uint32_t>(p);
    ei.block = Load<uint64_t>(p);
    const uint8_t flags = Load<uint8_t>(p);
    ei.entry.is_int = (flags & 1) != 0;
    ei.entry.has_null = (flags & 2) != 0;
    ei.entry.non_null = (flags & 4) != 0;
    ei.entry.unsafe = (flags & 8) != 0;
    ei.entry.min_i = Load<int64_t>(p);
    ei.entry.max_i = Load<int64_t>(p);
    ei.entry.min_d = Load<double>(p);
    ei.entry.max_d = Load<double>(p);
    ei.entry.rows = Load<uint64_t>(p);
  }
  return r.ok();
}

// A store segment's rows are each a flag byte (0 = NULL) followed, for
// a valid row, by its value: 8 bytes for INT, DATE and DOUBLE, a
// u32-length-prefixed string for STRING.

void EncodeRows(const ColumnVector& col, std::string* out) {
  const uint8_t* validity = col.validity();
  if (col.type() == DataType::kString) {
    for (size_t i = 0; i < col.size(); ++i) {
      Put<uint8_t>(out, validity[i] != 0 ? 1 : 0);
      if (validity[i] != 0) PutStr(out, col.GetString(i));
    }
    return;
  }
  // Both fixed-width payload arrays hold 8-byte values.
  const char* values =
      col.type() == DataType::kDouble
          ? reinterpret_cast<const char*>(col.double_data())
          : reinterpret_cast<const char*>(col.int64_data());
  const size_t begin = out->size();
  out->resize(begin + col.size() * 9);  // as if every row were valid
  char* p = out->data() + begin;
  for (size_t i = 0; i < col.size(); ++i) {
    *p++ = validity[i] != 0 ? 1 : 0;
    if (validity[i] == 0) continue;
    std::memcpy(p, values + 8 * i, 8);
    p += 8;
  }
  out->resize(static_cast<size_t>(p - out->data()));
}

bool DecodeFixedRows(ByteReader* r, uint64_t rows, ColumnVector* col) {
  ColumnVector::FixedWriter w = col->WriteFixed(rows);
  char* values = w.ints != nullptr ? reinterpret_cast<char*>(w.ints)
                                   : reinterpret_cast<char*>(w.doubles);
  uint64_t i = 0;
  // No row takes more than 9 bytes, so the next remaining()/9 rows fit
  // whatever their flags say: one bounds check covers all of them.
  // That is every row unless this segment ends the section.
  while (i < rows) {
    const uint64_t safe = std::min<uint64_t>(rows - i, r->remaining() / 9);
    if (safe == 0) break;
    const char* const start = r->Take(0);
    const char* p = start;
    for (const uint64_t end = i + safe; i < end; ++i) {
      const bool valid = Load<uint8_t>(p) != 0;
      w.validity[i] = valid ? 1 : 0;
      if (!valid) continue;
      std::memcpy(values + 8 * i, p, 8);
      p += 8;
    }
    r->Take(static_cast<size_t>(p - start));
  }
  // Fewer than 9 bytes are left, too few for a valid row: the rest
  // must be NULL flags.
  const uint64_t tail = rows - i;
  if (!r->FitsCount(tail, 1)) return false;
  const char* flags = r->Take(tail);
  for (uint64_t k = 0; k < tail; ++k, ++i) {
    if (flags[k] != 0) return false;
    w.validity[i] = 0;
  }
  return true;
}

bool DecodeStringRows(ByteReader* r, uint64_t rows, ColumnVector* col) {
  col->Reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    if (r->Get<uint8_t>() == 0) {
      col->AppendNull();
      continue;
    }
    const std::string_view s = r->Str();
    col->AppendString(Slice(s.data(), s.size()));
  }
  return r->ok();
}

void EncodeStore(const SegmentStore::Image& image, std::string* out) {
  Put<uint64_t>(out, image.segments.size());
  for (const auto& seg : image.segments) {
    const ColumnVector& col = *seg.segment;
    Put<uint32_t>(out, seg.attr);
    Put<uint64_t>(out, seg.block);
    Put<uint8_t>(out, static_cast<uint8_t>(col.type()));
    Put<uint64_t>(out, col.size());
    EncodeRows(col, out);
  }
}

bool DecodeStore(const char* data, size_t size, const Schema& schema,
                 SegmentStore::Image* out) {
  ByteReader r(data, size);
  const uint64_t n = r.Get<uint64_t>();
  if (!r.FitsCount(n, 4 + 8 + 1 + 8)) return false;
  out->segments.reserve(n);
  for (uint64_t s = 0; s < n; ++s) {
    const uint32_t attr = r.Get<uint32_t>();
    const uint64_t block = r.Get<uint64_t>();
    const uint8_t type_byte = r.Get<uint8_t>();
    const uint64_t rows = r.Get<uint64_t>();
    if (!r.FitsCount(rows, 1) ||
        type_byte > static_cast<uint8_t>(DataType::kDate)) {
      return false;
    }
    // The schema fingerprint makes a segment of another attribute or
    // type unreachable short of a crafted file; reject one anyway.
    const auto type = static_cast<DataType>(type_byte);
    if (attr >= schema.num_fields() || schema.field(attr).type != type) {
      return false;
    }
    auto col = std::make_shared<ColumnVector>(type);
    const bool decoded = type == DataType::kString
                             ? DecodeStringRows(&r, rows, col.get())
                             : DecodeFixedRows(&r, rows, col.get());
    if (!decoded) return false;
    out->segments.push_back(
        SegmentStore::Image::SegmentImage{attr, block, std::move(col)});
  }
  return r.ok();
}

// ------------------------------------------------------------ header

constexpr size_t kMagicLen = 8;
constexpr size_t kDirEntryLen = 4 + 8 + 8 + 4;
// magic + version + rows_per_block + signature(5×8) + schema hash
// + section count.
constexpr size_t kFixedHeaderLen = kMagicLen + 4 + 4 + 40 + 8 + 4;

size_t HeaderLen(size_t sections) {
  return kFixedHeaderLen + sections * kDirEntryLen + 4 /* header crc */;
}

bool ParseLayout(const std::string& bytes, SnapshotLayout* layout,
                 std::string* error) {
  if (bytes.size() < HeaderLen(0) ||
      std::memcmp(bytes.data(), Snapshot::kMagic, kMagicLen) != 0) {
    *error = "not a NoDB snapshot (bad magic)";
    return false;
  }
  ByteReader r(bytes.data() + kMagicLen, bytes.size() - kMagicLen);
  layout->version = r.Get<uint32_t>();
  if (layout->version != Snapshot::kVersion) {
    *error = "unsupported snapshot version " +
             std::to_string(layout->version);
    return false;
  }
  layout->rows_per_block = r.Get<uint32_t>();
  layout->raw_size = r.Get<uint64_t>();
  layout->raw_mtime_nanos = r.Get<int64_t>();
  layout->head_hash = r.Get<uint64_t>();
  layout->tail_hash = r.Get<uint64_t>();
  layout->probe_bytes = r.Get<uint64_t>();
  layout->schema_hash = r.Get<uint64_t>();
  uint32_t nsections = r.Get<uint32_t>();
  if (!r.ok() || nsections > 64) {
    *error = "corrupt snapshot header";
    return false;
  }
  size_t header_len = HeaderLen(nsections);
  if (bytes.size() < header_len) {
    *error = "truncated snapshot header";
    return false;
  }
  for (uint32_t i = 0; i < nsections; ++i) {
    SectionInfo info;
    info.id = r.Get<uint32_t>();
    info.offset = r.Get<uint64_t>();
    info.length = r.Get<uint64_t>();
    info.crc = r.Get<uint32_t>();
    layout->sections.push_back(info);
  }
  uint32_t stored_crc = r.Get<uint32_t>();
  if (!r.ok()) {
    *error = "corrupt snapshot header";
    return false;
  }
  uint32_t actual_crc = Crc32c(bytes.data(), header_len - 4);
  if (stored_crc != actual_crc) {
    // A bad header means the directory itself cannot be trusted —
    // the whole snapshot is discarded, every structure starts cold.
    *error = "snapshot header checksum mismatch";
    return false;
  }
  return true;
}

}  // namespace

const char* SectionName(uint32_t id) {
  switch (id) {
    case Snapshot::kSectionMap:
      return "map";
    case Snapshot::kSectionStats:
      return "stats";
    case Snapshot::kSectionZones:
      return "zones";
    case Snapshot::kSectionStore:
      return "store";
  }
  return "?";
}

std::string DefaultSnapshotPath(const std::string& data_path) {
  return data_path + ".nodbmeta";
}

std::string SnapshotPathFor(const RawTableInfo& info,
                            const std::string& snapshot_path) {
  if (snapshot_path.empty()) return DefaultSnapshotPath(info.path);
  size_t slash = info.path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? info.path : info.path.substr(slash + 1);
  // A full-path fingerprint keeps tables whose data files share a
  // basename in different directories from clobbering each other's
  // sidecars inside the one snapshot directory.
  char fp[17];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(
                    Fnv1a64(info.path.data(), info.path.size())));
  return snapshot_path + "/" + base + "." + fp + ".nodbmeta";
}

uint64_t SchemaFingerprint(const RawTableInfo& info) {
  uint64_t h = 0xA0B1C2D3E4F50617ULL;
  for (size_t i = 0; i < info.schema->num_fields(); ++i) {
    const Field& field = info.schema->field(i);
    h = CombineHash64(h, Fnv1a64(field.name.data(), field.name.size()));
    h = CombineHash64(h, MixHash64(static_cast<uint64_t>(field.type)));
  }
  char dialect[4] = {info.dialect.delimiter, info.dialect.quote,
                     static_cast<char>(info.dialect.allow_quoting),
                     static_cast<char>(info.dialect.has_header)};
  return CombineHash64(h, Fnv1a64(dialect, sizeof(dialect)));
}

Status WriteSnapshot(const RawTableState& state, const std::string& path) {
  static obs::LatencyHistogram* save_ns =
      obs::MetricsRegistry::Global().GetHistogram(
          "nodb_snapshot_save_ns",
          "Snapshot save duration (freeze + encode + atomic write)");
  static obs::Counter* saves = obs::MetricsRegistry::Global().GetCounter(
      "nodb_snapshot_saves_total", "Snapshots written");
  static obs::Counter* saved_bytes =
      obs::MetricsRegistry::Global().GetCounter(
          "nodb_snapshot_saved_bytes_total", "Snapshot bytes written");
  Stopwatch watch;
  // Signature strictly before the freeze: if a concurrent update check
  // invalidates + re-signs between the two, the snapshot pairs the
  // *old* signature with newer structures and the loader rejects it
  // (cold start — safe). The reverse order could pair a fresh
  // signature with stale structures, which would validate wrong data.
  FileSignature sig = state.signature();
  AdaptiveImage image = state.Freeze();

  // Sections are encoded straight into the output buffer (after a
  // placeholder header, patched in below), so the store's re-encoded
  // column segments are never held in a second snapshot-sized copy.
  constexpr size_t kNumSections = 4;
  const size_t header_len = HeaderLen(kNumSections);
  std::string out(header_len, '\0');
  SectionInfo dir[kNumSections];
  for (size_t i = 0; i < kNumSections; ++i) {
    SectionInfo& section = dir[i];
    section.offset = out.size();
    switch (i) {
      case 0:
        section.id = Snapshot::kSectionMap;
        EncodeMap(*image.map, &out);
        break;
      case 1:
        section.id = Snapshot::kSectionStats;
        EncodeStats(*image.stats, &out);
        break;
      case 2:
        section.id = Snapshot::kSectionZones;
        EncodeZones(*image.zones, &out);
        break;
      case 3:
        section.id = Snapshot::kSectionStore;
        EncodeStore(*image.store, &out);
        break;
    }
    section.length = out.size() - section.offset;
    section.crc = Crc32c(out.data() + section.offset, section.length);
  }

  std::string header;
  header.reserve(header_len);
  header.append(Snapshot::kMagic, kMagicLen);
  Put<uint32_t>(&header, Snapshot::kVersion);
  Put<uint32_t>(&header, state.config().rows_per_block);
  Put<uint64_t>(&header, sig.size());
  Put<int64_t>(&header, sig.mtime_nanos());
  Put<uint64_t>(&header, sig.head_hash());
  Put<uint64_t>(&header, sig.tail_hash());
  Put<uint64_t>(&header, FileSignature::kProbeBytes);
  Put<uint64_t>(&header, SchemaFingerprint(state.info()));
  Put<uint32_t>(&header, kNumSections);
  for (const SectionInfo& section : dir) {
    Put<uint32_t>(&header, section.id);
    Put<uint64_t>(&header, section.offset);
    Put<uint64_t>(&header, section.length);
    Put<uint32_t>(&header, section.crc);
  }
  Put<uint32_t>(&header, Crc32c(header.data(), header.size()));
  NODB_CHECK(header.size() == header_len);
  out.replace(0, header_len, header);
  Status status = WriteFileAtomic(path, Slice(out.data(), out.size()));
  if (status.ok()) {
    saves->Add(1);
    saved_bytes->Add(out.size());
    save_ns->Record(watch.ElapsedNanos());
  }
  return status;
}

Result<SnapshotLayout> InspectSnapshot(const std::string& path) {
  NODB_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  SnapshotLayout layout;
  std::string error;
  if (!ParseLayout(bytes, &layout, &error)) {
    return Status::ParseError(error);
  }
  return layout;
}

namespace {

Result<RecoveryReport> LoadSnapshotImpl(RawTableState* state,
                                        const std::string& path) {
  if (state == nullptr) {
    return Status::InvalidArgument("LoadSnapshot: null table state");
  }
  // Every degradation lands here: record why the engine cold-starts
  // and return gracefully — a snapshot is an accelerator, never a
  // dependency.
  auto cold = [&](std::string reason) {
    RecoveryReport report;
    report.detail = std::move(reason);
    state->RecordRecovery(report);
    return report;
  };

  if (!FileExists(path)) return cold("no snapshot at " + path);
  auto bytes_or = ReadFileToString(path);
  if (!bytes_or.ok()) {
    return cold("unreadable snapshot: " + bytes_or.status().ToString());
  }
  const std::string& bytes = *bytes_or;

  SnapshotLayout layout;
  std::string error;
  if (!ParseLayout(bytes, &layout, &error)) return cold(error);

  // The snapshot must describe this table as currently configured:
  // block granularity keys every chunk/segment/zone entry, and the
  // schema/dialect fingerprint guards against reinterpreting spans
  // parsed under different rules.
  if (layout.rows_per_block != state->config().rows_per_block) {
    return cold("rows_per_block changed since snapshot");
  }
  if (layout.probe_bytes != FileSignature::kProbeBytes) {
    return cold("signature probe size changed since snapshot");
  }
  if (layout.schema_hash != SchemaFingerprint(state->info())) {
    return cold("schema or dialect changed since snapshot");
  }

  // Bind to the raw file's *content*, not just size+mtime: an in-place
  // rewrite with a restored timestamp must still invalidate, because a
  // recovered positional map over different bytes would return wrong
  // answers, not just slow ones.
  FileSignature sig = FileSignature::FromParts(
      state->info().path, layout.raw_size, layout.raw_mtime_nanos,
      layout.head_hash, layout.tail_hash);
  auto change_or = sig.Compare(/*verify_content=*/true);
  if (!change_or.ok()) {
    return cold("raw file unreadable: " + change_or.status().ToString());
  }
  FileChange change = *change_or;
  if (change == FileChange::kRewritten) {
    return cold("raw file rewritten since snapshot");
  }
  if (change == FileChange::kAppended && layout.raw_size > 0) {
    // Recover the prefix only if the old content was newline-terminated
    // (otherwise the final old tuple was extended in place and every
    // recovered position after it would be wrong).
    auto file_or = OpenRandomAccessFile(state->info().path);
    if (!file_or.ok()) {
      return cold("raw file unreadable: " + file_or.status().ToString());
    }
    char last;
    Slice got;
    Status s = (*file_or)->Read(layout.raw_size - 1, 1, &last, &got);
    if (!s.ok() || got.size() != 1 || got[0] != '\n') {
      return cold("append extended the final snapshot row");
    }
  }

  // Sections decode independently; a bad one leaves its structure
  // absent (cold) and is noted, the rest recover.
  AdaptiveImage image;
  std::string notes;
  auto note = [&](uint32_t id, const char* what) {
    if (!notes.empty()) notes += "; ";
    notes += std::string(SectionName(id)) + ": " + what;
  };
  for (const SectionInfo& section : layout.sections) {
    if (section.offset > bytes.size() ||
        section.length > bytes.size() - section.offset) {
      note(section.id, "truncated");
      continue;
    }
    const char* payload = bytes.data() + section.offset;
    if (Crc32c(payload, section.length) != section.crc) {
      note(section.id, "checksum mismatch");
      continue;
    }
    bool decoded = true;
    switch (section.id) {
      case Snapshot::kSectionMap: {
        PositionalMap::Image map_image;
        decoded = DecodeMap(payload, section.length, &map_image);
        if (decoded) image.map = std::move(map_image);
        break;
      }
      case Snapshot::kSectionStats: {
        StatsCollector::Image stats_image;
        decoded = DecodeStats(payload, section.length, &stats_image);
        if (decoded) image.stats = std::move(stats_image);
        break;
      }
      case Snapshot::kSectionZones: {
        ZoneMaps::Image zones_image;
        decoded = DecodeZones(payload, section.length, &zones_image);
        if (decoded) image.zones = std::move(zones_image);
        break;
      }
      case Snapshot::kSectionStore: {
        SegmentStore::Image store_image;
        decoded = DecodeStore(payload, section.length,
                              *state->info().schema, &store_image);
        if (decoded) image.store = std::move(store_image);
        break;
      }
      default:
        note(section.id, "unknown section (skipped)");
        continue;
    }
    if (!decoded) note(section.id, "malformed payload");
  }

  if (notes.empty()) {
    notes = change == FileChange::kAppended
                ? "recovered prefix (raw file appended)"
                : "recovered";
  }
  return state->Thaw(std::move(image), change, std::move(notes));
}

}  // namespace

Result<RecoveryReport> LoadSnapshot(RawTableState* state,
                                    const std::string& path) {
  static obs::LatencyHistogram* load_ns =
      obs::MetricsRegistry::Global().GetHistogram(
          "nodb_snapshot_load_ns",
          "Snapshot recovery duration (including validation)");
  static obs::Counter* loads = obs::MetricsRegistry::Global().GetCounter(
      "nodb_snapshot_loads_total", "Snapshot recovery attempts");
  Stopwatch watch;
  Result<RecoveryReport> report = LoadSnapshotImpl(state, path);
  loads->Add(1);
  load_ns->Record(watch.ElapsedNanos());
  return report;
}

}  // namespace nodb::persist
