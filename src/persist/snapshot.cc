#include "persist/snapshot.h"

#include <cstdio>
#include <cstring>

#include "io/file.h"
#include "obs/metrics.h"
#include "util/checksum.h"
#include "util/hash.h"
#include "util/stopwatch.h"

namespace nodb::persist {

namespace {

// ------------------------------------------------- binary primitives
// Little-endian fixed-width encoding; std::string is the buffer.

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
  out->append(b, 8);
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(v));
  PutU64(out, bits);
}

void PutStr(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
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

  uint8_t U8() {
    if (!Has(1)) return 0;
    return static_cast<uint8_t>(*p_++);
  }

  uint32_t U32() {
    if (!Has(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<unsigned char>(p_[i]))
           << (8 * i);
    }
    p_ += 4;
    return v;
  }

  uint64_t U64() {
    if (!Has(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(p_[i]))
           << (8 * i);
    }
    p_ += 8;
    return v;
  }

  int64_t I64() { return static_cast<int64_t>(U64()); }

  double F64() {
    uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string Str() {
    uint32_t len = U32();
    if (!Has(len)) return {};
    std::string s(p_, len);
    p_ += len;
    return s;
  }

  /// Guards a count field against absurd values: each element needs at
  /// least `elem_bytes` more payload, so a corrupt count that slipped
  /// past the CRC cannot drive a huge allocation.
  bool FitsCount(uint64_t count, size_t elem_bytes) {
    if (count > remaining() / (elem_bytes == 0 ? 1 : elem_bytes)) {
      ok_ = false;
      return false;
    }
    return true;
  }

 private:
  bool Has(size_t n) {
    if (static_cast<size_t>(end_ - p_) < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const char* p_;
  const char* end_;
  bool ok_ = true;
};

// ---------------------------------------------------- section codecs

void EncodeMap(const PositionalMap::Image& image, std::string* buf) {
  std::string& out = *buf;
  PutU64(&out, image.row_starts.size());
  for (uint64_t start : image.row_starts) PutU64(&out, start);
  PutU8(&out, image.rows_complete ? 1 : 0);
  PutU64(&out, image.indexed_file_size);
  PutU64(&out, image.next_discovery_offset);
  PutU64(&out, image.chunks.size());
  for (const auto& chunk : image.chunks) {
    PutU64(&out, chunk.first_row);
    PutU32(&out, static_cast<uint32_t>(chunk.attrs.size()));
    for (uint32_t a : chunk.attrs) PutU32(&out, a);
    PutU64(&out, chunk.data.size());
    for (uint32_t d : chunk.data) PutU32(&out, d);
  }
}

bool DecodeMap(const char* data, size_t size, PositionalMap::Image* out) {
  ByteReader r(data, size);
  uint64_t rows = r.U64();
  if (!r.FitsCount(rows, 8)) return false;
  out->row_starts.reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) out->row_starts.push_back(r.U64());
  out->rows_complete = r.U8() != 0;
  out->indexed_file_size = r.U64();
  out->next_discovery_offset = r.U64();
  uint64_t chunks = r.U64();
  if (!r.FitsCount(chunks, 20)) return false;
  out->chunks.reserve(chunks);
  for (uint64_t c = 0; c < chunks; ++c) {
    PositionalMap::Image::ChunkImage chunk;
    chunk.first_row = r.U64();
    uint32_t nattrs = r.U32();
    if (!r.FitsCount(nattrs, 4)) return false;
    chunk.attrs.reserve(nattrs);
    for (uint32_t i = 0; i < nattrs; ++i) chunk.attrs.push_back(r.U32());
    uint64_t ndata = r.U64();
    if (!r.FitsCount(ndata, 4)) return false;
    chunk.data.reserve(ndata);
    for (uint64_t i = 0; i < ndata; ++i) chunk.data.push_back(r.U32());
    out->chunks.push_back(std::move(chunk));
  }
  return r.ok();
}

void EncodeStats(const StatsCollector::Image& image, std::string* buf) {
  std::string& out = *buf;
  PutU32(&out, static_cast<uint32_t>(image.attrs.size()));
  for (const auto& attr : image.attrs) {
    PutU8(&out, attr.has_value() ? 1 : 0);
    if (!attr.has_value()) continue;
    PutU64(&out, attr->count);
    PutU64(&out, attr->nulls);
    PutU8(&out, attr->has_min ? 1 : 0);
    PutF64(&out, attr->min);
    PutU8(&out, attr->has_max ? 1 : 0);
    PutF64(&out, attr->max);
    PutU64(&out, attr->kmv.size());
    for (uint64_t h : attr->kmv) PutU64(&out, h);
    PutU64(&out, attr->numeric_sample.size());
    for (double v : attr->numeric_sample) PutF64(&out, v);
    PutU64(&out, attr->string_sample.size());
    for (const std::string& s : attr->string_sample) PutStr(&out, s);
    PutU64(&out, attr->sampled_stream);
  }
  PutU64(&out, image.heat.size());
  for (uint64_t h : image.heat) PutU64(&out, h);
  PutU64(&out, image.observed.size());
  for (uint64_t k : image.observed) PutU64(&out, k);
}

bool DecodeStats(const char* data, size_t size,
                 StatsCollector::Image* out) {
  ByteReader r(data, size);
  uint32_t nattrs = r.U32();
  if (!r.FitsCount(nattrs, 1)) return false;
  out->attrs.resize(nattrs);
  for (uint32_t a = 0; a < nattrs; ++a) {
    if (r.U8() == 0) continue;
    AttributeStats::Image attr;
    attr.count = r.U64();
    attr.nulls = r.U64();
    attr.has_min = r.U8() != 0;
    attr.min = r.F64();
    attr.has_max = r.U8() != 0;
    attr.max = r.F64();
    uint64_t nkmv = r.U64();
    if (!r.FitsCount(nkmv, 8)) return false;
    attr.kmv.reserve(nkmv);
    for (uint64_t i = 0; i < nkmv; ++i) attr.kmv.push_back(r.U64());
    uint64_t nnum = r.U64();
    if (!r.FitsCount(nnum, 8)) return false;
    attr.numeric_sample.reserve(nnum);
    for (uint64_t i = 0; i < nnum; ++i) {
      attr.numeric_sample.push_back(r.F64());
    }
    uint64_t nstr = r.U64();
    if (!r.FitsCount(nstr, 4)) return false;
    attr.string_sample.reserve(nstr);
    for (uint64_t i = 0; i < nstr; ++i) {
      attr.string_sample.push_back(r.Str());
    }
    attr.sampled_stream = r.U64();
    out->attrs[a] = std::move(attr);
  }
  uint64_t nheat = r.U64();
  if (!r.FitsCount(nheat, 8)) return false;
  out->heat.reserve(nheat);
  for (uint64_t i = 0; i < nheat; ++i) out->heat.push_back(r.U64());
  uint64_t nobs = r.U64();
  if (!r.FitsCount(nobs, 8)) return false;
  out->observed.reserve(nobs);
  for (uint64_t i = 0; i < nobs; ++i) out->observed.push_back(r.U64());
  return r.ok();
}

void EncodeZones(const ZoneMaps::Image& image, std::string* buf) {
  std::string& out = *buf;
  PutU64(&out, image.entries.size());
  for (const auto& ei : image.entries) {
    PutU32(&out, ei.attr);
    PutU64(&out, ei.block);
    uint8_t flags = 0;
    if (ei.entry.is_int) flags |= 1;
    if (ei.entry.has_null) flags |= 2;
    if (ei.entry.non_null) flags |= 4;
    if (ei.entry.unsafe) flags |= 8;
    PutU8(&out, flags);
    PutI64(&out, ei.entry.min_i);
    PutI64(&out, ei.entry.max_i);
    PutF64(&out, ei.entry.min_d);
    PutF64(&out, ei.entry.max_d);
    PutU64(&out, ei.entry.rows);
  }
}

bool DecodeZones(const char* data, size_t size, ZoneMaps::Image* out) {
  ByteReader r(data, size);
  uint64_t n = r.U64();
  if (!r.FitsCount(n, 4 + 8 + 1 + 8 * 5)) return false;
  out->entries.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ZoneMaps::Image::EntryImage ei;
    ei.attr = r.U32();
    ei.block = r.U64();
    uint8_t flags = r.U8();
    ei.entry.is_int = (flags & 1) != 0;
    ei.entry.has_null = (flags & 2) != 0;
    ei.entry.non_null = (flags & 4) != 0;
    ei.entry.unsafe = (flags & 8) != 0;
    ei.entry.min_i = r.I64();
    ei.entry.max_i = r.I64();
    ei.entry.min_d = r.F64();
    ei.entry.max_d = r.F64();
    ei.entry.rows = r.U64();
    out->entries.push_back(ei);
  }
  return r.ok();
}

void EncodeStore(const SegmentStore::Image& image, std::string* buf) {
  std::string& out = *buf;
  PutU64(&out, image.segments.size());
  for (const auto& seg : image.segments) {
    const ColumnVector& col = *seg.segment;
    PutU32(&out, seg.attr);
    PutU64(&out, seg.block);
    PutU8(&out, static_cast<uint8_t>(col.type()));
    PutU64(&out, col.size());
    for (size_t i = 0; i < col.size(); ++i) {
      if (col.IsNull(i)) {
        PutU8(&out, 0);
        continue;
      }
      PutU8(&out, 1);
      switch (col.type()) {
        case DataType::kInt64:
        case DataType::kDate:
          PutI64(&out, col.GetInt64(i));
          break;
        case DataType::kDouble:
          PutF64(&out, col.GetDouble(i));
          break;
        case DataType::kString: {
          std::string_view s = col.GetString(i);
          PutU32(&out, static_cast<uint32_t>(s.size()));
          out.append(s.data(), s.size());
          break;
        }
      }
    }
  }
}

bool DecodeStore(const char* data, size_t size, const Schema& schema,
                 SegmentStore::Image* out) {
  ByteReader r(data, size);
  uint64_t n = r.U64();
  if (!r.FitsCount(n, 4 + 8 + 1 + 8)) return false;
  out->segments.reserve(n);
  for (uint64_t s = 0; s < n; ++s) {
    uint32_t attr = r.U32();
    uint64_t block = r.U64();
    uint8_t type_byte = r.U8();
    uint64_t rows = r.U64();
    if (type_byte > static_cast<uint8_t>(DataType::kDate)) return false;
    DataType type = static_cast<DataType>(type_byte);
    if (!r.FitsCount(rows, 1)) return false;
    auto col = std::make_shared<ColumnVector>(type);
    col->Reserve(rows);
    for (uint64_t i = 0; i < rows; ++i) {
      if (r.U8() == 0) {
        col->AppendNull();
        continue;
      }
      switch (type) {
        case DataType::kInt64:
          col->AppendInt64(r.I64());
          break;
        case DataType::kDate:
          col->AppendDate(r.I64());
          break;
        case DataType::kDouble:
          col->AppendDouble(r.F64());
          break;
        case DataType::kString: {
          std::string v = r.Str();
          col->AppendString(Slice(v.data(), v.size()));
          break;
        }
      }
    }
    if (!r.ok()) return false;
    // A segment whose attribute or type does not match the live schema
    // is dropped (the schema fingerprint makes this unreachable short
    // of a crafted file; stay defensive anyway).
    if (attr >= schema.num_fields() ||
        schema.field(attr).type != type) {
      continue;
    }
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
  layout->version = r.U32();
  if (layout->version != Snapshot::kVersion) {
    *error = "unsupported snapshot version " +
             std::to_string(layout->version);
    return false;
  }
  layout->rows_per_block = r.U32();
  layout->raw_size = r.U64();
  layout->raw_mtime_nanos = r.I64();
  layout->head_hash = r.U64();
  layout->tail_hash = r.U64();
  layout->probe_bytes = r.U64();
  layout->schema_hash = r.U64();
  uint32_t nsections = r.U32();
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
    info.id = r.U32();
    info.offset = r.U64();
    info.length = r.U64();
    info.crc = r.U32();
    layout->sections.push_back(info);
  }
  uint32_t stored_crc = r.U32();
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
  PutU32(&header, Snapshot::kVersion);
  PutU32(&header, state.config().rows_per_block);
  PutU64(&header, sig.size());
  PutI64(&header, sig.mtime_nanos());
  PutU64(&header, sig.head_hash());
  PutU64(&header, sig.tail_hash());
  PutU64(&header, FileSignature::kProbeBytes);
  PutU64(&header, SchemaFingerprint(state.info()));
  PutU32(&header, kNumSections);
  for (const SectionInfo& section : dir) {
    PutU32(&header, section.id);
    PutU64(&header, section.offset);
    PutU64(&header, section.length);
    PutU32(&header, section.crc);
  }
  PutU32(&header, Crc32c(header.data(), header.size()));
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
