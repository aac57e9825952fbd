#include "persist/snapshot.h"

#include <cstdio>
#include <cstring>
#include <string_view>

#include "io/file.h"
#include "obs/metrics.h"
#include "types/row_codec.h"
#include "util/bytes.h"
#include "util/checksum.h"
#include "util/hash.h"
#include "util/stopwatch.h"

namespace nodb::persist {

namespace {

// ---------------------------------------------------- section codecs

void EncodeMap(const PositionalMap::Image& image, ByteWriter* out) {
  out->PutArray<uint64_t>(image.row_starts);
  out->Put<uint8_t>(image.rows_complete ? 1 : 0);
  out->Put<uint64_t>(image.indexed_file_size);
  out->Put<uint64_t>(image.next_discovery_offset);
  out->Put<uint64_t>(image.chunks.size());
  for (const auto& chunk : image.chunks) {
    out->Put<uint64_t>(chunk.first_row);
    out->PutArray<uint32_t>(chunk.attrs);
    out->PutArray<uint64_t>(chunk.data);
  }
}

bool DecodeMap(std::string_view payload, PositionalMap::Image* out) {
  ByteReader r(payload);
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

void EncodeStats(const StatsCollector::Image& image, ByteWriter* out) {
  out->Put<uint32_t>(static_cast<uint32_t>(image.attrs.size()));
  for (const auto& attr : image.attrs) {
    out->Put<uint8_t>(attr.has_value() ? 1 : 0);
    if (!attr.has_value()) continue;
    out->Put<uint64_t>(attr->count);
    // Version 1 also holds a null count, global bounds and a distinct-
    // value sketch: the null count is what the sample did not see, the
    // bounds and the sketch are written empty.
    out->Put<uint64_t>(attr->count - attr->sampled_stream);
    out->Put<uint8_t>(0);
    out->Put<double>(0);
    out->Put<uint8_t>(0);
    out->Put<double>(0);
    out->Put<uint64_t>(0);
    out->PutArray<uint64_t>(attr->numeric_sample);
    out->Put<uint64_t>(attr->string_sample.size());
    for (const std::string& s : attr->string_sample) out->PutStr(s);
    out->Put<uint64_t>(attr->sampled_stream);
  }
  out->PutArray<uint64_t>(image.heat);
  out->PutArray<uint64_t>(image.observed);
}

bool DecodeStats(std::string_view payload, StatsCollector::Image* out) {
  ByteReader r(payload);
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

void EncodeZones(const ZoneMaps::Image& image, ByteWriter* out) {
  out->Put<uint64_t>(image.entries.size());
  for (const auto& ei : image.entries) {
    out->Put<uint32_t>(ei.attr);
    out->Put<uint64_t>(ei.block);
    uint8_t flags = 0;
    if (ei.entry.is_int) flags |= 1;
    if (ei.entry.has_null) flags |= 2;
    if (ei.entry.non_null) flags |= 4;
    if (ei.entry.unsafe) flags |= 8;
    out->Put<uint8_t>(flags);
    out->Put<int64_t>(ei.entry.min_i);
    out->Put<int64_t>(ei.entry.max_i);
    out->Put<double>(ei.entry.min_d);
    out->Put<double>(ei.entry.max_d);
    out->Put<uint64_t>(ei.entry.rows);
  }
}

bool DecodeZones(std::string_view payload, ZoneMaps::Image* out) {
  ByteReader r(payload);
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

// A store segment is its attr, block, type byte and row count, then
// its rows in the shared row layout (types/row_codec.h).

void EncodeStore(const SegmentStore::Image& image, ByteWriter* out) {
  out->Put<uint64_t>(image.segments.size());
  for (const auto& seg : image.segments) {
    const ColumnVector& col = *seg.segment;
    out->Put<uint32_t>(seg.attr);
    out->Put<uint64_t>(seg.block);
    out->Put<uint8_t>(static_cast<uint8_t>(col.type()));
    out->Put<uint64_t>(col.size());
    EncodeRows(col, 0, col.size(), out);
  }
}

bool DecodeStore(std::string_view payload, const Schema& schema,
                 SegmentStore::Image* out) {
  ByteReader r(payload);
  const uint64_t n = r.Get<uint64_t>();
  if (!r.FitsCount(n, 4 + 8 + 1 + 8)) return false;
  out->segments.reserve(n);
  for (uint64_t s = 0; s < n; ++s) {
    const uint32_t attr = r.Get<uint32_t>();
    const uint64_t block = r.Get<uint64_t>();
    const uint8_t type_byte = r.Get<uint8_t>();
    const uint64_t rows = r.Get<uint64_t>();
    if (!r.ok() || type_byte > static_cast<uint8_t>(DataType::kDate)) {
      return false;
    }
    // The schema fingerprint makes a segment of another attribute or
    // type unreachable short of a crafted file; reject one anyway.
    const auto type = static_cast<DataType>(type_byte);
    if (attr >= schema.num_fields() || schema.field(attr).type != type) {
      return false;
    }
    auto col = std::make_shared<ColumnVector>(type);
    if (!DecodeRows(&r, rows, col.get())) return false;
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
  ByteReader r(std::string_view(bytes).substr(kMagicLen));
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
  ByteWriter out;
  out.Extend(header_len);
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
    section.crc = Crc32c(out.data().data() + section.offset, section.length);
  }

  ByteWriter header;
  header.Reserve(header_len);
  header.PutBytes(std::string_view(Snapshot::kMagic, kMagicLen));
  header.Put<uint32_t>(Snapshot::kVersion);
  header.Put<uint32_t>(state.config().rows_per_block);
  header.Put<uint64_t>(sig.size());
  header.Put<int64_t>(sig.mtime_nanos());
  header.Put<uint64_t>(sig.head_hash());
  header.Put<uint64_t>(sig.tail_hash());
  header.Put<uint64_t>(FileSignature::kProbeBytes);
  header.Put<uint64_t>(SchemaFingerprint(state.info()));
  header.Put<uint32_t>(kNumSections);
  for (const SectionInfo& section : dir) {
    header.Put<uint32_t>(section.id);
    header.Put<uint64_t>(section.offset);
    header.Put<uint64_t>(section.length);
    header.Put<uint32_t>(section.crc);
  }
  header.Put<uint32_t>(Crc32c(header.data().data(), header.size()));
  NODB_CHECK(header.size() == header_len);
  std::string bytes = out.Take();
  bytes.replace(0, header_len, header.data());
  Status status = WriteFileAtomic(path, Slice(bytes.data(), bytes.size()));
  if (status.ok()) {
    saves->Add(1);
    saved_bytes->Add(bytes.size());
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
    const std::string_view payload(bytes.data() + section.offset,
                                   section.length);
    if (Crc32c(payload.data(), payload.size()) != section.crc) {
      note(section.id, "checksum mismatch");
      continue;
    }
    bool decoded = true;
    switch (section.id) {
      case Snapshot::kSectionMap: {
        PositionalMap::Image map_image;
        decoded = DecodeMap(payload, &map_image);
        if (decoded) image.map = std::move(map_image);
        break;
      }
      case Snapshot::kSectionStats: {
        StatsCollector::Image stats_image;
        decoded = DecodeStats(payload, &stats_image);
        if (decoded) image.stats = std::move(stats_image);
        break;
      }
      case Snapshot::kSectionZones: {
        ZoneMaps::Image zones_image;
        decoded = DecodeZones(payload, &zones_image);
        if (decoded) image.zones = std::move(zones_image);
        break;
      }
      case Snapshot::kSectionStore: {
        SegmentStore::Image store_image;
        decoded =
            DecodeStore(payload, *state->info().schema, &store_image);
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
