// Tests for the persistent adaptive-state snapshot subsystem
// (persist/): save/recover round trips across engine restarts,
// signature validation (rewrite, same-size in-place rewrite with a
// restored mtime, clean append), per-section degradation, and
// corruption/truncation fuzzing at every section boundary — the engine
// must cold-start cleanly and return byte-identical results no matter
// what the sidecar contains. Structured corruptions with fixed-up
// checksums reach each section decoder's own bounds checks, and an
// every-type table (NULLs, NaN, -0.0, embedded NUL bytes) must save,
// recover and save again to the same bytes.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engines/load_first_engine.h"
#include "engines/nodb_engine.h"
#include "exec/query_result.h"
#include "io/file.h"
#include "io/temp_dir.h"
#include "persist/snapshot.h"
#include "raw/table_state.h"
#include "util/checksum.h"

namespace nodb {
namespace {

class PersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("nodb-persist");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    path_ = dir_->FilePath("t.csv");
    schema_ = Schema::Make({{"a", DataType::kInt64},
                            {"b", DataType::kDouble},
                            {"c", DataType::kString}});
    ASSERT_TRUE(WriteStringToFile(path_, Rows(0, 200)).ok());
  }

  static std::string Rows(int64_t from, int64_t to) {
    std::string out;
    for (int64_t r = from; r < to; ++r) {
      out += std::to_string(r) + "," + std::to_string(r) + ".5,s" +
             std::to_string(r % 7) + "\n";
    }
    return out;
  }

  NoDbConfig Config() {
    NoDbConfig config;
    config.rows_per_block = 32;
    return config;
  }

  Catalog MakeCatalog() {
    Catalog catalog;
    EXPECT_TRUE(
        catalog.RegisterTable({"t", path_, schema_, CsvDialect()}).ok());
    return catalog;
  }

  std::string SidecarPath() const {
    return persist::DefaultSnapshotPath(path_);
  }

  std::vector<std::string> Run(NoDbEngine* engine,
                               const std::string& sql) {
    auto outcome = engine->Execute(sql);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome.ok()) return {};
    return outcome->result.CanonicalRows();
  }

  /// Runs the workload twice (crossing the promotion heat threshold),
  /// settles background promotion and saves the sidecar.
  void WarmAndSave(NoDbEngine* engine) {
    Run(engine, kQuery);
    Run(engine, kQuery);
    ASSERT_TRUE(engine->SaveSnapshot("t").ok());
  }

  static constexpr const char* kQuery = "SELECT a, b, c FROM t";

  std::unique_ptr<TempDir> dir_;
  std::string path_;
  std::shared_ptr<Schema> schema_;
};

TEST_F(PersistTest, SaveLoadRoundTripRecoversEveryStructure) {
  std::vector<std::string> reference;
  {
    NoDbEngine engine(MakeCatalog(), Config());
    reference = Run(&engine, kQuery);
    WarmAndSave(&engine);
  }
  ASSERT_TRUE(FileExists(SidecarPath()));

  NoDbEngine engine(MakeCatalog(), Config());
  auto report = engine.LoadSnapshot("t");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->attempted);
  EXPECT_EQ(report->change, FileChange::kUnchanged);
  EXPECT_TRUE(report->map_recovered);
  EXPECT_TRUE(report->stats_recovered);
  EXPECT_TRUE(report->zones_recovered);
  EXPECT_TRUE(report->store_recovered);
  EXPECT_EQ(report->rows_recovered, 200u);
  EXPECT_GT(report->chunks_recovered, 0u);
  EXPECT_GT(report->zone_entries_recovered, 0u);
  EXPECT_GT(report->store_segments_recovered, 0u);

  const RawTableState* state = engine.table_state("t");
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->map().known_rows(), 200u);
  EXPECT_TRUE(state->map().rows_complete());
  EXPECT_GT(state->stats().CoveredAttributes().size(), 0u);
  EXPECT_GT(state->stats().access_heat(0), 0u);

  // The recovered first query must be byte-identical to the cold one
  // and skip phase-1 parsing entirely: every block is served from the
  // recovered shadow store.
  auto outcome = engine.Execute(kQuery);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->result.CanonicalRows(), reference);
  EXPECT_EQ(outcome->metrics.scan.fields_tokenized, 0u);
  EXPECT_EQ(outcome->metrics.scan.fields_converted, 0u);
  EXPECT_EQ(outcome->metrics.scan.rows_from_raw, 0u);
  EXPECT_EQ(outcome->metrics.scan.rows_from_store, 200u);
  EXPECT_GE(outcome->metrics.scan.scans_using_recovered_map, 1u);
  EXPECT_GE(outcome->metrics.scan.scans_using_recovered_store, 1u);
}

TEST_F(PersistTest, AutoModeRecoversOnOpenAndSavesOnTeardown) {
  NoDbConfig config = Config();
  config.snapshot_mode = SnapshotMode::kAuto;
  std::vector<std::string> reference;
  {
    NoDbEngine engine(MakeCatalog(), config);
    reference = Run(&engine, kQuery);
    Run(&engine, kQuery);
    engine.WaitForPromotions();
    // Teardown saves automatically.
  }
  ASSERT_TRUE(FileExists(SidecarPath()));

  NoDbEngine engine(MakeCatalog(), config);
  auto outcome = engine.Execute(kQuery);  // open recovers automatically
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->result.CanonicalRows(), reference);
  EXPECT_EQ(outcome->metrics.scan.rows_from_raw, 0u);
  const RawTableState* state = engine.table_state("t");
  ASSERT_NE(state, nullptr);
  EXPECT_TRUE(state->recovery().attempted);
  EXPECT_TRUE(state->recovery().any_recovered());
}

TEST_F(PersistTest, SnapshotModeOffRefusesExplicitCalls) {
  NoDbConfig config = Config();
  config.snapshot_mode = SnapshotMode::kOff;
  NoDbEngine engine(MakeCatalog(), config);
  Run(&engine, kQuery);
  EXPECT_FALSE(engine.SaveSnapshot("t").ok());
  EXPECT_FALSE(engine.LoadSnapshot("t").ok());
  EXPECT_FALSE(FileExists(SidecarPath()));
}

TEST_F(PersistTest, SnapshotPathDirectoryPlacesSidecarThere) {
  auto snaps = TempDir::Create("nodb-persist-snaps");
  ASSERT_TRUE(snaps.ok());
  NoDbConfig config = Config();
  config.snapshot_path = snaps->path();
  std::vector<std::string> reference;
  {
    NoDbEngine engine(MakeCatalog(), config);
    reference = Run(&engine, kQuery);
    WarmAndSave(&engine);
  }
  EXPECT_FALSE(FileExists(SidecarPath()));
  // Directory placement keys the sidecar by basename + full-path
  // fingerprint (so same-basename tables cannot clobber each other).
  std::string placed = persist::SnapshotPathFor(
      {"t", path_, schema_, CsvDialect()}, snaps->path());
  EXPECT_EQ(placed.rfind(snaps->path() + "/t.csv.", 0), 0u);
  EXPECT_TRUE(FileExists(placed));

  NoDbEngine engine(MakeCatalog(), config);
  auto report = engine.LoadSnapshot("t");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->any_recovered());
  EXPECT_EQ(Run(&engine, kQuery), reference);
}

TEST_F(PersistTest, SaveOnColdTableRefusesAndKeepsExistingSidecar) {
  {
    NoDbEngine engine(MakeCatalog(), Config());
    WarmAndSave(&engine);
  }
  uint64_t good_size = *GetFileSize(SidecarPath());
  ASSERT_GT(good_size, 0u);

  // A fresh process that never queried the table must not freeze its
  // cold (empty) state over the previous process's populated sidecar.
  NoDbEngine engine(MakeCatalog(), Config());
  Status st = engine.SaveSnapshot("t");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(*GetFileSize(SidecarPath()), good_size);

  auto report = engine.LoadSnapshot("t");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->any_recovered());  // the good sidecar survived
}

TEST_F(PersistTest, RestoreAfterAppendOnWarmTableKeepsLiveState) {
  {
    NoDbEngine engine(MakeCatalog(), Config());
    WarmAndSave(&engine);
  }
  auto app = OpenAppendableFile(path_);
  ASSERT_TRUE(app.ok());
  std::string tail = Rows(200, 250);
  ASSERT_TRUE((*app)->Append(Slice(tail.data(), tail.size())).ok());
  ASSERT_TRUE((*app)->Close().ok());

  // Warm the engine *against the appended file*, then restore the
  // pre-append snapshot: the map/stats imports refuse (live wins) and
  // — critically — the append handling must not reopen discovery or
  // truncate the live map the queries just built. (The still-empty
  // store may legitimately adopt the snapshot's prefix segments; the
  // serve-time tail re-validation rejects the one stale frontier
  // segment.)
  NoDbEngine engine(MakeCatalog(), Config());
  std::vector<std::string> before = Run(&engine, kQuery);
  const RawTableState* state = engine.table_state("t");
  ASSERT_NE(state, nullptr);
  ASSERT_TRUE(state->map().rows_complete());

  auto report = engine.LoadSnapshot("t");
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->map_recovered);
  EXPECT_FALSE(report->stats_recovered);
  EXPECT_TRUE(state->map().rows_complete());  // live map untouched
  EXPECT_EQ(state->map().known_rows(), 250u);
  EXPECT_EQ(Run(&engine, kQuery), before);
}

TEST_F(PersistTest, LoadOnWarmTableRecoversNothingAndChangesNothing) {
  {
    NoDbEngine engine(MakeCatalog(), Config());
    WarmAndSave(&engine);
  }
  NoDbEngine engine(MakeCatalog(), Config());
  std::vector<std::string> before = Run(&engine, kQuery);  // warm state
  auto report = engine.LoadSnapshot("t");
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->map_recovered);  // live structures win
  EXPECT_EQ(Run(&engine, kQuery), before);
}

TEST_F(PersistTest, RewrittenFileColdStartsCleanly) {
  {
    NoDbEngine engine(MakeCatalog(), Config());
    WarmAndSave(&engine);
  }
  // Rewrite with different content (and size): the snapshot is stale.
  ASSERT_TRUE(WriteStringToFile(path_, Rows(1000, 1100)).ok());

  NoDbEngine engine(MakeCatalog(), Config());
  auto report = engine.LoadSnapshot("t");
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->attempted);
  EXPECT_FALSE(report->any_recovered());
  EXPECT_NE(report->detail.find("rewritten"), std::string::npos)
      << report->detail;

  NoDbEngine fresh(MakeCatalog(), Config());
  EXPECT_EQ(Run(&engine, kQuery), Run(&fresh, kQuery));
}

TEST_F(PersistTest, SameSizeInPlaceRewritePreservingMtimeIsDetected) {
  {
    NoDbEngine engine(MakeCatalog(), Config());
    WarmAndSave(&engine);
  }
  // Rewrite every row in place — identical byte length, different
  // values — and restore the original mtime, simulating an editor or
  // tool that preserves timestamps. Size+mtime alone cannot tell the
  // difference; only the content hashes can.
  auto old_time = std::filesystem::last_write_time(path_);
  std::string original;
  {
    auto read = ReadFileToString(path_);
    ASSERT_TRUE(read.ok());
    original = *read;
  }
  std::string rewritten = original;
  for (char& ch : rewritten) {
    if (ch == '3') ch = '4';  // same length, different numbers
  }
  ASSERT_NE(rewritten, original);
  ASSERT_EQ(rewritten.size(), original.size());
  ASSERT_TRUE(
      WriteStringToFile(path_, Slice(rewritten.data(), rewritten.size()))
          .ok());
  std::filesystem::last_write_time(path_, old_time);

  NoDbEngine engine(MakeCatalog(), Config());
  auto report = engine.LoadSnapshot("t");
  ASSERT_TRUE(report.ok());
  // The stale snapshot must be rejected: recovering the old positional
  // map / store over the new bytes would return wrong answers.
  EXPECT_FALSE(report->any_recovered());

  NoDbEngine fresh(MakeCatalog(), Config());
  EXPECT_EQ(Run(&engine, kQuery), Run(&fresh, kQuery));
}

TEST_F(PersistTest, CleanAppendRecoversPrefixAndFirstTouchesTail) {
  {
    NoDbEngine engine(MakeCatalog(), Config());
    WarmAndSave(&engine);
  }
  auto app = OpenAppendableFile(path_);
  ASSERT_TRUE(app.ok());
  std::string tail = Rows(200, 250);
  ASSERT_TRUE((*app)->Append(Slice(tail.data(), tail.size())).ok());
  ASSERT_TRUE((*app)->Close().ok());

  NoDbEngine engine(MakeCatalog(), Config());
  auto report = engine.LoadSnapshot("t");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->attempted);
  EXPECT_EQ(report->change, FileChange::kAppended);
  EXPECT_TRUE(report->map_recovered);
  EXPECT_EQ(report->rows_recovered, 200u);

  const RawTableState* state = engine.table_state("t");
  ASSERT_NE(state, nullptr);
  EXPECT_FALSE(state->map().rows_complete());  // tail to discover

  NoDbEngine fresh(MakeCatalog(), Config());
  EXPECT_EQ(Run(&engine, kQuery), Run(&fresh, kQuery));
  EXPECT_EQ(engine.table_state("t")->map().known_rows(), 250u);
}

TEST_F(PersistTest, CorruptSectionDegradesOnlyThatStructure) {
  {
    NoDbEngine engine(MakeCatalog(), Config());
    WarmAndSave(&engine);
  }
  auto layout = persist::InspectSnapshot(SidecarPath());
  ASSERT_TRUE(layout.ok());
  auto bytes = ReadFileToString(SidecarPath());
  ASSERT_TRUE(bytes.ok());
  for (const persist::SectionInfo& section : layout->sections) {
    if (section.id != persist::Snapshot::kSectionStore) continue;
    ASSERT_GT(section.length, 0u);
    std::string corrupt = *bytes;
    corrupt[section.offset + section.length / 2] ^= 0x20;
    ASSERT_TRUE(WriteFileAtomic(SidecarPath(),
                                Slice(corrupt.data(), corrupt.size()))
                    .ok());
  }

  NoDbEngine engine(MakeCatalog(), Config());
  auto report = engine.LoadSnapshot("t");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->map_recovered);    // intact sections recover
  EXPECT_TRUE(report->stats_recovered);
  EXPECT_FALSE(report->store_recovered);  // the corrupt one is cold
  EXPECT_NE(report->detail.find("store"), std::string::npos);

  NoDbEngine fresh(MakeCatalog(), Config());
  EXPECT_EQ(Run(&engine, kQuery), Run(&fresh, kQuery));
}

/// Shared fuzz driver: mutates the sidecar, then requires a clean
/// engine start and byte-identical results.
class PersistFuzzTest : public PersistTest {
 protected:
  void SaveAndSnapshotBytes() {
    {
      NoDbEngine engine(MakeCatalog(), Config());
      reference_ = Run(&engine, kQuery);
      WarmAndSave(&engine);
    }
    auto layout = persist::InspectSnapshot(SidecarPath());
    ASSERT_TRUE(layout.ok());
    layout_ = *layout;
    auto bytes = ReadFileToString(SidecarPath());
    ASSERT_TRUE(bytes.ok());
    bytes_ = *bytes;
  }

  void ExpectCleanStart(const std::string& label) {
    NoDbEngine engine(MakeCatalog(), Config());
    auto report = engine.LoadSnapshot("t");
    ASSERT_TRUE(report.ok()) << label;
    auto outcome = engine.Execute(kQuery);
    ASSERT_TRUE(outcome.ok()) << label << ": "
                              << outcome.status().ToString();
    EXPECT_EQ(outcome->result.CanonicalRows(), reference_) << label;
  }

  std::vector<std::string> reference_;
  persist::SnapshotLayout layout_;
  std::string bytes_;
};

TEST_F(PersistFuzzTest, ByteFlipAtEverySectionBoundary) {
  SaveAndSnapshotBytes();
  // Offsets to attack: the header start, the directory region, and for
  // every section its first, middle and last payload byte.
  std::vector<size_t> offsets = {0, 8, 40};
  for (const persist::SectionInfo& section : layout_.sections) {
    if (section.length == 0) continue;
    offsets.push_back(section.offset);
    offsets.push_back(section.offset + section.length / 2);
    offsets.push_back(section.offset + section.length - 1);
  }
  for (size_t offset : offsets) {
    ASSERT_LT(offset, bytes_.size());
    std::string corrupt = bytes_;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x01);
    ASSERT_TRUE(WriteFileAtomic(SidecarPath(),
                                Slice(corrupt.data(), corrupt.size()))
                    .ok());
    ExpectCleanStart("byte flip at offset " + std::to_string(offset));
  }
}

TEST_F(PersistFuzzTest, TruncationAtEverySectionBoundary) {
  SaveAndSnapshotBytes();
  std::vector<size_t> cuts = {0, 4, 20};
  for (const persist::SectionInfo& section : layout_.sections) {
    cuts.push_back(section.offset);             // section fully missing
    cuts.push_back(section.offset + section.length / 2);  // torn
    cuts.push_back(section.offset + section.length);      // next missing
  }
  for (size_t cut : cuts) {
    ASSERT_LE(cut, bytes_.size());
    std::string truncated = bytes_.substr(0, cut);
    ASSERT_TRUE(WriteFileAtomic(SidecarPath(),
                                Slice(truncated.data(), truncated.size()))
                    .ok());
    ExpectCleanStart("truncated at " + std::to_string(cut));
  }
  // And the empty sidecar.
  ASSERT_TRUE(WriteFileAtomic(SidecarPath(), Slice("", 0)).ok());
  ExpectCleanStart("empty sidecar");
}

/// Appends `v`'s little-endian bytes (the sidecar's encoding).
template <typename T>
void Append(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// `out`, a sidecar laid out as `layout`, with section `id`'s payload
/// replaced by `payload`: its directory entry, its CRC and the header
/// CRC are recomputed, so only the section decoder's own checks stand
/// between the bytes and the engine.
std::string WithSectionPayload(std::string out,
                               const persist::SnapshotLayout& layout,
                               uint32_t id, const std::string& payload) {
  // The directory follows the fixed header (magic, version,
  // rows_per_block, five signature words, schema hash, section
  // count); each entry is id u32, offset u64, length u64, crc u32.
  constexpr size_t kFixedHeader = 8 + 4 + 4 + 40 + 8 + 4;
  constexpr size_t kEntry = 4 + 8 + 8 + 4;
  const uint64_t offset = out.size();
  const uint64_t length = payload.size();
  const uint32_t crc = Crc32c(payload.data(), payload.size());
  out += payload;  // the old payload stays, unreferenced
  bool found = false;
  for (size_t i = 0; i < layout.sections.size(); ++i) {
    if (layout.sections[i].id != id) continue;
    char* entry = out.data() + kFixedHeader + i * kEntry;
    std::memcpy(entry + 4, &offset, 8);
    std::memcpy(entry + 12, &length, 8);
    std::memcpy(entry + 20, &crc, 4);
    found = true;
  }
  EXPECT_TRUE(found) << persist::SectionName(id);
  const size_t header_len = kFixedHeader + layout.sections.size() * kEntry;
  const uint32_t header_crc = Crc32c(out.data(), header_len);
  std::memcpy(out.data() + header_len, &header_crc, 4);
  return out;
}

/// Corruptions that keep every checksum valid (WithSectionPayload).
class PersistDecoderFuzzTest : public PersistFuzzTest {
 protected:
  void WriteWithPayload(uint32_t id, const std::string& payload) {
    const std::string out = WithSectionPayload(bytes_, layout_, id, payload);
    ASSERT_TRUE(
        WriteFileAtomic(SidecarPath(), Slice(out.data(), out.size())).ok());
  }

  std::string Payload(uint32_t id) const {
    for (const persist::SectionInfo& section : layout_.sections) {
      if (section.id == id) {
        return bytes_.substr(section.offset, section.length);
      }
    }
    ADD_FAILURE() << "no section " << persist::SectionName(id);
    return {};
  }

  /// Section `id` must come back cold as a malformed payload, every
  /// other section must recover, and the answers must not change.
  void ExpectOnlySectionMalformed(uint32_t id, const std::string& label) {
    NoDbEngine engine(MakeCatalog(), Config());
    auto report = engine.LoadSnapshot("t");
    ASSERT_TRUE(report.ok()) << label;
    EXPECT_TRUE(report->attempted) << label;
    EXPECT_EQ(report->map_recovered, id != persist::Snapshot::kSectionMap)
        << label;
    EXPECT_EQ(report->stats_recovered,
              id != persist::Snapshot::kSectionStats)
        << label;
    EXPECT_EQ(report->zones_recovered,
              id != persist::Snapshot::kSectionZones)
        << label;
    EXPECT_EQ(report->store_recovered,
              id != persist::Snapshot::kSectionStore)
        << label;
    EXPECT_EQ(report->detail, std::string(persist::SectionName(id)) +
                                  ": malformed payload")
        << label;
    auto outcome = engine.Execute(kQuery);
    ASSERT_TRUE(outcome.ok()) << label << ": "
                              << outcome.status().ToString();
    EXPECT_EQ(outcome->result.CanonicalRows(), reference_) << label;
  }

  void ExpectMalformed(uint32_t id, const std::string& payload,
                       const std::string& label) {
    WriteWithPayload(id, payload);
    ExpectOnlySectionMalformed(id, label);
  }
};

TEST_F(PersistDecoderFuzzTest, MapCountsAndStrideAreChecked) {
  SaveAndSnapshotBytes();
  const uint32_t map = persist::Snapshot::kSectionMap;
  {
    std::string p;
    Append<uint64_t>(&p, uint64_t{1} << 60);  // row count
    ExpectMalformed(map, p, "huge row count");
  }
  // An empty, complete row index, then the chunk count.
  std::string head;
  Append<uint64_t>(&head, 0);
  Append<uint8_t>(&head, 1);
  Append<uint64_t>(&head, 0);
  Append<uint64_t>(&head, 0);
  {
    std::string p = head;
    Append<uint64_t>(&p, uint64_t{1} << 60);
    ExpectMalformed(map, p, "huge chunk count");
  }
  {
    // One chunk over one attribute holds {start,end} pairs: 3 values
    // is not a whole number of rows.
    std::string p = head;
    Append<uint64_t>(&p, 1);
    Append<uint64_t>(&p, 0);   // first_row
    Append<uint32_t>(&p, 1);   // attrs
    Append<uint32_t>(&p, 0);
    Append<uint64_t>(&p, 3);   // ndata
    for (uint32_t v : {1u, 2u, 3u}) Append<uint32_t>(&p, v);
    ExpectMalformed(map, p, "ndata not a multiple of the stride");
  }
}

TEST_F(PersistDecoderFuzzTest, StoreSegmentsAreChecked) {
  SaveAndSnapshotBytes();
  const uint32_t store = persist::Snapshot::kSectionStore;
  // One segment: attr, block, type byte, rows, then the rows.
  auto segment = [](uint32_t attr, uint8_t type, uint64_t rows) {
    std::string p;
    Append<uint64_t>(&p, 1);
    Append<uint32_t>(&p, attr);
    Append<uint64_t>(&p, 0);
    Append<uint8_t>(&p, type);
    Append<uint64_t>(&p, rows);
    return p;
  };
  {
    std::string p = segment(0, 0, 1000);
    Append<uint8_t>(&p, 1);
    Append<int64_t>(&p, 42);
    ExpectMalformed(store, p, "rows larger than the payload");
  }
  {
    std::string p = segment(0, 0, 2);
    Append<uint8_t>(&p, 0);
    Append<uint8_t>(&p, 1);  // a valid row with no value after it
    Append<uint32_t>(&p, 7);
    ExpectMalformed(store, p, "fixed-width value past the end");
  }
  {
    std::string p = segment(2, 2, 1);
    Append<uint8_t>(&p, 1);
    Append<uint32_t>(&p, 100);
    p += "ab";
    ExpectMalformed(store, p, "string length past the end");
  }
  ExpectMalformed(store, segment(0, 9, 0), "type byte 9");
  {
    std::string p = segment(7, 0, 1);
    Append<uint8_t>(&p, 1);
    Append<int64_t>(&p, 42);
    ExpectMalformed(store, p, "segment attr outside the schema");
  }
  {
    std::string p = segment(1, 0, 1);  // column b is DOUBLE
    Append<uint8_t>(&p, 1);
    Append<int64_t>(&p, 42);
    ExpectMalformed(store, p, "segment type differs from the schema");
  }
}

TEST_F(PersistDecoderFuzzTest, StatsSectionWithBoundsAndSketchStillLoads) {
  // Version-1 stats sections written before the statistics shrank to
  // one sample carry a null count, global bounds and a non-empty
  // distinct-value sketch. They still decode: the sample and the
  // counts come back, the rest is dropped.
  SaveAndSnapshotBytes();
  std::vector<double> sample;
  for (int r = 0; r < 200; r += 2) sample.push_back(r);
  std::string p;
  Append<uint32_t>(&p, 3);  // attributes a, b, c
  Append<uint8_t>(&p, 1);   // a: observed
  Append<uint64_t>(&p, 200);  // rows
  Append<uint64_t>(&p, 0);    // nulls
  Append<uint8_t>(&p, 1);     // has_min, min
  Append<double>(&p, 0);
  Append<uint8_t>(&p, 1);     // has_max, max
  Append<double>(&p, 199);
  Append<uint64_t>(&p, 3);    // the sketch's hashes
  for (uint64_t h : {11u, 22u, 33u}) Append<uint64_t>(&p, h);
  Append<uint64_t>(&p, sample.size());
  for (double v : sample) Append<double>(&p, v);
  Append<uint64_t>(&p, 0);    // no string sample
  Append<uint64_t>(&p, 200);  // sampled_stream
  Append<uint8_t>(&p, 0);     // b: never observed
  Append<uint8_t>(&p, 1);     // c: observed, with a sketch and no bounds
  Append<uint64_t>(&p, 200);
  Append<uint64_t>(&p, 10);
  Append<uint8_t>(&p, 0);
  Append<double>(&p, 0);
  Append<uint8_t>(&p, 0);
  Append<double>(&p, 0);
  Append<uint64_t>(&p, 1);
  Append<uint64_t>(&p, 44);
  Append<uint64_t>(&p, 0);  // no numeric sample
  Append<uint64_t>(&p, 2);
  for (std::string_view str : {"s1", "s6"}) {
    Append<uint32_t>(&p, static_cast<uint32_t>(str.size()));
    p += str;
  }
  Append<uint64_t>(&p, 190);
  Append<uint64_t>(&p, 3);  // heat
  for (uint64_t h : {5u, 0u, 4u}) Append<uint64_t>(&p, h);
  Append<uint64_t>(&p, 0);  // no observed blocks
  WriteWithPayload(persist::Snapshot::kSectionStats, p);

  NoDbEngine engine(MakeCatalog(), Config());
  auto report = engine.LoadSnapshot("t");
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->stats_recovered) << report->detail;
  const StatsCollector& stats = engine.table_state("t")->stats();
  EXPECT_EQ(stats.CoveredAttributes(), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(stats.access_heat_counts(), (std::vector<uint64_t>{5, 0, 4}));
  const AttributeStats::Image a = stats.GetStats(0)->ExportImage();
  EXPECT_EQ(a.count, 200u);
  EXPECT_EQ(a.sampled_stream, 200u);
  EXPECT_EQ(a.numeric_sample, sample);
  const AttributeStats::Image c = stats.GetStats(2)->ExportImage();
  EXPECT_EQ(c.count, 200u);
  EXPECT_EQ(c.sampled_stream, 190u);
  EXPECT_EQ(c.string_sample, (std::vector<std::string>{"s1", "s6"}));
  auto outcome = engine.Execute(kQuery);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->result.CanonicalRows(), reference_);

  // A sample offered more values than its column has rows is corrupt.
  std::string bad;
  Append<uint32_t>(&bad, 3);
  Append<uint8_t>(&bad, 1);
  Append<uint64_t>(&bad, 10);  // rows
  // Nulls, bounds, and empty sketch, numeric and string samples.
  bad.append(8 + 2 * (1 + 8) + 3 * 8, '\0');
  Append<uint64_t>(&bad, 11);  // sampled_stream
  ExpectMalformed(persist::Snapshot::kSectionStats, bad,
                  "sample stream past the row count");
}

TEST_F(PersistDecoderFuzzTest, PayloadCutShortInEverySection) {
  SaveAndSnapshotBytes();
  for (uint32_t id :
       {persist::Snapshot::kSectionMap, persist::Snapshot::kSectionStats,
        persist::Snapshot::kSectionZones,
        persist::Snapshot::kSectionStore}) {
    std::string p = Payload(id);
    ASSERT_FALSE(p.empty());
    p.pop_back();
    ExpectMalformed(id, p,
                    std::string(persist::SectionName(id)) + " cut short");
  }
}

TEST_F(PersistFuzzTest, MissingSidecarIsAColdStart) {
  SaveAndSnapshotBytes();
  ASSERT_TRUE(RemoveFileIfExists(SidecarPath()).ok());
  NoDbEngine engine(MakeCatalog(), Config());
  auto report = engine.LoadSnapshot("t");
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->attempted);
  EXPECT_NE(report->detail.find("no snapshot"), std::string::npos);
  EXPECT_EQ(Run(&engine, kQuery), reference_);
}

/// A table of every column type with NULLs in each column, empty
/// fields, quoted empty strings, strings holding a NUL byte, NaN and
/// -0.0. An empty field, quoted or not, parses as NULL.
class PersistAllTypesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("nodb-persist-types");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    path_ = dir_->FilePath("u.csv");
    schema_ = Schema::Make({{"i", DataType::kInt64},
                            {"d", DataType::kDouble},
                            {"s", DataType::kString},
                            {"dt", DataType::kDate}});
    std::string csv;
    for (int r = 0; r < 150; ++r) {
      csv += r % 5 == 0 ? "" : std::to_string(r - 75);
      csv += ",";
      if (r % 7 == 1) {
        // NULL
      } else if (r % 11 == 2) {
        csv += "nan";
      } else if (r % 13 == 3) {
        csv += "-0.0";
      } else {
        csv += std::to_string(r) + ".25";
      }
      csv += ",";
      if (r % 6 == 2) {
        // NULL
      } else if (r % 6 == 5) {
        csv += "\"\"";
      } else if (r % 4 == 0) {
        csv += std::string("a\0b", 3) + std::to_string(r);
      } else {
        csv += "\"s," + std::to_string(r % 9) + "\"";
      }
      csv += ",";
      if (r % 8 != 3) {
        csv += "20" + std::to_string(10 + r % 20) + "-0" +
               std::to_string(1 + r % 9) + "-1" + std::to_string(r % 10);
      }
      csv += "\n";
    }
    ASSERT_TRUE(WriteStringToFile(path_, Slice(csv.data(), csv.size())).ok());
  }

  Catalog MakeCatalog() {
    CsvDialect dialect;
    dialect.allow_quoting = true;
    Catalog catalog;
    EXPECT_TRUE(catalog.RegisterTable({"u", path_, schema_, dialect}).ok());
    return catalog;
  }

  NoDbConfig Config() {
    NoDbConfig config;
    config.rows_per_block = 32;
    return config;
  }

  std::string Sidecar() const {
    auto bytes = ReadFileToString(persist::DefaultSnapshotPath(path_));
    EXPECT_TRUE(bytes.ok());
    return bytes.ok() ? *bytes : std::string();
  }

  static std::vector<std::string> Run(Engine* engine,
                                      const std::string& sql) {
    auto outcome = engine->Execute(sql);
    EXPECT_TRUE(outcome.ok()) << sql << ": " << outcome.status().ToString();
    if (!outcome.ok()) return {};
    return outcome->result.CanonicalRows();
  }

  std::unique_ptr<TempDir> dir_;
  std::string path_;
  std::shared_ptr<Schema> schema_;
};

TEST_F(PersistAllTypesTest, ResaveIsByteIdenticalAndAnswersMatch) {
  const std::vector<std::string> queries = {
      "SELECT i, d, s, dt FROM u",
      "SELECT i, s FROM u WHERE i > 10",
      "SELECT COUNT(*) FROM u WHERE d IS NULL",
      "SELECT dt, d FROM u WHERE dt >= DATE '2020-01-01'",
  };
  {
    NoDbEngine engine(MakeCatalog(), Config());
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& sql : queries) Run(&engine, sql);
    }
    ASSERT_TRUE(engine.SaveSnapshot("u").ok());
  }
  const std::string saved = Sidecar();

  NoDbEngine engine(MakeCatalog(), Config());
  auto report = engine.LoadSnapshot("u");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->detail, "recovered");
  EXPECT_TRUE(report->map_recovered);
  EXPECT_TRUE(report->stats_recovered);
  EXPECT_TRUE(report->zones_recovered);
  EXPECT_TRUE(report->store_recovered);
  // Every column of every block is a store segment.
  EXPECT_EQ(report->store_segments_recovered, 4u * 5u);
  ASSERT_TRUE(engine.SaveSnapshot("u").ok());
  EXPECT_TRUE(Sidecar() == saved) << "re-saved sidecar differs";

  LoadFirstEngine reference(MakeCatalog(), LoadProfile::kPostgres);
  for (const std::string& sql : queries) {
    EXPECT_EQ(Run(&engine, sql), Run(&reference, sql)) << sql;
  }
  auto outcome = engine.Execute(queries[0]);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->metrics.scan.rows_from_store, 150u);
  EXPECT_EQ(outcome->metrics.scan.rows_from_raw, 0u);
}

TEST_F(PersistAllTypesTest, HandBuiltVersionOneStoreSectionLoads) {
  // A version-1 store section written byte by byte: block 0's segment
  // of every column, each row a flag byte (0 = NULL) and, when valid,
  // 8 little-endian bytes or a u32 length and the bytes. It pins the
  // sidecar's row layout independently of the codec that writes it.
  const std::string sidecar = persist::DefaultSnapshotPath(path_);
  {
    NoDbEngine engine(MakeCatalog(), Config());
    Run(&engine, "SELECT i, d, s, dt FROM u");
    ASSERT_TRUE(engine.SaveSnapshot("u").ok());
  }
  auto layout = persist::InspectSnapshot(sidecar);
  ASSERT_TRUE(layout.ok());

  LoadFirstEngine reference(MakeCatalog(), LoadProfile::kPostgres);
  auto block0 = reference.Execute("SELECT i, d, s, dt FROM u LIMIT 32");
  ASSERT_TRUE(block0.ok());
  ASSERT_EQ(block0->result.num_rows(), 32u);
  std::string p;
  Append<uint64_t>(&p, 4);  // segments
  for (uint32_t attr = 0; attr < 4; ++attr) {
    const DataType type = schema_->field(attr).type;
    Append<uint32_t>(&p, attr);
    Append<uint64_t>(&p, 0);  // block
    Append<uint8_t>(&p, static_cast<uint8_t>(type));
    Append<uint64_t>(&p, 32);  // rows
    size_t nulls = 0;
    for (size_t r = 0; r < 32; ++r) {
      const Value v = block0->result.Row(r)[attr];
      if (v.is_null()) {
        Append<uint8_t>(&p, 0);
        ++nulls;
        continue;
      }
      Append<uint8_t>(&p, 1);
      switch (type) {
        case DataType::kInt64:
          Append<int64_t>(&p, v.int64());
          break;
        case DataType::kDouble:
          Append<double>(&p, v.dbl());
          break;
        case DataType::kString:
          Append<uint32_t>(&p, static_cast<uint32_t>(v.str().size()));
          p += v.str();
          break;
        case DataType::kDate:
          Append<int64_t>(&p, v.date_days());
          break;
      }
    }
    EXPECT_GT(nulls, 0u) << schema_->field(attr).name;
  }
  auto bytes = ReadFileToString(sidecar);
  ASSERT_TRUE(bytes.ok());
  const std::string out = WithSectionPayload(
      *bytes, *layout, persist::Snapshot::kSectionStore, p);
  ASSERT_TRUE(WriteFileAtomic(sidecar, Slice(out.data(), out.size())).ok());

  NoDbEngine engine(MakeCatalog(), Config());
  auto report = engine.LoadSnapshot("u");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->detail, "recovered");
  EXPECT_TRUE(report->store_recovered);
  EXPECT_EQ(report->store_segments_recovered, 4u);
  // Saved again before any query, the section comes back byte for byte.
  ASSERT_TRUE(engine.SaveSnapshot("u").ok());
  auto resaved = persist::InspectSnapshot(sidecar);
  ASSERT_TRUE(resaved.ok());
  const std::string again = Sidecar();
  for (const persist::SectionInfo& section : resaved->sections) {
    if (section.id != persist::Snapshot::kSectionStore) continue;
    EXPECT_TRUE(again.substr(section.offset, section.length) == p)
        << "re-saved store section differs";
  }

  const std::string all = "SELECT i, d, s, dt FROM u";
  auto outcome = engine.Execute(all);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->metrics.scan.rows_from_store, 32u);
  EXPECT_EQ(outcome->result.CanonicalRows(), Run(&reference, all));
}

}  // namespace
}  // namespace nodb
