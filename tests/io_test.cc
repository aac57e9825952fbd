// Unit tests for the I/O layer: POSIX files, the block-buffered reader
// and the update-detection file signatures.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include "engines/csv_loader.h"
#include "io/buffered_reader.h"
#include "io/file.h"
#include "io/file_signature.h"
#include "io/temp_dir.h"
#include "util/random.h"

namespace nodb {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Create("nodb-io-test");
    ASSERT_TRUE(dir.ok()) << dir.status().ToString();
    dir_ = std::make_unique<TempDir>(std::move(*dir));
  }

  std::string Path(const std::string& name) { return dir_->FilePath(name); }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(IoTest, WriteReadRoundTrip) {
  std::string path = Path("a.txt");
  ASSERT_TRUE(WriteStringToFile(path, "hello raw data").ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "hello raw data");
  auto size = GetFileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 14u);
  EXPECT_TRUE(FileExists(path));
  ASSERT_TRUE(RemoveFileIfExists(path).ok());
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(RemoveFileIfExists(path).ok());  // idempotent
}

TEST_F(IoTest, OpenMissingFileFails) {
  auto file = OpenRandomAccessFile(Path("missing.csv"));
  EXPECT_FALSE(file.ok());
  EXPECT_TRUE(file.status().IsIOError());
}

TEST_F(IoTest, AppendableFileAppends) {
  std::string path = Path("log.csv");
  ASSERT_TRUE(WriteStringToFile(path, "one\n").ok());
  auto file = OpenAppendableFile(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("two\n").ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(*ReadFileToString(path), "one\ntwo\n");
}

TEST_F(IoTest, RandomAccessPositionalReads) {
  std::string path = Path("b.txt");
  ASSERT_TRUE(WriteStringToFile(path, "0123456789").ok());
  auto file = OpenRandomAccessFile(path);
  ASSERT_TRUE(file.ok());
  char scratch[16];
  Slice out;
  ASSERT_TRUE((*file)->Read(3, 4, scratch, &out).ok());
  EXPECT_EQ(out.ToString(), "3456");
  // Reading past EOF yields a short read, not an error.
  ASSERT_TRUE((*file)->Read(8, 10, scratch, &out).ok());
  EXPECT_EQ(out.ToString(), "89");
  ASSERT_TRUE((*file)->Read(100, 4, scratch, &out).ok());
  EXPECT_TRUE(out.empty());
}

// --------------------------------------------------------- BufferedReader

class BufferedReaderTest : public IoTest {
 protected:
  /// A file of `lines` rows "rowNNNN<pad>\n" with a tiny reader buffer
  /// so block-boundary paths are exercised.
  void MakeLines(size_t lines, size_t pad, size_t buffer_size) {
    std::string path = Path("lines.txt");
    std::string content;
    for (size_t i = 0; i < lines; ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "row%04zu", i);
      content += buf;
      content += std::string(pad, 'x');
      content += '\n';
      line_starts_.push_back(i == 0 ? 0 : line_starts_.back() +
                                              7 + pad + 1);
    }
    ASSERT_TRUE(WriteStringToFile(path, content).ok());
    auto file = OpenRandomAccessFile(path);
    ASSERT_TRUE(file.ok());
    reader_ = std::make_unique<BufferedReader>(
        std::shared_ptr<RandomAccessFile>(std::move(*file)), buffer_size);
    ASSERT_TRUE(reader_->Refresh().ok());
    content_ = std::move(content);
  }

  std::vector<uint64_t> line_starts_;
  std::string content_;
  std::unique_ptr<BufferedReader> reader_;
};

TEST_F(BufferedReaderTest, ReadAtAnywhereMatchesContent) {
  MakeLines(100, 20, 4096);
  Random rng(5);
  for (int i = 0; i < 500; ++i) {
    uint64_t off = rng.Uniform(content_.size());
    size_t len = 1 + rng.Uniform(200);
    Slice out;
    ASSERT_TRUE(reader_->ReadAt(off, len, &out).ok());
    size_t expected = std::min<uint64_t>(len, content_.size() - off);
    ASSERT_EQ(out.size(), expected);
    EXPECT_EQ(out.view(), std::string_view(content_).substr(off, expected));
  }
}

TEST_F(BufferedReaderTest, ReadsSpanningBlockBoundary) {
  MakeLines(100, 100, 4096);  // lines of 108 bytes vs 4 KiB blocks
  // A read crossing the 4096 boundary must still be contiguous.
  Slice out;
  ASSERT_TRUE(reader_->ReadAt(4090, 20, &out).ok());
  EXPECT_EQ(out.view(), std::string_view(content_).substr(4090, 20));
}

TEST_F(BufferedReaderTest, ReadLargerThanBufferGrowsIt) {
  MakeLines(100, 100, 4096);
  Slice out;
  ASSERT_TRUE(reader_->ReadAt(0, 9000, &out).ok());
  EXPECT_EQ(out.size(), 9000u);
  EXPECT_EQ(out.view(), std::string_view(content_).substr(0, 9000));
}

TEST_F(BufferedReaderTest, FindNewlineWalksEveryLine) {
  MakeLines(200, 13, 4096);
  uint64_t pos = 0;
  for (size_t i = 0; i < 200; ++i) {
    uint64_t end = 0;
    ASSERT_TRUE(reader_->FindNewline(pos, &end).ok()) << "line " << i;
    ASSERT_EQ(content_[end], '\n');
    if (i + 1 < 200) {
      EXPECT_EQ(end + 1, line_starts_[i + 1]);
    }
    pos = end + 1;
  }
  // Past the last line: OutOfRange with end == file size.
  uint64_t end = 0;
  Status s = reader_->FindNewline(pos, &end);
  EXPECT_TRUE(s.IsOutOfRange());
  EXPECT_EQ(end, content_.size());
}

TEST_F(BufferedReaderTest, FindNewlineOnUnterminatedTail) {
  std::string path = Path("tail.txt");
  ASSERT_TRUE(WriteStringToFile(path, "a,b\nc,d").ok());  // no final \n
  auto file = OpenRandomAccessFile(path);
  ASSERT_TRUE(file.ok());
  BufferedReader reader(std::shared_ptr<RandomAccessFile>(std::move(*file)));
  ASSERT_TRUE(reader.Refresh().ok());
  uint64_t end = 0;
  ASSERT_TRUE(reader.FindNewline(0, &end).ok());
  EXPECT_EQ(end, 3u);
  Status s = reader.FindNewline(4, &end);
  EXPECT_TRUE(s.IsOutOfRange());
  EXPECT_EQ(end, 7u);  // the unterminated line ends at EOF
}

/// Fails its first `failures` reads with an IOError, then reads through;
/// with `size_fails`, every Size() fails too.
class FlakyFile : public RandomAccessFile {
 public:
  FlakyFile(std::shared_ptr<RandomAccessFile> base, int failures,
            bool size_fails = false)
      : base_(std::move(base)),
        failures_left_(failures),
        size_fails_(size_fails) {}

  Status Read(uint64_t offset, size_t length, char* scratch,
              Slice* out) const override {
    if (failures_left_ > 0) {
      --failures_left_;
      return Status::IOError("injected transient read failure");
    }
    return base_->Read(offset, length, scratch, out);
  }
  Result<uint64_t> Size() const override {
    if (size_fails_) return Status::IOError("injected stat failure");
    return base_->Size();
  }
  const std::string& path() const override { return base_->path(); }

 private:
  std::shared_ptr<RandomAccessFile> base_;
  mutable int failures_left_;
  const bool size_fails_;
};

TEST_F(BufferedReaderTest, SkipHeaderSurfacesReadErrorThenSkips) {
  std::string path = Path("header.csv");
  ASSERT_TRUE(WriteStringToFile(path, "a,b\n1,2\n").ok());
  auto file = OpenRandomAccessFile(path);
  ASSERT_TRUE(file.ok());
  BufferedReader reader(std::make_shared<FlakyFile>(
      std::shared_ptr<RandomAccessFile>(std::move(*file)), 1));
  ASSERT_TRUE(reader.Refresh().ok());
  // The failed read is returned, not taken for a header-only file, and
  // the data start is left as it was.
  uint64_t data_begin = 99;
  Status s = reader.SkipHeader(&data_begin);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(data_begin, 99u);
  ASSERT_TRUE(reader.SkipHeader(&data_begin).ok());
  EXPECT_EQ(data_begin, 4u);

  // A header-only file has no data rows; an empty file has no header.
  for (const auto& [content, want] :
       {std::pair<std::string, uint64_t>{"a,b", 3},
        std::pair<std::string, uint64_t>{"", 0}}) {
    ASSERT_TRUE(WriteStringToFile(path, content).ok());
    auto again = OpenRandomAccessFile(path);
    ASSERT_TRUE(again.ok());
    BufferedReader plain(std::shared_ptr<RandomAccessFile>(std::move(*again)));
    ASSERT_TRUE(plain.Refresh().ok());
    ASSERT_TRUE(plain.SkipHeader(&data_begin).ok());
    EXPECT_EQ(data_begin, want) << "'" << content << "'";
  }
}

TEST_F(BufferedReaderTest, FailedSizeFailsTheLoadInsteadOfAnEmptyTable) {
  // A file whose stat fails is an error, not an empty table: the
  // loader and the reader both return the IOError.
  std::string path = Path("unsized.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,a\n2,b\n").ok());
  auto file = OpenRandomAccessFile(path);
  ASSERT_TRUE(file.ok());
  auto flaky = std::make_shared<FlakyFile>(
      std::shared_ptr<RandomAccessFile>(std::move(*file)), 0,
      /*size_fails=*/true);
  auto schema =
      Schema::Make({{"n", DataType::kInt64}, {"s", DataType::kString}});
  auto table = LoadCsv(flaky, path, schema, CsvDialect());
  EXPECT_TRUE(table.status().IsIOError()) << table.status().ToString();

  BufferedReader reader(flaky);
  EXPECT_TRUE(reader.Refresh().IsIOError());
}

TEST_F(BufferedReaderTest, IoCountersAccumulateAndReset) {
  MakeLines(100, 100, 4096);
  Slice out;
  ASSERT_TRUE(reader_->ReadAt(0, 100, &out).ok());
  EXPECT_GT(reader_->bytes_read(), 0u);
  reader_->ResetCounters();
  EXPECT_EQ(reader_->bytes_read(), 0u);
  EXPECT_EQ(reader_->io_nanos(), 0);
}

TEST_F(BufferedReaderTest, RefreshSeesGrownFile) {
  std::string path = Path("grow.txt");
  ASSERT_TRUE(WriteStringToFile(path, "aaa\n").ok());
  auto file = OpenRandomAccessFile(path);
  ASSERT_TRUE(file.ok());
  BufferedReader reader(std::shared_ptr<RandomAccessFile>(std::move(*file)));
  ASSERT_TRUE(reader.Refresh().ok());
  EXPECT_EQ(reader.file_size(), 4u);
  auto app = OpenAppendableFile(path);
  ASSERT_TRUE(app.ok());
  ASSERT_TRUE((*app)->Append("bbb\n").ok());
  ASSERT_TRUE((*app)->Close().ok());
  ASSERT_TRUE(reader.Refresh().ok());
  EXPECT_EQ(reader.file_size(), 8u);
  Slice out;
  ASSERT_TRUE(reader.ReadAt(4, 4, &out).ok());
  EXPECT_EQ(out.ToString(), "bbb\n");
}

// ---------------------------------------------------------- FileSignature

class FileSignatureTest : public IoTest {};

TEST_F(FileSignatureTest, UnchangedFile) {
  std::string path = Path("sig.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2\n3,4\n").ok());
  auto sig = FileSignature::Capture(path);
  ASSERT_TRUE(sig.ok());
  auto change = sig->Compare();
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(*change, FileChange::kUnchanged);
}

TEST_F(FileSignatureTest, AppendDetected) {
  std::string path = Path("sig.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2\n3,4\n").ok());
  auto sig = FileSignature::Capture(path);
  ASSERT_TRUE(sig.ok());
  auto app = OpenAppendableFile(path);
  ASSERT_TRUE(app.ok());
  ASSERT_TRUE((*app)->Append("5,6\n").ok());
  ASSERT_TRUE((*app)->Close().ok());
  auto change = sig->Compare();
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(*change, FileChange::kAppended);
}

TEST_F(FileSignatureTest, RewriteDetected) {
  std::string path = Path("sig.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2\n3,4\n").ok());
  auto sig = FileSignature::Capture(path);
  ASSERT_TRUE(sig.ok());
  // Same size, different content.
  ASSERT_TRUE(WriteStringToFile(path, "9,9\n9,9\n").ok());
  auto change = sig->Compare();
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(*change, FileChange::kRewritten);
}

TEST_F(FileSignatureTest, ShrinkIsRewrite) {
  std::string path = Path("sig.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2\n3,4\n").ok());
  auto sig = FileSignature::Capture(path);
  ASSERT_TRUE(sig.ok());
  ASSERT_TRUE(WriteStringToFile(path, "1,2\n").ok());
  auto change = sig->Compare();
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(*change, FileChange::kRewritten);
}

TEST_F(FileSignatureTest, ContentVerifyCatchesMtimePreservingRewrite) {
  // An in-place rewrite that preserves size *and* mtime (editors and
  // tools that restore timestamps) is invisible to the fast
  // size+mtime short-circuit — only the bounded content prefix/suffix
  // hashes can tell. The persisted-snapshot loader depends on this.
  std::string path = Path("sig.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2\n3,4\n").ok());
  auto sig = FileSignature::Capture(path);
  ASSERT_TRUE(sig.ok());
  auto old_time = std::filesystem::last_write_time(path);
  ASSERT_TRUE(WriteStringToFile(path, "9,9\n9,9\n").ok());  // same size
  std::filesystem::last_write_time(path, old_time);

  auto fast = sig->Compare();
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(*fast, FileChange::kUnchanged);  // fooled, by design

  auto verified = sig->Compare(/*verify_content=*/true);
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(*verified, FileChange::kRewritten);
}

TEST_F(FileSignatureTest, ContentVerifyRoundTripsThroughParts) {
  std::string path = Path("sig.csv");
  ASSERT_TRUE(WriteStringToFile(path, "1,2\n3,4\n").ok());
  auto sig = FileSignature::Capture(path);
  ASSERT_TRUE(sig.ok());
  FileSignature rebuilt = FileSignature::FromParts(
      path, sig->size(), sig->mtime_nanos(), sig->head_hash(),
      sig->tail_hash());
  auto change = rebuilt.Compare(/*verify_content=*/true);
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(*change, FileChange::kUnchanged);
}

TEST_F(FileSignatureTest, PrefixEditDetectedEvenWithSameSizeTail) {
  // Grow the file but also corrupt the old region: must NOT classify
  // as append.
  std::string path = Path("sig.csv");
  std::string original(100000, 'a');
  original += "\n";
  ASSERT_TRUE(WriteStringToFile(path, original).ok());
  auto sig = FileSignature::Capture(path);
  ASSERT_TRUE(sig.ok());
  std::string tampered = original;
  tampered[50] = 'Z';                // inside the head probe
  tampered += std::string(10, 'b');  // and grown
  ASSERT_TRUE(WriteStringToFile(path, tampered).ok());
  auto change = sig->Compare();
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(*change, FileChange::kRewritten);
}

TEST_F(FileSignatureTest, TailEditBeforeGrowthDetected) {
  std::string path = Path("sig.csv");
  std::string original(100000, 'a');
  ASSERT_TRUE(WriteStringToFile(path, original).ok());
  auto sig = FileSignature::Capture(path);
  ASSERT_TRUE(sig.ok());
  std::string tampered = original;
  tampered[99999] = 'Z';  // inside the tail probe
  tampered += "extra";
  ASSERT_TRUE(WriteStringToFile(path, tampered).ok());
  auto change = sig->Compare();
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(*change, FileChange::kRewritten);
}

TEST_F(FileSignatureTest, EmptyFileAppend) {
  std::string path = Path("empty.csv");
  ASSERT_TRUE(WriteStringToFile(path, "").ok());
  auto sig = FileSignature::Capture(path);
  ASSERT_TRUE(sig.ok());
  ASSERT_TRUE(WriteStringToFile(path, "1,2\n").ok());
  auto change = sig->Compare();
  ASSERT_TRUE(change.ok());
  EXPECT_EQ(*change, FileChange::kAppended);
}

// ----------------------------------------------------------------- TempDir

TEST(TempDirTest, CreatesAndRemovesRecursively) {
  std::string kept;
  {
    auto dir = TempDir::Create("nodb-td");
    ASSERT_TRUE(dir.ok());
    kept = dir->path();
    ASSERT_TRUE(WriteStringToFile(dir->FilePath("f.txt"), "x").ok());
    EXPECT_TRUE(FileExists(dir->FilePath("f.txt")));
  }
  EXPECT_FALSE(FileExists(kept + "/f.txt"));
  EXPECT_FALSE(FileExists(kept));
}

TEST(TempDirTest, MoveTransfersOwnership) {
  auto dir = TempDir::Create("nodb-td");
  ASSERT_TRUE(dir.ok());
  std::string path = dir->path();
  TempDir moved = std::move(*dir);
  EXPECT_EQ(moved.path(), path);
  EXPECT_TRUE(FileExists(path));
}

}  // namespace
}  // namespace nodb
