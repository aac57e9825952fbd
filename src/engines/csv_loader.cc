#include "engines/csv_loader.h"

#include "csv/tokenizer.h"
#include "csv/value_parser.h"
#include "io/buffered_reader.h"
#include "io/file.h"
#include "util/stopwatch.h"

namespace nodb {

Result<std::shared_ptr<ColumnStoreTable>> LoadCsv(
    const std::string& path, std::shared_ptr<Schema> schema,
    const CsvDialect& dialect, LoadStats* stats) {
  NODB_ASSIGN_OR_RETURN(auto file, OpenRandomAccessFile(path));
  return LoadCsv(std::shared_ptr<RandomAccessFile>(std::move(file)), path,
                 std::move(schema), dialect, stats);
}

Result<std::shared_ptr<ColumnStoreTable>> LoadCsv(
    std::shared_ptr<RandomAccessFile> file, const std::string& path,
    std::shared_ptr<Schema> schema, const CsvDialect& dialect,
    LoadStats* stats) {
  Stopwatch watch;
  BufferedReader reader(std::move(file));
  NODB_RETURN_NOT_OK(reader.Refresh());
  CsvTokenizer tokenizer(dialect);

  auto table = std::make_shared<ColumnStoreTable>(schema);
  const size_t num_fields = schema->num_fields();
  std::vector<uint32_t> starts(num_fields + 2);
  std::string scratch;

  uint64_t offset = 0;
  uint64_t rows = 0;
  if (dialect.has_header) NODB_RETURN_NOT_OK(reader.SkipHeader(&offset));

  while (offset < reader.file_size()) {
    uint64_t line_end = 0;
    Status s = reader.FindNewline(offset, &line_end);
    if (!s.ok() && !s.IsOutOfRange()) return s;
    Slice line;
    NODB_RETURN_NOT_OK(reader.ReadAt(
        offset, static_cast<size_t>(line_end - offset), &line));
    // CRLF tolerance lives in the tokenizer (trailing '\r' is part of
    // the terminator); exactly one layer trims.

    uint32_t high = tokenizer.ScanStarts(
        line, 0, 0, static_cast<uint32_t>(num_fields), starts.data());
    if (high < num_fields) {
      return Status::ParseError(path + ": row " + std::to_string(rows) +
                                " has " + std::to_string(high) +
                                " fields, schema expects " +
                                std::to_string(num_fields));
    }
    for (size_t c = 0; c < num_fields; ++c) {
      Slice raw =
          CsvTokenizer::RawField(line, starts[c], starts[c + 1]);
      Slice text = tokenizer.DecodeField(raw, &scratch);
      Status ps =
          ValueParser::ParseInto(text, schema->field(c).type,
                                 &table->column(c));
      if (!ps.ok()) {
        return Status::ParseError(path + ": row " + std::to_string(rows) +
                                  ", column " + schema->field(c).name +
                                  ": " + ps.message());
      }
    }
    ++rows;
    offset = line_end + 1;
  }
  table->SetNumRows(rows);
  if (stats != nullptr) {
    stats->rows = rows;
    stats->bytes = reader.bytes_read();
    stats->elapsed_ns = watch.ElapsedNanos();
  }
  return table;
}

}  // namespace nodb
