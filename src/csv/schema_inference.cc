#include "csv/schema_inference.h"

#include <algorithm>
#include <vector>

#include "csv/tokenizer.h"
#include "csv/value_parser.h"
#include "io/buffered_reader.h"
#include "io/file.h"

namespace nodb {

namespace {

/// Type lattice position; larger = wider.
enum class Guess { kUnknown, kInt, kDate, kDouble, kString };

Guess GuessOf(Slice text) {
  if (ValueParser::ParseInt64(text).ok()) return Guess::kInt;
  if (ValueParser::ParseDouble(text).ok()) return Guess::kDouble;
  if (ValueParser::ParseDateDays(text).ok()) return Guess::kDate;
  return Guess::kString;
}

/// Widens `current` to also admit `observed`.
Guess Widen(Guess current, Guess observed) {
  if (current == Guess::kUnknown) return observed;
  if (current == observed) return current;
  // INT widens to DOUBLE; any numeric/date conflict widens to STRING.
  if ((current == Guess::kInt && observed == Guess::kDouble) ||
      (current == Guess::kDouble && observed == Guess::kInt)) {
    return Guess::kDouble;
  }
  return Guess::kString;
}

DataType ToDataType(Guess guess) {
  switch (guess) {
    case Guess::kInt:
      return DataType::kInt64;
    case Guess::kDouble:
      return DataType::kDouble;
    case Guess::kDate:
      return DataType::kDate;
    case Guess::kUnknown:
    case Guess::kString:
      return DataType::kString;
  }
  return DataType::kString;
}

}  // namespace

Result<InferredTable> InferSchema(const std::string& path,
                                  const CsvDialect& dialect,
                                  const InferenceOptions& options) {
  NODB_ASSIGN_OR_RETURN(auto file, OpenRandomAccessFile(path));
  BufferedReader reader(std::shared_ptr<RandomAccessFile>(std::move(file)));
  NODB_RETURN_NOT_OK(reader.Refresh());
  CsvTokenizer tokenizer(dialect);

  // Collect the raw fields of up to sample_rows+1 rows (the +1 is the
  // potential header).
  std::vector<std::vector<std::string>> rows;
  std::vector<uint32_t> starts;
  std::string scratch;
  uint64_t offset = 0;
  while (offset < reader.file_size() &&
         rows.size() < options.sample_rows + 1) {
    uint64_t line_end = 0;
    Status s = reader.FindNewline(offset, &line_end);
    if (!s.ok() && !s.IsOutOfRange()) return s;
    Slice line;
    NODB_RETURN_NOT_OK(reader.ReadAt(
        offset, static_cast<size_t>(line_end - offset), &line));
    // CRLF tolerance lives in the tokenizer; one layer trims.
    uint32_t nfields = tokenizer.TokenizeLine(line, &starts);
    std::vector<std::string> fields;
    fields.reserve(nfields);
    for (uint32_t f = 0; f < nfields; ++f) {
      Slice raw = CsvTokenizer::RawField(line, starts[f], starts[f + 1]);
      fields.emplace_back(tokenizer.DecodeField(raw, &scratch).view());
    }
    rows.push_back(std::move(fields));
    offset = line_end + 1;
  }
  if (rows.empty()) {
    return Status::InvalidArgument("cannot infer a schema from an empty "
                                   "file: " +
                                   path);
  }

  // Column count: the modal width of the sample (robust to stray rows).
  size_t num_columns = rows[0].size();
  {
    std::vector<std::pair<size_t, size_t>> widths;  // width -> count
    for (const auto& row : rows) {
      bool found = false;
      for (auto& [w, c] : widths) {
        if (w == row.size()) {
          ++c;
          found = true;
          break;
        }
      }
      if (!found) widths.emplace_back(row.size(), 1);
    }
    size_t best = 0;
    for (const auto& [w, c] : widths) {
      if (c > best) {
        best = c;
        num_columns = w;
      }
    }
  }

  auto infer_over = [&](size_t first_row) {
    std::vector<Guess> guesses(num_columns, Guess::kUnknown);
    for (size_t r = first_row; r < rows.size(); ++r) {
      if (rows[r].size() != num_columns) continue;
      for (size_t c = 0; c < num_columns; ++c) {
        const std::string& text = rows[r][c];
        if (text.empty()) continue;
        guesses[c] = Widen(guesses[c], GuessOf(text));
      }
    }
    return guesses;
  };

  // Header detection: the first row is a header when it is all-text
  // while the rest of the sample gives at least one column a narrower
  // type — i.e. the first row would *widen* an otherwise typed column.
  bool has_header = false;
  std::vector<Guess> guesses = infer_over(1);
  if (options.detect_header && rows.size() > 1 &&
      rows[0].size() == num_columns) {
    bool first_row_all_text = true;
    bool header_widens = false;
    for (size_t c = 0; c < num_columns; ++c) {
      if (rows[0][c].empty()) continue;
      Guess g = GuessOf(rows[0][c]);
      if (g != Guess::kString) first_row_all_text = false;
      if (guesses[c] != Guess::kString && guesses[c] != Guess::kUnknown &&
          g == Guess::kString) {
        header_widens = true;
      }
    }
    has_header = first_row_all_text && header_widens;
  }
  if (!has_header) guesses = infer_over(0);

  std::vector<Field> fields;
  fields.reserve(num_columns);
  for (size_t c = 0; c < num_columns; ++c) {
    std::string name;
    if (has_header && c < rows[0].size() && !rows[0][c].empty()) {
      name = rows[0][c];
    } else {
      name = options.column_prefix + std::to_string(c);
    }
    fields.push_back(Field{std::move(name), ToDataType(guesses[c])});
  }

  InferredTable out;
  out.schema = Schema::Make(std::move(fields));
  out.dialect = dialect;
  out.dialect.has_header = has_header;
  out.sampled_rows = rows.size() - (has_header ? 1 : 0);
  return out;
}

}  // namespace nodb
