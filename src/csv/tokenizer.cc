#include "csv/tokenizer.h"

#include <cstring>

namespace nodb {

uint32_t CsvTokenizer::ScanStarts(Slice line, uint32_t from_field,
                                  uint32_t from_offset, uint32_t until_field,
                                  uint32_t* starts) const {
  // CRLF tolerance at the record level: a trailing '\r' is a line-ending
  // artifact, not data, and must not leak into the last field.
  if (!line.empty() && line[line.size() - 1] == '\r') {
    line = line.SubSlice(0, line.size() - 1);
  }
  uint32_t field = from_field;
  uint32_t pos = from_offset;
  starts[field] = pos;
  const char* data = line.data();
  const uint32_t size = static_cast<uint32_t>(line.size());
  const char delim = dialect_.delimiter;

  if (field >= until_field) return field;

  if (!dialect_.allow_quoting) {
    // Fast path: fields cannot contain the delimiter, so each boundary
    // is the next delimiter byte.
    if (level_ != simd::SimdLevel::kScalar) {
      // Wide-register variant: one kernel call finds every remaining
      // boundary up to `until_field` and, with bias 1, writes the field
      // starts directly into place.
      const size_t found = simd::FindBytePositions(
          level_, data, size, pos, delim, until_field - field, /*bias=*/1,
          starts + field + 1);
      field += static_cast<uint32_t>(found);
      if (field >= until_field) return field;
      starts[field + 1] = size + 1;
      return field + 1;
    }
    while (pos <= size) {
      const char* hit = static_cast<const char*>(
          std::memchr(data + pos, delim, size - pos));
      if (hit == nullptr) {
        // Line exhausted: `field` is the last field.
        starts[field + 1] = size + 1;
        return field + 1;
      }
      pos = static_cast<uint32_t>(hit - data) + 1;
      ++field;
      starts[field] = pos;
      if (field >= until_field) return field;
    }
    starts[field + 1] = size + 1;
    return field + 1;
  }

  // Quote-aware path.
  while (true) {
    // `pos` is at the start of the current field's content.
    uint32_t cur = pos;
    if (cur < size && data[cur] == dialect_.quote) {
      // Scan to the closing quote, honoring doubled-quote escapes.
      ++cur;
      while (cur < size) {
        if (data[cur] == dialect_.quote) {
          if (cur + 1 < size && data[cur + 1] == dialect_.quote) {
            cur += 2;  // escaped quote
          } else {
            ++cur;  // closing quote
            break;
          }
        } else {
          ++cur;
        }
      }
    }
    // Scan to the delimiter (content after a closing quote is kept
    // verbatim, matching lenient RFC-4180 readers).
    while (cur < size && data[cur] != delim) ++cur;
    if (cur >= size) {
      starts[field + 1] = size + 1;
      return field + 1;
    }
    pos = cur + 1;
    ++field;
    starts[field] = pos;
    if (field >= until_field) return field;
  }
}

uint32_t CsvTokenizer::TokenizeLine(Slice line,
                                    std::vector<uint32_t>* starts) const {
  starts->clear();
  // Upper bound on the number of fields: one per byte plus one.
  starts->resize(line.size() + 2);
  uint32_t high = ScanStarts(line, 0, 0,
                             static_cast<uint32_t>(line.size() + 1),
                             starts->data());
  // ScanStarts exhausted the line, so `high` = field count + ... the
  // virtual start index, i.e. the count itself.
  starts->resize(high + 1);
  return high;
}

Slice CsvTokenizer::DecodeQuoted(Slice raw, std::string* scratch) const {
  Slice inner = raw.SubSlice(1, raw.size() - 2);
  // Fast path: no embedded quotes to unescape.
  if (std::memchr(inner.data(), dialect_.quote, inner.size()) == nullptr) {
    return inner;
  }
  scratch->clear();
  for (size_t i = 0; i < inner.size(); ++i) {
    char c = inner[i];
    scratch->push_back(c);
    if (c == dialect_.quote && i + 1 < inner.size() &&
        inner[i + 1] == dialect_.quote) {
      ++i;  // skip the second quote of the pair
    }
  }
  return Slice(*scratch);
}

}  // namespace nodb
