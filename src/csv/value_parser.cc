#include "csv/value_parser.h"

#include <charconv>
#include <cstring>

#include "types/date_util.h"

namespace nodb {

namespace {

/// std::from_chars rejects a leading '+', but real-world numeric CSV
/// columns ("+3.5") use it. Returns `text` without an explicit plus
/// sign; the next character must begin the number proper ("+-3", "+"
/// and "++1" stay invalid because from_chars then sees a sign).
Slice StripLeadingPlus(Slice text) {
  if (text.size() >= 2 && text[0] == '+' && text[1] != '+' &&
      text[1] != '-') {
    text.RemovePrefix(1);
  }
  return text;
}

// The branchless fast paths below accept only inputs whose value they
// produce bit-identically to std::from_chars (the differential fuzz in
// tests/csv_test.cc holds them to that); every other shape — including
// every malformed one — falls through, so from_chars remains the single
// authority on what parses and what the error text quotes.

// The SWAR digit tricks assume little-endian byte order (the first
// character must land in the low-order byte).
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define NODB_SWAR_LITTLE_ENDIAN 1
#else
#define NODB_SWAR_LITTLE_ENDIAN 0
#endif

/// Branchless conversion of 8 ASCII digits at `p` into their numeric
/// value: validate all 8 bytes at once with nibble masks, then reduce
/// pairs → quads → all 8 with three multiply-shift steps instead of a
/// per-byte loop. Returns false (leaving *out alone) when any byte is
/// not a digit.
inline bool Parse8Digits(const char* p, uint32_t* out) {
#if NODB_SWAR_LITTLE_ENDIAN
  uint64_t chunk;
  std::memcpy(&chunk, p, 8);
  // All high nibbles must be 3, and adding 6 to each low nibble must
  // not carry (i.e. every low nibble <= 9).
  if ((chunk & 0xF0F0F0F0F0F0F0F0ull) != 0x3030303030303030ull ||
      (((chunk + 0x0606060606060606ull) & 0xF0F0F0F0F0F0F0F0ull) !=
       0x3030303030303030ull)) {
    return false;
  }
  chunk &= 0x0F0F0F0F0F0F0F0Full;
  chunk = (chunk * ((10ull << 8) + 1)) >> 8;
  chunk = ((chunk & 0x00FF00FF00FF00FFull) * ((100ull << 16) + 1)) >> 16;
  chunk = ((chunk & 0x0000FFFF0000FFFFull) * ((10000ull << 32) + 1)) >> 32;
  *out = static_cast<uint32_t>(chunk);
  return true;
#else
  uint32_t value = 0;
  for (int i = 0; i < 8; ++i) {
    const uint32_t digit = static_cast<uint32_t>(p[i]) - '0';
    if (digit > 9) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
#endif
}

/// Exact double powers of ten: every entry up to 10^22 is exactly
/// representable, the precondition for the Clinger fast path below.
constexpr double kExactPow10[] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/// Clinger's fast path for plain decimals ("123", "-0.25", "1.050"):
/// when the digit string fits a 53-bit mantissa exactly and the scale
/// is within 10^±22, mantissa-as-double divided by an exact power of
/// ten is a single correctly-rounded operation — bit-identical to
/// from_chars. Exponent forms, inf/nan spellings, over-long digit
/// strings and everything malformed return false for the caller's
/// from_chars fallback.
inline bool FastParseDouble(const char* p, size_t size, double* out) {
  size_t i = 0;
  const bool negative = size > 0 && p[0] == '-';
  if (negative) i = 1;
  uint64_t mantissa = 0;
  int digit_count = 0;
  int frac_digits = 0;
  bool seen_dot = false;
  for (; i < size; ++i) {
    const char c = p[i];
    const uint32_t digit = static_cast<uint32_t>(c) - '0';
    if (digit <= 9) {
      if (++digit_count > 19) return false;  // may not fit 64 bits
      mantissa = mantissa * 10 + digit;
      frac_digits += seen_dot ? 1 : 0;
    } else if (c == '.' && !seen_dot) {
      seen_dot = true;
    } else {
      return false;
    }
  }
  if (digit_count == 0) return false;
  if (mantissa > (uint64_t{1} << 53)) return false;
  if (frac_digits > 22) return false;
  double value = static_cast<double>(mantissa);
  if (frac_digits > 0) value /= kExactPow10[frac_digits];
  *out = negative ? -value : value;
  return true;
}

}  // namespace

bool ValueParser::TryParseInt64(Slice text, int64_t* out) {
  Slice digits = StripLeadingPlus(text);
  const char* p = digits.data();
  size_t size = digits.size();
  bool negative = false;
  if (size > 0 && p[0] == '-') {
    negative = true;
    ++p;
    --size;
  }
  // Fast path: up to 18 digits cannot overflow int64, so the only
  // validation needed is digit-ness — done 8 bytes at a time.
  if (size >= 1 && size <= 18) {
    uint64_t magnitude = 0;
    size_t i = 0;
    bool all_digits = true;
    for (; i + 8 <= size; i += 8) {
      uint32_t chunk;
      if (!Parse8Digits(p + i, &chunk)) {
        all_digits = false;
        break;
      }
      magnitude = magnitude * 100000000u + chunk;
    }
    for (; all_digits && i < size; ++i) {
      const uint32_t digit = static_cast<uint32_t>(p[i]) - '0';
      if (digit > 9) {
        all_digits = false;
        break;
      }
      magnitude = magnitude * 10 + digit;
    }
    if (all_digits) {
      const int64_t value = static_cast<int64_t>(magnitude);
      *out = negative ? -value : value;
      return true;
    }
  }
  // Slow path: 19/20-digit values near the int64 limits, and every
  // malformed input (from_chars owns rejection and overflow).
  auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), *out);
  return ec == std::errc() && ptr == digits.data() + digits.size();
}

bool ValueParser::TryParseDouble(Slice text, double* out) {
  Slice digits = StripLeadingPlus(text);
  if (FastParseDouble(digits.data(), digits.size(), out)) return true;
  auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), *out);
  return ec == std::errc() && ptr == digits.data() + digits.size();
}

bool ValueParser::TryParseDateDays(Slice text, int64_t* out) {
  Result<int64_t> days = ParseDate(text.view());
  if (!days.ok()) return false;
  *out = *days;
  return true;
}

Result<int64_t> ValueParser::ParseInt64(Slice text) {
  int64_t value = 0;
  if (!TryParseInt64(text, &value)) {
    return Status::ParseError("not an integer: '" + text.ToString() + "'");
  }
  return value;
}

Result<double> ValueParser::ParseDouble(Slice text) {
  double value = 0;
  if (!TryParseDouble(text, &value)) {
    return Status::ParseError("not a number: '" + text.ToString() + "'");
  }
  return value;
}

Result<int64_t> ValueParser::ParseDateDays(Slice text) {
  return ParseDate(text.view());
}

Status ValueParser::FieldError(Slice text, DataType type) {
  switch (type) {
    case DataType::kInt64:
      return ParseInt64(text).status();
    case DataType::kDouble:
      return ParseDouble(text).status();
    case DataType::kDate:
      return ParseDateDays(text).status();
    case DataType::kString:
      break;
  }
  return Status::Internal("no parse error for a string field");
}

Status ValueParser::ParseInto(Slice text, DataType type,
                              ColumnVector* col) {
  if (text.empty()) {
    col->AppendNull();
    return Status::OK();
  }
  switch (type) {
    case DataType::kInt64: {
      int64_t v = 0;
      if (!TryParseInt64(text, &v)) return FieldError(text, type);
      col->AppendInt64(v);
      return Status::OK();
    }
    case DataType::kDouble: {
      double v = 0;
      if (!TryParseDouble(text, &v)) return FieldError(text, type);
      col->AppendDouble(v);
      return Status::OK();
    }
    case DataType::kString:
      col->AppendString(text);
      return Status::OK();
    case DataType::kDate: {
      NODB_ASSIGN_OR_RETURN(int64_t v, ParseDateDays(text));
      col->AppendDate(v);
      return Status::OK();
    }
  }
  return Status::Internal("unhandled type in ParseInto");
}

}  // namespace nodb
