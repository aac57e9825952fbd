#ifndef NODB_UTIL_BYTES_H_
#define NODB_UTIL_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace nodb {

// The one byte encoding of the snapshot sidecar and the wire protocol:
// little-endian fixed-width values, strings as a u32 length and their
// bytes, arrays as a count and their elements. On a little-endian host
// a value's or an array's in-memory bytes are its encoding, so every
// field and counted array moves with one copy. Header-only so the bulk
// decoders that walk a payload stay inlined.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the byte encoding is copied as little-endian host bytes");

/// Reads a T at `p` and steps past it; the caller has bounds-checked.
template <typename T>
T Load(const char*& p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  p += sizeof(T);
  return v;
}

/// Appends encoded values to the buffer it owns.
class ByteWriter {
 public:
  void Reserve(size_t n) { buf_.reserve(n); }

  template <typename T>
  void Put(T v) {
    static_assert(std::is_arithmetic_v<T>);
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  void PutBytes(std::string_view bytes) {
    buf_.append(bytes.data(), bytes.size());
  }

  void PutStr(std::string_view s) {
    Put<uint32_t>(static_cast<uint32_t>(s.size()));
    PutBytes(s);
  }

  /// A `Count`-wide element count, then the elements.
  template <typename Count, typename T>
  void PutArray(const std::vector<T>& v) {
    Put<Count>(static_cast<Count>(v.size()));
    buf_.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
  }

  /// Appends `n` zero bytes and returns them, for the caller to fill in
  /// place (valid until the next append).
  char* Extend(size_t n) {
    const size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  size_t size() const { return buf_.size(); }
  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked sequential reader over a payload it does not own. An
/// overrun latches the error: ok() turns false and every later read
/// returns 0 (or an empty string). A decoder checks ok() once before it
/// acts on what it read.
class ByteReader {
 public:
  explicit ByteReader(std::string_view payload)
      : p_(payload.data()), end_(payload.data() + payload.size()) {}

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
  /// least `elem_bytes` more payload, so a corrupt or hostile count
  /// cannot drive a huge allocation. A count that does not fit latches
  /// the error.
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

}  // namespace nodb

#endif  // NODB_UTIL_BYTES_H_
