#include "util/checksum.h"

#include <array>
#include <cstring>

// NODB_HAVE_* name the hardware CRC tiers this translation unit
// compiles; -DNODB_DISABLE_SIMD turns them off, leaving the table loop.
#if !defined(NODB_DISABLE_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define NODB_HAVE_SSE42_CRC 1
#include <immintrin.h>
#endif
#if !defined(NODB_DISABLE_SIMD) && defined(__aarch64__) && \
    defined(__ARM_FEATURE_CRC32)
#define NODB_HAVE_ARM_CRC 1
#include <arm_acle.h>
#endif
#ifndef NODB_HAVE_SSE42_CRC
#define NODB_HAVE_SSE42_CRC 0
#endif
#ifndef NODB_HAVE_ARM_CRC
#define NODB_HAVE_ARM_CRC 0
#endif

namespace nodb {

namespace {

// Every kernel takes and returns the register form of the CRC (the
// caller inverts before and after).
using CrcKernel = uint32_t (*)(const unsigned char* p, size_t n,
                               uint32_t crc);

uint32_t Crc32cScalar(const unsigned char* p, size_t n, uint32_t crc) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      }
      table[i] = c;
    }
    return table;
  }();
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc;
}

#if NODB_HAVE_SSE42_CRC
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(
    const unsigned char* p, size_t n, uint32_t crc) {
  uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
  }
  crc = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) crc = _mm_crc32_u8(crc, *p);
  return crc;
}
#endif  // scalar sibling: Crc32cScalar

#if NODB_HAVE_ARM_CRC
uint32_t Crc32cArm(const unsigned char* p, size_t n, uint32_t crc) {
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = __crc32cd(crc, word);
  }
  for (; n > 0; ++p, --n) crc = __crc32cb(crc, *p);
  return crc;
}
#endif  // scalar sibling: Crc32cScalar

CrcKernel PickKernel() {
#if NODB_HAVE_SSE42_CRC
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#elif NODB_HAVE_ARM_CRC
  return Crc32cArm;
#endif
  return Crc32cScalar;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t size, uint32_t crc) {
  static const CrcKernel kernel = PickKernel();
  return ~kernel(static_cast<const unsigned char*>(data), size, ~crc);
}

}  // namespace nodb
