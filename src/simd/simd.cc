#include "simd/simd.h"

#include <atomic>
#include <cstring>

// ---------------------------------------------------------------- ISA gates
// NODB_HAVE_* macros name the kernel tiers this translation unit compiles.
// They are feature-test conditionals only — every runtime decision goes
// through DetectedLevel()/ActiveLevel(). -DNODB_DISABLE_SIMD turns them
// all off, leaving the scalar kernels as the only compiled tier.
#if !defined(NODB_DISABLE_SIMD) && (defined(__x86_64__) || defined(_M_X64))
#define NODB_HAVE_SSE2 1
#if defined(__GNUC__) || defined(__clang__)
#define NODB_HAVE_AVX2 1
#endif
#include <immintrin.h>
#endif
#if !defined(NODB_DISABLE_SIMD) && defined(__aarch64__)
#define NODB_HAVE_NEON 1
#include <arm_neon.h>
#endif
#ifndef NODB_HAVE_SSE2
#define NODB_HAVE_SSE2 0
#endif
#ifndef NODB_HAVE_AVX2
#define NODB_HAVE_AVX2 0
#endif
#ifndef NODB_HAVE_NEON
#define NODB_HAVE_NEON 0
#endif

namespace nodb::simd {

namespace {

// ---------------------------------------------------------------- dispatch

/// ForceLevel state: -1 = none forced, otherwise the forced SimdLevel.
std::atomic<int> g_forced_level{-1};

// ----------------------------------------------------------- scalar kernel
// The reference tier: portable, compiled unconditionally, and the oracle
// the SIMD tiers are differential-tested against.

size_t FindPositionsScalar(const char* data, size_t size, size_t from,
                           char needle, size_t max_hits, uint32_t bias,
                           uint32_t* out) {
  size_t hits = 0;
  size_t pos = from;
  while (hits < max_hits && pos < size) {
    const char* hit = static_cast<const char*>(
        std::memchr(data + pos, needle, size - pos));
    if (hit == nullptr) break;
    pos = static_cast<size_t>(hit - data);
    out[hits++] = static_cast<uint32_t>(pos) + bias;
    ++pos;
  }
  return hits;
}

// ------------------------------------------------------------ SSE2 kernels
#if NODB_HAVE_SSE2

/// One-bit-per-byte equality mask for 16 bytes.
inline uint64_t EqMask16(__m128i block, __m128i needle) {
  return static_cast<uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(block, needle)));
}

size_t FindPositionsSse2(const char* data, size_t size, size_t from,
                         char needle, size_t max_hits, uint32_t bias,
                         uint32_t* out) {
  const __m128i vneedle = _mm_set1_epi8(needle);
  size_t hits = 0;
  size_t i = from;
  for (; i + 16 <= size && hits < max_hits; i += 16) {
    uint64_t mask = EqMask16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i)), vneedle);
    while (mask != 0 && hits < max_hits) {
      out[hits++] = static_cast<uint32_t>(i) +
                    static_cast<uint32_t>(__builtin_ctzll(mask)) + bias;
      mask &= mask - 1;
    }
  }
  if (hits < max_hits) {
    hits += FindPositionsScalar(data, size, i, needle, max_hits - hits, bias,
                                out + hits);
  }
  return hits;
}

#endif  // NODB_HAVE_SSE2 (scalar sibling: FindPositionsScalar above)

// ------------------------------------------------------------ AVX2 kernels
#if NODB_HAVE_AVX2

/// One-bit-per-byte equality mask for 32 bytes.
__attribute__((target("avx2"))) inline uint64_t EqMask32(__m256i block,
                                                         __m256i needle) {
  return static_cast<uint32_t>(
      _mm256_movemask_epi8(_mm256_cmpeq_epi8(block, needle)));
}

__attribute__((target("avx2"))) size_t FindPositionsAvx2(
    const char* data, size_t size, size_t from, char needle, size_t max_hits,
    uint32_t bias, uint32_t* out) {
  const __m256i vneedle = _mm256_set1_epi8(needle);
  size_t hits = 0;
  size_t i = from;
  for (; i + 32 <= size && hits < max_hits; i += 32) {
    uint64_t mask = EqMask32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i)),
        vneedle);
    while (mask != 0 && hits < max_hits) {
      out[hits++] = static_cast<uint32_t>(i) +
                    static_cast<uint32_t>(__builtin_ctzll(mask)) + bias;
      mask &= mask - 1;
    }
  }
  if (hits < max_hits) {
    hits += FindPositionsScalar(data, size, i, needle, max_hits - hits, bias,
                                out + hits);
  }
  return hits;
}

#endif  // NODB_HAVE_AVX2 (scalar sibling: FindPositionsScalar above)

// ------------------------------------------------------------ NEON kernels
#if NODB_HAVE_NEON

/// One-bit-per-byte equality mask for 64 bytes: AND the four 16-byte
/// compare results with per-lane bit weights, then pairwise-add down to
/// 8 bytes (the simdjson arm64 movemask idiom).
inline uint64_t EqMask64Neon(const char* p, uint8x16_t needle) {
  const uint8x16_t weights = {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80,
                              0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80};
  const uint8_t* u = reinterpret_cast<const uint8_t*>(p);
  uint8x16_t m0 = vandq_u8(vceqq_u8(vld1q_u8(u), needle), weights);
  uint8x16_t m1 = vandq_u8(vceqq_u8(vld1q_u8(u + 16), needle), weights);
  uint8x16_t m2 = vandq_u8(vceqq_u8(vld1q_u8(u + 32), needle), weights);
  uint8x16_t m3 = vandq_u8(vceqq_u8(vld1q_u8(u + 48), needle), weights);
  uint8x16_t sum = vpaddq_u8(vpaddq_u8(m0, m1), vpaddq_u8(m2, m3));
  sum = vpaddq_u8(sum, sum);
  return vgetq_lane_u64(vreinterpretq_u64_u8(sum), 0);
}

size_t FindPositionsNeon(const char* data, size_t size, size_t from,
                         char needle, size_t max_hits, uint32_t bias,
                         uint32_t* out) {
  const uint8x16_t vneedle = vdupq_n_u8(static_cast<uint8_t>(needle));
  size_t hits = 0;
  size_t i = from;
  for (; i + 64 <= size && hits < max_hits; i += 64) {
    uint64_t mask = EqMask64Neon(data + i, vneedle);
    while (mask != 0 && hits < max_hits) {
      out[hits++] = static_cast<uint32_t>(i) +
                    static_cast<uint32_t>(__builtin_ctzll(mask)) + bias;
      mask &= mask - 1;
    }
  }
  if (hits < max_hits) {
    hits += FindPositionsScalar(data, size, i, needle, max_hits - hits, bias,
                                out + hits);
  }
  return hits;
}

#endif  // NODB_HAVE_NEON (scalar sibling: FindPositionsScalar above)

}  // namespace

const char* LevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSSE2:
      return "sse2";
    case SimdLevel::kNEON:
      return "neon";
    case SimdLevel::kAVX2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel DetectedLevel() {
#if NODB_HAVE_AVX2
  // CPUID probe once; __builtin_cpu_supports caches internally but the
  // static keeps the hot path a plain load.
  static const bool has_avx2 = __builtin_cpu_supports("avx2") != 0;
  if (has_avx2) return SimdLevel::kAVX2;
#endif
#if NODB_HAVE_SSE2
  return SimdLevel::kSSE2;
#elif NODB_HAVE_NEON
  return SimdLevel::kNEON;
#else
  return SimdLevel::kScalar;
#endif
}

bool LevelAvailable(SimdLevel level) {
  const SimdLevel detected = DetectedLevel();
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kSSE2:
      return detected == SimdLevel::kSSE2 || detected == SimdLevel::kAVX2;
    case SimdLevel::kNEON:
      return detected == SimdLevel::kNEON;
    case SimdLevel::kAVX2:
      return detected == SimdLevel::kAVX2;
  }
  return false;
}

std::vector<SimdLevel> RunnableLevels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level : {SimdLevel::kScalar, SimdLevel::kSSE2,
                          SimdLevel::kNEON, SimdLevel::kAVX2}) {
    if (LevelAvailable(level)) levels.push_back(level);
  }
  return levels;
}

SimdLevel ActiveLevel() {
  const int forced = g_forced_level.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<SimdLevel>(forced);
  return DetectedLevel();
}

SimdLevel ForceLevel(SimdLevel level) {
  SimdLevel applied = level;
  if (!LevelAvailable(applied) && applied == SimdLevel::kAVX2) {
    applied = SimdLevel::kSSE2;  // degrade within the x86 family first
  }
  if (!LevelAvailable(applied)) applied = SimdLevel::kScalar;
  g_forced_level.store(static_cast<int>(applied), std::memory_order_relaxed);
  return applied;
}

void ClearForcedLevel() {
  g_forced_level.store(-1, std::memory_order_relaxed);
}

size_t FindBytePositions(SimdLevel level, const char* data, size_t size,
                         size_t from, char needle, size_t max_hits,
                         uint32_t bias, uint32_t* out) {
  if (max_hits == 0 || from >= size) return 0;
  switch (level) {
#if NODB_HAVE_AVX2
    case SimdLevel::kAVX2:
      return FindPositionsAvx2(data, size, from, needle, max_hits, bias, out);
#endif
#if NODB_HAVE_SSE2
    case SimdLevel::kSSE2:
      return FindPositionsSse2(data, size, from, needle, max_hits, bias, out);
#endif
#if NODB_HAVE_NEON
    case SimdLevel::kNEON:
      return FindPositionsNeon(data, size, from, needle, max_hits, bias, out);
#endif
    default:
      return FindPositionsScalar(data, size, from, needle, max_hits, bias,
                                 out);
  }
}

}  // namespace nodb::simd
