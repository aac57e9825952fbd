#ifndef NODB_SIMD_SIMD_H_
#define NODB_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nodb::simd {

/// Instruction-set tiers for the byte-search kernel.
///
/// Kernels exist per tier behind one interface; `kScalar` is the
/// always-correct portable fallback, compiled unconditionally, and the
/// reference every SIMD tier is differential-tested against
/// (tests/simd_test.cc). Building with -DNODB_DISABLE_SIMD compiles
/// *only* the scalar tier; at runtime ForceLevel() pins any available
/// tier without rebuilding. Results are byte-identical across tiers by
/// contract.
enum class SimdLevel : int {
  kScalar = 0,  ///< portable byte-at-a-time kernels
  kSSE2 = 1,    ///< x86-64 baseline, 16-byte blocks
  kNEON = 2,    ///< aarch64 baseline, 4x16-byte blocks
  kAVX2 = 3,    ///< runtime-detected, 2x32-byte blocks
};

/// Human-readable tier name ("scalar", "sse2", "neon", "avx2").
const char* LevelName(SimdLevel level);

/// Best tier this binary + CPU supports (compile-time ISA gates plus a
/// one-time runtime CPUID probe for AVX2). Always `kScalar` under
/// NODB_DISABLE_SIMD.
SimdLevel DetectedLevel();

/// True when `level`'s kernels can run here (scalar always can; AVX2
/// only when detected; SSE2 whenever the detected tier is an x86 one).
bool LevelAvailable(SimdLevel level);

/// Every tier whose kernels can run here, scalar first.
std::vector<SimdLevel> RunnableLevels();

/// The tier scans and tokenizers pick up when they are constructed: the
/// detected tier, unless a test or bench forced another one.
SimdLevel ActiveLevel();

/// Forces `level` for subsequent ActiveLevel() calls, clamped to the
/// nearest available tier (AVX2 degrades to SSE2, anything unavailable
/// to scalar). Returns the tier actually applied. Test/bench hook.
SimdLevel ForceLevel(SimdLevel level);

/// Undoes ForceLevel: ActiveLevel() returns DetectedLevel() again.
void ClearForcedLevel();

/// Finds up to `max_hits` occurrences of `needle` in data[from, size),
/// writing `position + bias` for each into `out` in ascending order.
/// Returns the number written; fewer than `max_hits` means the range
/// holds no further occurrence. The tokenizer's selective-scanning
/// primitive: `bias = 1` yields CSV field starts directly.
size_t FindBytePositions(SimdLevel level, const char* data, size_t size,
                         size_t from, char needle, size_t max_hits,
                         uint32_t bias, uint32_t* out);

}  // namespace nodb::simd

#endif  // NODB_SIMD_SIMD_H_
