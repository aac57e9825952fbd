#ifndef NODB_UTIL_CHECKSUM_H_
#define NODB_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace nodb {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum guarding
/// the persisted snapshot sections (persist/snapshot.h). Strong enough
/// to catch the torn writes, truncations and bit rot the recovery path
/// must degrade on, and standardized so sidecars are verifiable by
/// external tooling (same vectors as iSCSI / ext4 / leveldb).
///
/// The first call picks the implementation once: the SSE4.2 `crc32`
/// instruction on x86-64 CPUs that have it (probed with
/// `__builtin_cpu_supports`), `__crc32cd` on ARM builds where
/// `__ARM_FEATURE_CRC32` is set, and otherwise a byte-at-a-time
/// table loop — the scalar reference, and the only path compiled under
/// -DNODB_DISABLE_SIMD. All of them return the same value.
///
/// Streaming: `Crc32c(b, nb, Crc32c(a, na))` equals the CRC of the
/// concatenated bytes, so sections can be checksummed incrementally.
uint32_t Crc32c(const void* data, size_t size, uint32_t crc = 0);

}  // namespace nodb

#endif  // NODB_UTIL_CHECKSUM_H_
