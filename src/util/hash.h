#ifndef NODB_UTIL_HASH_H_
#define NODB_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>

namespace nodb {

/// 64-bit FNV-1a over a byte range.
///
/// Used for the file-prefix checksum in update detection and the
/// snapshot's schema fingerprint. Not cryptographic.
inline uint64_t Fnv1a64(const char* data, size_t size,
                        uint64_t seed = 0xcbf29ce484222325ULL) {
  uint64_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Mixes a 64-bit integer (finalizer from MurmurHash3).
inline uint64_t MixHash64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

/// Combines two hashes (boost::hash_combine shape, 64-bit).
inline uint64_t CombineHash64(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

}  // namespace nodb

#endif  // NODB_UTIL_HASH_H_
