// CRC-32C (util/checksum.h) against published vectors and against a
// bit-at-a-time reference over every length and alignment, plus the
// streaming/extend property the snapshot writer relies on. Built with
// -DNODB_DISABLE_SIMD the same cases check the table-driven path.

#include "util/checksum.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace nodb {
namespace {

/// CRC-32C straight from the definition: reflected polynomial
/// 0x82F63B78, one bit at a time, initial and final inversion.
uint32_t ReferenceCrc32c(const unsigned char* p, size_t n,
                         uint32_t crc = 0) {
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (0x82F63B78u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return ~crc;
}

std::vector<unsigned char> RandomBytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng());
  return bytes;
}

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 (iSCSI) / "check" vectors for CRC-32C (Castagnoli).
  EXPECT_EQ(Crc32c("", 0), 0u);
  EXPECT_EQ(Crc32c("a", 1), 0xC1D04330u);
  EXPECT_EQ(Crc32c("abc", 3), 0x364B3FB7u);
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("The quick brown fox jumps over the lazy dog", 43),
            0x22620404u);

  // 32 bytes of zeros (iSCSI test pattern).
  char zeros[32];
  std::memset(zeros, 0, sizeof(zeros));
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);

  // 32 bytes of 0xFF.
  unsigned char ffs[32];
  std::memset(ffs, 0xFF, sizeof(ffs));
  EXPECT_EQ(Crc32c(ffs, sizeof(ffs)), 0x62A8AB43u);

  // 0x00..0x1F ascending.
  unsigned char ascending[32];
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(Crc32c(ascending, sizeof(ascending)), 0x46DD794Eu);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data =
      "persistent adaptive-state snapshots survive process restarts";
  uint32_t one_shot = Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t first = Crc32c(data.data(), split);
    uint32_t extended = Crc32c(data.data() + split, data.size() - split,
                               first);
    EXPECT_EQ(extended, one_shot) << "split at " << split;
  }
}

TEST(Crc32cTest, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  const std::vector<unsigned char> bytes = RandomBytes(1024 + 8, 20);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const unsigned char* p = bytes.data() + offset;
      ASSERT_EQ(Crc32c(p, len), ReferenceCrc32c(p, len))
          << "offset " << offset << ", length " << len;
    }
  }
}

TEST(Crc32cTest, StreamingMatchesReferenceAtRandomSplits) {
  std::mt19937 rng(3720);
  for (int round = 0; round < 200; ++round) {
    const size_t n = rng() % 4096;
    const std::vector<unsigned char> bytes =
        RandomBytes(n, static_cast<uint32_t>(round));
    const size_t split = n == 0 ? 0 : rng() % (n + 1);
    const uint32_t first = Crc32c(bytes.data(), split);
    const uint32_t streamed =
        Crc32c(bytes.data() + split, n - split, first);
    ASSERT_EQ(streamed, ReferenceCrc32c(bytes.data(), n))
        << "length " << n << ", split " << split;
  }
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string data(256, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 31 + 7);
  }
  uint32_t clean = Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); byte += 13) {
    std::string corrupt = data;
    corrupt[byte] = static_cast<char>(corrupt[byte] ^ 0x40);
    EXPECT_NE(Crc32c(corrupt.data(), corrupt.size()), clean)
        << "flip at byte " << byte;
  }
}

}  // namespace
}  // namespace nodb
