#include "src/util/crc32.h"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace trilist {
namespace {

/// The byte-at-a-time table loop CRC-32 used before slicing: the oracle
/// the sliced implementation must reproduce exactly.
std::array<uint32_t, 256> MakeByteTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

uint32_t ReferenceCrc32(uint32_t crc, const unsigned char* p, size_t len) {
  static const std::array<uint32_t, 256> kTable = MakeByteTable();
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.NextBounded(256));
  return bytes;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32Update(0, "", 0), 0u);
  const std::string check = "123456789";
  EXPECT_EQ(Crc32Update(0, check.data(), check.size()), 0xCBF43926u);
  const std::string fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(Crc32Update(0, fox.data(), fox.size()), 0x414FA339u);
}

TEST(Crc32Test, IncrementalEqualsOneShotAtEverySplit) {
  const std::vector<unsigned char> bytes = RandomBytes(100, 3);
  const uint32_t whole = Crc32Update(0, bytes.data(), bytes.size());
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    const uint32_t head = Crc32Update(0, bytes.data(), cut);
    EXPECT_EQ(Crc32Update(head, bytes.data() + cut, bytes.size() - cut),
              whole)
        << "cut=" << cut;
  }
}

TEST(Crc32Test, EveryAlignmentAndShortLengthMatchesReference) {
  const std::vector<unsigned char> bytes = RandomBytes(8 + 64, 5);
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = bytes.data() + start;
      EXPECT_EQ(Crc32Update(0, p, len), ReferenceCrc32(0, p, len))
          << "start=" << start << " len=" << len;
      // A nonzero running value takes the same path.
      EXPECT_EQ(Crc32Update(0x12345678u, p, len),
                ReferenceCrc32(0x12345678u, p, len))
          << "start=" << start << " len=" << len;
    }
  }
}

TEST(Crc32Test, OneMegabyteMatchesReference) {
  const std::vector<unsigned char> bytes = RandomBytes(size_t{1} << 20, 7);
  EXPECT_EQ(Crc32Update(0, bytes.data(), bytes.size()),
            ReferenceCrc32(0, bytes.data(), bytes.size()));
  // Odd offset and length, so the sliced loop starts unaligned and ends
  // with a byte-wise tail.
  EXPECT_EQ(Crc32Update(0, bytes.data() + 3, bytes.size() - 8),
            ReferenceCrc32(0, bytes.data() + 3, bytes.size() - 8));
}

TEST(Crc32Test, SpanOverloadIsTheOneShot) {
  const std::vector<unsigned char> bytes = RandomBytes(37, 9);
  const std::span<const std::byte> view(
      reinterpret_cast<const std::byte*>(bytes.data()), bytes.size());
  EXPECT_EQ(Crc32(view), ReferenceCrc32(0, bytes.data(), bytes.size()));
}

}  // namespace
}  // namespace trilist
