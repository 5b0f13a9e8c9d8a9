#include "src/util/crc32.h"

#include <array>

namespace trilist {

namespace {

/// Slicing tables for the reflected IEEE polynomial: kTables[0] is the
/// classic byte-at-a-time table, and kTables[k][b] is the CRC of byte b
/// followed by k zero bytes, so eight table lookups advance the register
/// over eight input bytes at once. Computed at compile time (read-only
/// storage, 8 KiB).
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr SliceTables MakeTables() {
  SliceTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      const uint32_t prev = t[k - 1][i];
      t[k][i] = t[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return t;
}

constexpr SliceTables kTables = MakeTables();

/// Little-endian 32-bit load from unaligned bytes (one mov on x86).
inline uint32_t Load32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 |
         static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  // Slice-by-8: fold the register into the first four bytes, then look
  // up all eight bytes in the table for their distance from the end of
  // the block. Byte order is explicit, so the result is host-independent.
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = c ^ Load32(p);
    const uint32_t hi = Load32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace trilist
