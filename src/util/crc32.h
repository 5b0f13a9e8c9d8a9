#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

/// \file crc32.h
/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
/// guarding every section of the `.tlg` binary graph container (see
/// src/graph/binfmt.h). Slice-by-8 table-driven (eight 256-entry tables,
/// eight bytes per step, portable C++ with explicit byte order),
/// incremental, no dependencies.

namespace trilist {

/// Extends a running CRC-32 with `len` bytes. Start from `crc = 0`;
/// the pre/post inversion is handled internally, so
/// Crc32Update(Crc32Update(0, a), b) == Crc32(a ++ b).
uint32_t Crc32Update(uint32_t crc, const void* data, size_t len);

/// One-shot CRC-32 of a byte range.
inline uint32_t Crc32(std::span<const std::byte> bytes) {
  return Crc32Update(0, bytes.data(), bytes.size());
}

}  // namespace trilist
