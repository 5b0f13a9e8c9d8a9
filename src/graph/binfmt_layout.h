#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "src/graph/binfmt_stream.h"
#include "src/order/pipeline.h"

/// \file binfmt_layout.h
/// On-disk layout of the `.tlg` container (version 1), shared by the
/// loader (src/graph/binfmt.cpp), the one writer
/// (src/graph/binfmt_stream.h) and its producers: WriteTlgFile from
/// in-memory spans, and the out-of-core converter (src/ooc/convert.h).
/// Every producer lays out its directory with SectionPlan, so equal
/// inputs give equal bytes. Internal header — the public API stays in
/// binfmt.h.
///
/// All fields are little-endian; sections are 8-byte aligned within the
/// file and located through the directory, never by position.

namespace trilist::tlg {

inline constexpr char kMagic[8] = {'T', 'L', 'G', '1',
                                   '\r', '\n', '\x1a', '\n'};
inline constexpr uint32_t kVersion = 1;

// Section types.
inline constexpr uint32_t kSecCsrOffsets = 1;
inline constexpr uint32_t kSecCsrNeighbors = 2;
inline constexpr uint32_t kSecDegrees = 3;
inline constexpr uint32_t kSecOrientation = 4;

/// 40-byte file header. Field types are chosen so the struct has no
/// padding; the static_asserts pin the on-disk ABI.
struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t section_count;
  uint64_t num_nodes;
  uint64_t num_edges;
  uint32_t table_crc;  ///< CRC-32 of the section-table bytes.
  uint32_t reserved;
};
static_assert(sizeof(FileHeader) == 40, ".tlg header ABI");

/// 32-byte section directory entry.
struct SectionEntry {
  uint32_t type;
  uint32_t aux;      ///< Orientation slot index; 0 elsewhere.
  uint64_t offset;   ///< Absolute, 8-byte aligned.
  uint64_t length;   ///< Payload bytes (excludes alignment padding).
  uint32_t crc32;    ///< CRC-32 of the payload.
  uint32_t reserved;
};
static_assert(sizeof(SectionEntry) == 32, ".tlg section entry ABI");

/// 24-byte sub-header of an orientation section.
struct OrientHeader {
  uint32_t perm_code;  ///< Stable on-disk code, see PermKindToCode.
  uint32_t reserved;
  uint64_t seed;       ///< Meaningful for the uniform order only.
  uint64_t num_arcs;
};
static_assert(sizeof(OrientHeader) == 24, ".tlg orientation header ABI");

/// Stable on-disk permutation codes — deliberately decoupled from the
/// PermutationKind enum values so reordering the enum cannot silently
/// change the format.
inline uint32_t PermKindToCode(PermutationKind kind) {
  switch (kind) {
    case PermutationKind::kAscending: return 1;
    case PermutationKind::kDescending: return 2;
    case PermutationKind::kRoundRobin: return 3;
    case PermutationKind::kComplementaryRoundRobin: return 4;
    case PermutationKind::kUniform: return 5;
    case PermutationKind::kDegenerate: return 6;
    case PermutationKind::kAot: return 7;
    case PermutationKind::kSplit: return 8;
  }
  return 0;
}

inline bool PermKindFromCode(uint32_t code, PermutationKind* out) {
  switch (code) {
    case 1: *out = PermutationKind::kAscending; return true;
    case 2: *out = PermutationKind::kDescending; return true;
    case 3: *out = PermutationKind::kRoundRobin; return true;
    case 4: *out = PermutationKind::kComplementaryRoundRobin; return true;
    case 5: *out = PermutationKind::kUniform; return true;
    case 6: *out = PermutationKind::kDegenerate; return true;
    case 7: *out = PermutationKind::kAot; return true;
    case 8: *out = PermutationKind::kSplit; return true;
    default: return false;
  }
}

inline size_t AlignUp8(size_t x) { return (x + 7u) & ~size_t{7}; }

/// Byte length of an orientation section for an (n, m) graph: the
/// sub-header, out/in offsets (u64), out/in neighbors (u32) and the
/// original-of map (u32).
inline uint64_t OrientationSectionLength(uint64_t n, uint64_t m) {
  return sizeof(OrientHeader) + 2 * (n + 1) * sizeof(uint64_t) +
         2 * m * sizeof(uint32_t) + n * sizeof(uint32_t);
}

/// The orientation sub-header for `spec` over m arcs. The seed is
/// stored for the uniform order only, so equal orders give equal bytes.
inline OrientHeader MakeOrientHeader(const OrientSpec& spec, uint64_t m) {
  return {PermKindToCode(spec.kind), 0,
          spec.kind == PermutationKind::kUniform ? spec.seed : 0, m};
}

/// The section directory of an (n, m) graph, in file order: CSR
/// offsets, CSR neighbors, the degree sequence, then one
/// orientation per embedded spec (its slot index in `aux`). Every
/// orientation holds exactly m arcs (the loader rejects any other
/// count), so the plan depends on the counts alone.
inline std::vector<TlgStreamSectionPlan> SectionPlan(
    uint64_t n, uint64_t m, size_t num_orientations) {
  std::vector<TlgStreamSectionPlan> plan;
  plan.push_back({kSecCsrOffsets, 0, (n + 1) * sizeof(uint64_t)});
  plan.push_back({kSecCsrNeighbors, 0, 2 * m * sizeof(uint32_t)});
  plan.push_back({kSecDegrees, 0, n * sizeof(int64_t)});
  for (size_t i = 0; i < num_orientations; ++i) {
    plan.push_back({kSecOrientation, static_cast<uint32_t>(i),
                    OrientationSectionLength(n, m)});
  }
  return plan;
}

}  // namespace trilist::tlg
