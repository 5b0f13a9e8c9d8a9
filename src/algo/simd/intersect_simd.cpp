#include "src/algo/simd/intersect_simd.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

namespace trilist {
namespace simd {
namespace {

/// Portable block merge: the scalar two-pointer loop writing matches to
/// `out`. Also serves as the tail of the vector kernels once fewer than a
/// register block remains on either side.
///
/// It takes IntersectMergeT's steps (8-step runs, then the branch-free
/// step) with a speculative store: every step writes a[i] to out[m] and
/// keeps it only on a match (m += a[i] == b[j]). The store stays in
/// bounds, m < min(|a|, |b|), for strict inputs: m counts the matches
/// found so far, each pairing one element of a with one of b, and while
/// both cursors are in range each list still holds an unmatched element
/// at or past its cursor. That is the cursor's own element when the
/// vector loop never loaded it, or else the maximum of the block the
/// vector loop left unconsumed, which no element of the other list's
/// consumed blocks can equal.
///
/// Kept as its own loop rather than a call to IntersectMergeT, and forced
/// inline: GCC -O2 inlines neither into the target("avx2"/"avx512f")
/// kernels by itself. With IntersectMergeT called out of line,
/// `--intersect simd` on G(1000, 1/2), one thread, took 372 ms instead of
/// 295 ms for E1 and 377 ms instead of 308 ms for E4; with this loop out
/// of line, E1 on a Pareto 1.5 graph (n = 100k, theta_D) took 152 ms
/// instead of 118 ms (min of 5 or 6 alternating runs of `run --repeats
/// 3`, 4-vCPU Intel Xeon with AVX-512).
[[gnu::always_inline]] inline size_t ScalarTail(std::span<const NodeId> a,
                                                std::span<const NodeId> b,
                                                size_t i, size_t j,
                                                NodeId* out, size_t m) {
  const size_t na = a.size();
  const size_t nb = b.size();
  while (i < na && j < nb) {
    const NodeId x = a[i];
    const NodeId y = b[j];
    if (i + 8 <= na && a[i + 7] < y) {  // a run, as in IntersectMergeT
      i += 8;
      continue;
    }
    if (j + 8 <= nb && b[j + 7] < x) {
      j += 8;
      continue;
    }
    out[m] = x;
    m += x == y;
    i += x <= y;
    j += y <= x;
  }
  return m;
}

size_t BlockMergeScalar(std::span<const NodeId> a, std::span<const NodeId> b,
                        NodeId* out) {
  return ScalarTail(a, b, 0, 0, out, 0);
}

#if defined(__x86_64__) || defined(_M_X64)

/// 8x8 all-pairs block merge. Each round compares one a-register against
/// every lane of one b-register via 8 cross-lane rotations; the matched
/// a-lanes are emitted in lane order (ascending, since the block is
/// sorted), then the block with the smaller maximum is discarded — all of
/// its possible matches lie within the other block just scanned.
__attribute__((target("avx2"))) size_t BlockMergeAvx2(
    std::span<const NodeId> a, std::span<const NodeId> b, NodeId* out) {
  static_assert(sizeof(NodeId) == 4, "lanes assume 32-bit node ids");
  size_t i = 0;
  size_t j = 0;
  size_t m = 0;
  const size_t na = a.size();
  const size_t nb = b.size();
  const __m256i rotate1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.data() + i));
    __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.data() + j));
    __m256i found = _mm256_cmpeq_epi32(va, vb);
    for (int r = 1; r < 8; ++r) {
      vb = _mm256_permutevar8x32_epi32(vb, rotate1);
      found = _mm256_or_si256(found, _mm256_cmpeq_epi32(va, vb));
    }
    unsigned mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(found)));
    while (mask != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(mask));
      out[m++] = a[i + lane];
      mask &= mask - 1;
    }
    const NodeId a_max = a[i + 7];
    const NodeId b_max = b[j + 7];
    if (a_max <= b_max) i += 8;
    if (b_max <= a_max) j += 8;
  }
  return ScalarTail(a, b, i, j, out, m);
}

/// 16x16 all-pairs block merge: same scheme with AVX-512F mask compares.
/// valignd needs an immediate rotation count, hence the unrolled rounds.
// GCC 12 flags the unused merge-source operand inside the valignd
// intrinsic header as maybe-uninitialized; nothing in this function is.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f"))) size_t BlockMergeAvx512(
    std::span<const NodeId> a, std::span<const NodeId> b, NodeId* out) {
  static_assert(sizeof(NodeId) == 4, "lanes assume 32-bit node ids");
  size_t i = 0;
  size_t j = 0;
  size_t m = 0;
  const size_t na = a.size();
  const size_t nb = b.size();
  while (i + 16 <= na && j + 16 <= nb) {
    const __m512i va = _mm512_loadu_si512(a.data() + i);
    const __m512i vb = _mm512_loadu_si512(b.data() + j);
    __mmask16 found = _mm512_cmpeq_epi32_mask(va, vb);
#define TRILIST_AVX512_ROUND(r)                                       \
  found = static_cast<__mmask16>(                                     \
      found | _mm512_cmpeq_epi32_mask(                                \
                  va, _mm512_alignr_epi32(vb, vb, (r))))
    TRILIST_AVX512_ROUND(1);
    TRILIST_AVX512_ROUND(2);
    TRILIST_AVX512_ROUND(3);
    TRILIST_AVX512_ROUND(4);
    TRILIST_AVX512_ROUND(5);
    TRILIST_AVX512_ROUND(6);
    TRILIST_AVX512_ROUND(7);
    TRILIST_AVX512_ROUND(8);
    TRILIST_AVX512_ROUND(9);
    TRILIST_AVX512_ROUND(10);
    TRILIST_AVX512_ROUND(11);
    TRILIST_AVX512_ROUND(12);
    TRILIST_AVX512_ROUND(13);
    TRILIST_AVX512_ROUND(14);
    TRILIST_AVX512_ROUND(15);
#undef TRILIST_AVX512_ROUND
    unsigned mask = found;
    while (mask != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(mask));
      out[m++] = a[i + lane];
      mask &= mask - 1;
    }
    const NodeId a_max = a[i + 15];
    const NodeId b_max = b[j + 15];
    if (a_max <= b_max) i += 16;
    if (b_max <= a_max) j += 16;
  }
  return ScalarTail(a, b, i, j, out, m);
}
#pragma GCC diagnostic pop

#endif  // x86_64

}  // namespace

size_t BlockMergeIntersectAt(SimdLevel level, std::span<const NodeId> a,
                             std::span<const NodeId> b, NodeId* out) {
  const SimdLevel detected = DetectedSimdLevel();
  if (detected < level) level = detected;
#if defined(__x86_64__) || defined(_M_X64)
  switch (level) {
    case SimdLevel::kAvx512:
      return BlockMergeAvx512(a, b, out);
    case SimdLevel::kAvx2:
      return BlockMergeAvx2(a, b, out);
    case SimdLevel::kScalar:
      break;
  }
#endif
  return BlockMergeScalar(a, b, out);
}

size_t BlockMergeIntersect(std::span<const NodeId> a,
                           std::span<const NodeId> b, NodeId* out) {
  return BlockMergeIntersectAt(ActiveSimdLevel(), a, b, out);
}

}  // namespace simd
}  // namespace trilist
