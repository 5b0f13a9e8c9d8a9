#pragma once

/// \file cpu_features.h
/// The widest SIMD instruction set the CPU supports, read from CPUID once
/// per process. No kernel dispatches on it: it is host provenance, printed
/// by `trilist_cli version`, the run report's `simd_level` and the
/// benchmark records, so results from different hosts are not mixed.

namespace trilist {

/// Vector ISA tiers, in strictly increasing capability order.
enum class SimdLevel {
  kScalar = 0,  ///< no AVX2; always the answer on non-x86 builds.
  kAvx2 = 1,    ///< 8 x 32-bit lanes (AVX2).
  kAvx512 = 2,  ///< 16 x 32-bit lanes (AVX-512F).
};

/// Name of a level ("scalar", "avx2", "avx512").
const char* SimdLevelName(SimdLevel level);

/// What the hardware supports, from CPUID; read once, on the first call.
SimdLevel ActiveSimdLevel();

}  // namespace trilist
