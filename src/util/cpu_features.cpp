#include "src/util/cpu_features.h"

namespace trilist {

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "scalar";
}

SimdLevel ActiveSimdLevel() {
  static const SimdLevel level = [] {
#if defined(__x86_64__) || defined(_M_X64)
    // __builtin_cpu_supports reads CPUID once at startup via libgcc's
    // cpu-model resolver; these calls are just flag tests.
    if (__builtin_cpu_supports("avx512f")) return SimdLevel::kAvx512;
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
    return SimdLevel::kScalar;
  }();
  return level;
}

}  // namespace trilist
