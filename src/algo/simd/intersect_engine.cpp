#include "src/algo/simd/intersect_engine.h"

#include <cstring>

namespace trilist {

const char* IntersectBackendName(IntersectBackend backend) {
  switch (backend) {
    case IntersectBackend::kMerge:
      return "merge";
    case IntersectBackend::kSimd:
      return "simd";
    case IntersectBackend::kBitmap:
      return "bitmap";
  }
  return "merge";
}

bool ParseIntersectBackend(const char* name, IntersectBackend* out) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "merge") == 0) {
    *out = IntersectBackend::kMerge;
  } else if (std::strcmp(name, "simd") == 0) {
    *out = IntersectBackend::kSimd;
  } else if (std::strcmp(name, "bitmap") == 0) {
    *out = IntersectBackend::kBitmap;
  } else {
    return false;
  }
  return true;
}

namespace simd {

std::shared_ptr<const BitmapIndex> EnsureBitmapIndex(
    const ExecPolicy& policy, const OrientedGraph& g) {
  if (policy.intersect != IntersectBackend::kBitmap) return nullptr;
  if (policy.bitmap_index != nullptr) return policy.bitmap_index;
  return std::make_shared<const BitmapIndex>(BitmapIndex::Build(g));
}

}  // namespace simd
}  // namespace trilist
