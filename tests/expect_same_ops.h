#pragma once

#include <gtest/gtest.h>

#include <string>

#include "src/algo/fundamental.h"  // OpCounts

namespace trilist {

/// Expects every OpCounts field of `a` to equal `b`'s; `label` tags the
/// failure message.
inline void ExpectSameOps(const OpCounts& a, const OpCounts& b,
                          const std::string& label) {
  EXPECT_EQ(a.candidate_checks, b.candidate_checks) << label;
  EXPECT_EQ(a.local_scans, b.local_scans) << label;
  EXPECT_EQ(a.remote_scans, b.remote_scans) << label;
  EXPECT_EQ(a.merge_comparisons, b.merge_comparisons) << label;
  EXPECT_EQ(a.hash_inserts, b.hash_inserts) << label;
  EXPECT_EQ(a.lookups, b.lookups) << label;
  EXPECT_EQ(a.binary_searches, b.binary_searches) << label;
  EXPECT_EQ(a.triangles, b.triangles) << label;
}

}  // namespace trilist
