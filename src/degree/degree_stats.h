#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"

/// \file degree_stats.h
/// Small shared helpers over degree vectors. Several layers need the same
/// two reductions — the maximum degree (bucket-queue sizing in the
/// smallest-last peeling, graphicality repair) and the ascending-sorted
/// sequence A_n (the cost model's input, catalog pricing, the split
/// ordering) — and each used to reimplement them inline. One home keeps
/// the tie-break and empty-input conventions identical everywhere.

namespace trilist {

/// Largest entry of a degree vector; 0 for an empty vector.
int64_t MaxDegree(const std::vector<int64_t>& degrees);

/// Ascending degree sequence of a realized graph — the paper's A_n —
/// built by a linear counting sort.
std::vector<int64_t> AscendingDegrees(const Graph& g);

}  // namespace trilist
