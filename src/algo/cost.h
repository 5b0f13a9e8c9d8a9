#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/oriented_graph.h"

/// \file cost.h
/// The 18 baseline triangle-listing methods of Section 2 and their CPU-cost
/// formulas in terms of the oriented degrees X_i (out) and Y_i (in).
///
/// Cost classes (Figures 2 and 4, Tables 1-2), with g-counts per node:
///   T1-class: sum_i X_i (X_i - 1) / 2      (pairs of out-neighbors)
///   T2-class: sum_i X_i Y_i                (in x out products)
///   T3-class: sum_i Y_i (Y_i - 1) / 2      (pairs of in-neighbors)
/// Scanning edge iterators combine a local and a remote class (Table 1);
/// lookup edge iterators pay the remote class in lookups plus m hash
/// inserts (Table 2).

namespace trilist {

/// All 18 baseline methods.
enum class Method {
  kT1, kT2, kT3, kT4, kT5, kT6,
  kE1, kE2, kE3, kE4, kE5, kE6,
  kL1, kL2, kL3, kL4, kL5, kL6,
};

/// Number of Method values; static_cast<size_t>(m) indexes arrays of it.
inline constexpr size_t kNumMethods = static_cast<size_t>(Method::kL6) + 1;

/// Families of methods (different elementary-operation speeds, Table 3).
enum class Family {
  kVertexIterator,
  kScanningEdgeIterator,
  kLookupEdgeIterator,
};

/// The three primitive cost classes.
enum class CostClass { kT1, kT2, kT3 };

/// All methods, in declaration order (convenience for sweeps).
const std::vector<Method>& AllMethods();

/// The four non-isomorphic representatives studied by the paper.
const std::vector<Method>& FundamentalMethods();  // T1, T2, E1, E4

/// Method name ("T1", "E4", ...).
const char* MethodName(Method m);

/// Family of a method.
Family MethodFamily(Method m);

/// Local cost class (SEI), or the single class (vertex iterators: the
/// candidate-tuple count; LEI: the lookup count).
CostClass LocalCostClass(Method m);

/// Remote cost class; only meaningful for scanning edge iterators
/// (Table 1 second row). For other families this equals LocalCostClass.
CostClass RemoteCostClass(Method m);

/// True if the method needs an extra binary search (or backwards scan) per
/// edge to locate the start of the remote range (E5/E6, L5/L6; Section 2.3).
bool NeedsRemoteBinarySearch(Method m);

/// Evaluates one primitive cost class total from oriented degree vectors.
/// \param x out-degrees X_i, \param y in-degrees Y_i (same length).
double CostClassTotal(const std::vector<int64_t>& x,
                      const std::vector<int64_t>& y, CostClass c);

/// Paper-metric cost the method charges one node with oriented degrees
/// X = `out`, Y = `in`: the node's local class term plus, for scanning
/// edge iterators, its remote class term (Table 1); lookup edge iterators
/// pay their lookup class only (hash-build cost m is excluded, as in
/// Table 2). Every element a kernel scans, candidate it checks or probe
/// it makes is charged to exactly one node this way, so summing NodeCost
/// over the oriented graph reproduces OpCounts::PaperCost() exactly.
int64_t NodeCost(Method m, int64_t out, int64_t in);

/// Total paper-metric CPU cost n * c_n(M, theta): NodeCost summed over
/// the oriented graph's nodes, read off its CSR offsets in place.
double MethodCostTotal(const OrientedGraph& g, Method m);

}  // namespace trilist
