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
/// inserts (Table 2). Both tables are read off the six search patterns
/// (kSearchPatterns): each class follows from the shape of a pattern's
/// local and remote lists.

namespace trilist {

/// All 18 baseline methods.
enum class Method {
  kT1, kT2, kT3, kT4, kT5, kT6,
  kE1, kE2, kE3, kE4, kE5, kE6,
  kL1, kL2, kL3, kL4, kL5, kL6,
};

/// Number of Method values; static_cast<size_t>(m) indexes arrays of it.
inline constexpr size_t kNumMethods = static_cast<size_t>(Method::kL6) + 1;

/// Families of methods (different elementary-operation speeds, Table 3),
/// in the order of their block in Method.
enum class Family {
  kVertexIterator,
  kScanningEdgeIterator,
  kLookupEdgeIterator,
};

/// The three primitive cost classes.
enum class CostClass { kT1, kT2, kT3 };

/// A corner of the listed triangle x < y < z (labels).
enum class Role { kX, kY, kZ };

/// Which list holds a pattern's local candidates: the outer node's other
/// list, or its outer list before / after the current position.
enum class LocalPart { kOther, kBefore, kAfter };

/// Restriction of the remote list to labels below / above the outer node.
/// kAbove starts mid-list and costs a binary search (E5/E6, L5/L6).
enum class Restriction { kNone, kBelow, kAbove };

/// \brief One of the six search patterns of Figures 1 and 3.
///
/// The outer node o runs through every label; its outer list N±(o) is
/// walked by position p, whose element is w. The third corner c is then
/// found among the local candidates (LocalPart) that also lie in the
/// remote list N±(w), restricted against o. The three families are three
/// checks on the same pattern: T_k probes the arc set for each local
/// candidate, E_k merge-intersects the local list with the remote list,
/// and L_k marks the unrestricted local list once per o and probes each
/// remote element.
struct SearchPattern {
  Role outer;              ///< role of the outer node o.
  Role inner;              ///< role of w, the outer list's element at p.
  bool outer_out;          ///< outer list is N+(o) (else N-(o)).
  LocalPart local;         ///< where c's local candidates lie.
  bool remote_out;         ///< remote list is N+(w) (else N-(w)).
  Restriction restriction; ///< remote list cut against o.
};

/// Patterns 1..6. Out-lists hold lower labels, in-lists higher ones.
inline constexpr SearchPattern kSearchPatterns[6] = {
    // o         w          outer  local               remote  restriction
    {Role::kZ, Role::kY, true,  LocalPart::kBefore, true,  Restriction::kNone},
    {Role::kY, Role::kZ, false, LocalPart::kOther,  true,  Restriction::kBelow},
    {Role::kX, Role::kY, false, LocalPart::kAfter,  false, Restriction::kNone},
    {Role::kZ, Role::kX, true,  LocalPart::kAfter,  false, Restriction::kBelow},
    {Role::kY, Role::kX, true,  LocalPart::kOther,  false, Restriction::kAbove},
    {Role::kX, Role::kZ, false, LocalPart::kBefore, true,  Restriction::kAbove},
};

/// Family of a method: T1..T6, E1..E6 and L1..L6 are consecutive blocks.
constexpr Family MethodFamily(Method m) {
  return static_cast<Family>(static_cast<size_t>(m) / 6);
}

/// Search pattern of a method: T_k, E_k and L_k share pattern k.
constexpr const SearchPattern& PatternOf(Method m) {
  return kSearchPatterns[static_cast<size_t>(m) % 6];
}

/// All methods, in declaration order (convenience for sweeps).
const std::vector<Method>& AllMethods();

/// The four non-isomorphic representatives studied by the paper.
const std::vector<Method>& FundamentalMethods();  // T1, T2, E1, E4

/// Method name ("T1", "E4", ...).
const char* MethodName(Method m);

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
