#pragma once

#include <initializer_list>
#include <string>
#include <vector>

#include "src/core/out_degree_model.h"
#include "src/order/permutation.h"
#include "src/util/rng.h"

/// \file named_orders.h
/// The five named permutations the paper analyzes (Sections 4-5):
/// ascending theta_A, descending theta_D, uniform theta_U, Round-Robin
/// theta_RR (Eq. 32) and Complementary Round-Robin theta_CRR.
///
/// RR places large degrees towards the two ends of [1, n] (optimal for T2
/// by Corollary 2); CRR places them towards the middle (optimal for E4).

namespace trilist {

/// Identifiers for the named permutation families.
enum class PermutationKind {
  kAscending,   ///< theta(i) = i.
  kDescending,  ///< theta(i) = n + 1 - i.
  kRoundRobin,  ///< Eq. (32): large positions map to the ends.
  kComplementaryRoundRobin,  ///< RR applied from the descending end.
  kUniform,     ///< Uniformly random bijection ("hashed IDs").
  kDegenerate,  ///< Matula-Beck smallest-last (graph-dependent; see
                ///< degenerate.h — cannot be built from n alone).
  kAot,         ///< AOT hybrid degeneracy+degree order (arXiv 2006.11494):
                ///< hubs by descending degree, the residual graph by
                ///< smallest-last. Graph-dependent; see aot.h.
  kSplit,       ///< Tailored split order (arXiv 2203.04774): a positional
                ///< permutation that treats the top-s degree positions as
                ///< theta_D and the tail as theta_A, with s minimizing the
                ///< Section-3 cost. Needs the degree sequence; see split.h.
};

/// Short name for reports ("theta_D", "theta_RR", ...).
const char* PermutationKindName(PermutationKind kind);

/// Builds a named positional permutation of size n.
/// \param kind which family; kDegenerate, kAot and kSplit are rejected
///        here (they depend on the realized graph or its degree sequence,
///        not only on n) — go through the ordering registry
///        (src/order/registry.h), which knows how to build every kind.
/// \param n size.
/// \param rng required for kUniform, ignored otherwise (may be null).
Permutation MakePermutation(PermutationKind kind, size_t n,
                            Rng* rng = nullptr);

/// theta_A: identity.
Permutation AscendingPermutation(size_t n);
/// theta_D: theta(i) = (n-1) - i (0-based).
Permutation DescendingPermutation(size_t n);
/// theta_RR per Eq. (32), translated to 0-based indices.
Permutation RoundRobinPermutation(size_t n);
/// theta_CRR = complement of theta_RR (Proposition 7).
Permutation ComplementaryRoundRobinPermutation(size_t n);
/// theta_U: Fisher-Yates shuffle of the identity.
Permutation UniformPermutation(size_t n, Rng* rng);

/// One monotone walk over the ascending ranks: ranks [lo, hi), upward or
/// downward, either all of them or only those of one parity.
struct RankSegment {
  size_t lo = 0;
  size_t hi = 0;
  bool descending = false;
  int parity = -1;  ///< 0 or 1: only ranks of that parity; -1: all.
};

/// The label-order degree runs of a positional permutation that hands out
/// labels 0, 1, ... by walking `segments` in turn, over the ascending
/// sequence given as CompressRuns(A_n). O(segments x ascending runs);
/// adjacent equal degrees merge (AppendRun), so two walks that produce
/// the same label sequence produce the same runs.
std::vector<DegreeRun> SegmentRuns(
    const std::vector<DegreeRun>& ascending_runs,
    std::initializer_list<RankSegment> segments);

/// The label-order degree runs of theta_A, theta_D, theta_RR or
/// theta_CRR — each at most two monotone segments of the ascending ranks:
///   - theta_A: all ranks ascending; theta_D: all ranks descending.
///   - theta_RR (Eq. 32): the odd ranks descending, then the even ranks
///     ascending (a V: large degrees at both ends).
///   - theta_CRR: the ranks of n's parity ascending, then the others
///     descending (the mirror Lambda: large degrees in the middle).
/// Equal to CompressRuns(DegreesByLabel(A_n, MakePermutation(kind, n))).
/// Other kinds are rejected (no fixed segment shape).
std::vector<DegreeRun> NamedOrderRuns(
    PermutationKind kind, const std::vector<DegreeRun>& ascending_runs);

}  // namespace trilist
