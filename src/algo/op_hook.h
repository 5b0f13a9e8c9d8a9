#pragma once

#include <cstdint>
#include <type_traits>

#include "src/graph/graph.h"  // NodeId

/// \file op_hook.h
/// Per-node operation hook for the 18 listing kernels.
///
/// Every kernel signature accepts an optional NodeOpsHook. When one is
/// supplied the kernel reports, for each node, the paper-metric
/// operations *attributed to that node by the cost model of Section 3* —
/// candidate checks for vertex iterators, local + remote scanned elements
/// for scanning edge iterators, membership probes for lookup iterators.
/// Attribution follows the tables, not the loop nesting: an SEI kernel's
/// remote scan of N(y) is charged to y (where Table 1 puts the remote
/// class), even though the scan executes inside another node's outer
/// iteration. Summing a hook's records over all nodes therefore
/// reproduces OpCounts::PaperCost exactly — the invariant the degree
/// profiler's tests pin down.
///
/// Hooked and hook-free paths are separate template instantiations inside
/// the kernels, so passing no hook (the default for every production
/// caller) costs nothing — not even a branch.

namespace trilist {

/// \brief Receives per-node paper-metric operation attributions.
///
/// `Record(v, ops)` may be called multiple times for the same node; the
/// node's total is the sum. Calls happen on the kernel's (single) thread.
class NodeOpsHook {
 public:
  virtual ~NodeOpsHook() = default;

  /// `ops` operations attributed to node `v` (label space of the
  /// oriented graph the kernel runs on).
  virtual void Record(NodeId v, int64_t ops) = 0;
};

/// Hook-free tag for the kernel templates: `if constexpr (kHooked<Hook>)`
/// removes every attribution statement, so the default instantiations
/// compile to exactly the pre-hook kernels.
struct NoHook {};

template <typename Hook>
constexpr bool kHooked = !std::is_same_v<Hook, NoHook>;

/// Calls run(hook) when a hook is attached, else run(NoHook{}): picks the
/// hooked or the hook-free kernel instantiation.
template <typename Run>
auto WithHook(NodeOpsHook* hook, Run&& run) {
  return hook != nullptr ? run(hook) : run(NoHook{});
}

}  // namespace trilist
