/// \file bench_table3_speed.cpp
/// Reproduces Table 3: single-core speed of the elementary operations
/// behind each family, on long neighbor lists (the best case for
/// intersection):
///   * vertex iterator / LEI — hash-table membership probes (the paper's
///     whole-table setup), plus the row probe of the arc index the
///     T-kernels use,
///   * SEI — sequential two-pointer intersection of sorted lists: the
///     shipped merge (IntersectMergeT) and the count-only kernels' pair
///     merge (IntersectMergePairCount), two merges in flight.
/// The paper measures 19 M/s (hash) vs 1,801 M/s (SIMD intersection) on an
/// i7-3930K; absolute numbers differ on this machine, but the reproduced
/// shape is "scanning is one to two orders of magnitude faster per
/// element", which drives the w_n < speedup decision rule of Section 2.4.
/// Items/sec appear in the benchmark counters.

#include <benchmark/benchmark.h>

#include <numeric>
#include <utility>
#include <vector>

#include "src/algo/intersect.h"
#include "src/graph/edge_set.h"
#include "src/graph/graph.h"
#include "src/graph/oriented_graph.h"
#include "src/util/flat_hash_set.h"
#include "src/util/rng.h"

namespace {

using namespace trilist;

constexpr size_t kListLength = 1 << 16;
constexpr uint64_t kKeySpace = 1 << 22;

std::vector<uint64_t> RandomKeys(size_t count, Rng* rng) {
  std::vector<uint64_t> keys(count);
  for (auto& k : keys) k = rng->NextBounded(kKeySpace);
  return keys;
}

/// Hash-table probes: the elementary operation of T1-T6 and L1-L6.
void BM_HashProbe(benchmark::State& state) {
  Rng rng(1);
  FlatHashSet64 set(kListLength);
  for (uint64_t k : RandomKeys(kListLength, &rng)) set.Insert(k + 1);
  const std::vector<uint64_t> probes = RandomKeys(kListLength, &rng);
  size_t hits = 0;
  for (auto _ : state) {
    for (uint64_t k : probes) hits += set.Contains(k + 1) ? 1 : 0;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(probes.size()));
}

/// Row probes of the arc index the T-kernels actually use
/// (DirectedEdgeSet): one source row of kListLength targets, each probe
/// one group compare. Keys are spread over four times the row's size, so
/// about a quarter hit.
void BM_ArcRowProbe(benchmark::State& state) {
  Rng rng(6);
  const size_t n = 4 * kListLength + 1;
  const auto src = static_cast<NodeId>(n - 1);
  std::vector<NodeId> labels(n);
  std::iota(labels.begin(), labels.end(), NodeId{0});
  std::vector<Edge> edges;
  std::vector<char> used(n, 0);
  while (edges.size() < kListLength) {
    const auto t = static_cast<NodeId>(rng.NextBounded(n - 1));
    if (used[t] == 0) {
      used[t] = 1;
      edges.emplace_back(t, src);
    }
  }
  auto g = Graph::FromEdges(n, edges);
  if (!g.ok()) {
    state.SkipWithError("star build failed");
    return;
  }
  const DirectedEdgeSet arcs(OrientedGraph::FromLabels(*g, labels));
  const auto row = arcs.Row(src);
  std::vector<NodeId> probes(kListLength);
  for (auto& p : probes) p = static_cast<NodeId>(rng.NextBounded(n - 1));
  size_t hits = 0;
  for (auto _ : state) {
    for (NodeId p : probes) hits += row.Contains(p) ? 1 : 0;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(probes.size()));
}

/// Two sorted lists of kListLength values with gaps of 1-60: the long,
/// comparable-length lists that are intersection's best case.
std::pair<std::vector<NodeId>, std::vector<NodeId>> SortedPair() {
  auto make_sorted = [](uint64_t salt) {
    Rng local(salt);
    std::vector<NodeId> list(kListLength);
    uint64_t cur = 0;
    for (auto& v : list) {
      cur += 1 + local.NextBounded(60);
      v = static_cast<NodeId>(cur);
    }
    return list;
  };
  return {make_sorted(3), make_sorted(4)};
}

/// Sorted two-pointer intersection, the elementary operation of E1-E6:
/// IntersectMergeT, the merge every emitting or single E_k position runs.
void BM_ScanIntersect(benchmark::State& state) {
  const auto [a, b] = SortedPair();
  int64_t matches = 0;
  for (auto _ : state) {
    IntersectMergeT(a, b, [&matches](NodeId) { ++matches; });
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.size() + b.size()));
}

/// The count-only E_k merge: IntersectMergePairCount with both lanes on
/// the same two lists, so items are twice BM_ScanIntersect's per run.
void BM_ScanIntersectPaired(benchmark::State& state) {
  const auto [a, b] = SortedPair();
  int64_t matches = 0;
  for (auto _ : state) {
    const auto lanes = IntersectMergePairCount(a, b, a, b);
    matches += lanes[0].matches + lanes[1].matches;
    benchmark::DoNotOptimize(matches);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          static_cast<int64_t>(a.size() + b.size()));
}

/// Binary-search membership in sorted lists (the classic alternative when
/// hash tables are unavailable, cf. the Section 2.4 discussion of
/// relabeling-only preprocessing).
void BM_BinarySearchProbe(benchmark::State& state) {
  Rng rng(5);
  std::vector<NodeId> sorted(kListLength);
  uint64_t cur = 0;
  for (auto& v : sorted) {
    cur += 1 + rng.NextBounded(60);
    v = static_cast<NodeId>(cur);
  }
  std::vector<NodeId> probes(kListLength);
  for (auto& p : probes) {
    p = static_cast<NodeId>(rng.NextBounded(cur));
  }
  size_t hits = 0;
  for (auto _ : state) {
    for (NodeId p : probes) {
      hits += std::binary_search(sorted.begin(), sorted.end(), p) ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(probes.size()));
}

BENCHMARK(BM_HashProbe);
BENCHMARK(BM_ArcRowProbe);
BENCHMARK(BM_ScanIntersect);
BENCHMARK(BM_ScanIntersectPaired);
BENCHMARK(BM_BinarySearchProbe);

}  // namespace

BENCHMARK_MAIN();
