#include "src/algo/fundamental.h"

#include <type_traits>

#include "src/algo/sei_common.h"
#include "src/algo/simd/intersect_engine.h"
#include "src/util/status.h"

namespace trilist {

namespace {

using sei::PrefixBelow;

/// Calls row(v, p0, p1) for every node whose outer range meets [lo, hi),
/// in label order, with [p0, p1) the part of v's range inside the slice.
/// Nodes strictly inside the slice get their full range, even when it is
/// empty, so the whole-space slice visits every node like a plain loop.
template <typename Row>
void ForEachRow(Method m, const OrientedGraph& g, Cut lo, Cut hi,
                Row&& row) {
  const size_t n = g.num_nodes();
  size_t start = lo.pos;
  for (size_t vi = lo.node; vi < n && vi < hi.node; ++vi) {
    const auto v = static_cast<NodeId>(vi);
    row(v, start, OuterLen(m, g, v));
    start = 0;
  }
  if (hi.node < n && start < hi.pos) row(hi.node, start, hi.pos);
}

/// The emitter of the count-only slices: ops.triangles is the result.
struct NoEmit {
  void operator()(NodeId, NodeId, NodeId) const {}
};

/// True for the count-only instantiation. Its vertex-iterator loops add
/// each check's result to the count instead of branching on it: on dense
/// inputs about half of all checks hit, so that branch would mispredict.
template <typename Emit>
constexpr bool kCountOnly = std::is_same_v<Emit, NoEmit>;

/// T1: visit z, generate pairs x < y from N+(z), verify arc y -> x. The
/// outer position is the index b of y; the pairs are (a, b) with a < b.
template <typename Emit>
OpCounts SliceT1(const OrientedGraph& g, const DirectedEdgeSet& arcs,
                 Cut lo, Cut hi, Emit emit) {
  OpCounts ops;
  ForEachRow(Method::kT1, g, lo, hi, [&](NodeId z, size_t p0, size_t p1) {
    const auto out = g.OutNeighbors(z);
    // Pairs x < y; lists are sorted, so index order is label order.
    int64_t tri = 0;
    for (size_t b = p0; b < p1; ++b) {
      const NodeId y = out[b];
      const auto row = arcs.Row(y);
      ops.candidate_checks += static_cast<int64_t>(b);
      for (size_t a = 0; a < b; ++a) {
        const NodeId x = out[a];
        if constexpr (kCountOnly<Emit>) {
          tri += row.Contains(x);
        } else if (row.Contains(x)) {
          ++tri;
          emit(x, y, z);
        }
      }
    }
    ops.triangles += tri;
  });
  return ops;
}

/// T2: visit y, pair z in N-(y) with x in N+(y), verify arc z -> x. The
/// outer position is the index of z in N-(y).
template <typename Emit>
OpCounts SliceT2(const OrientedGraph& g, const DirectedEdgeSet& arcs,
                 Cut lo, Cut hi, Emit emit) {
  OpCounts ops;
  ForEachRow(Method::kT2, g, lo, hi, [&](NodeId y, size_t p0, size_t p1) {
    const auto in = g.InNeighbors(y);
    const auto out = g.OutNeighbors(y);
    int64_t tri = 0;
    for (size_t zi = p0; zi < p1; ++zi) {
      const NodeId z = in[zi];
      const auto row = arcs.Row(z);
      ops.candidate_checks += static_cast<int64_t>(out.size());
      for (const NodeId x : out) {
        if constexpr (kCountOnly<Emit>) {
          tri += row.Contains(x);
        } else if (row.Contains(x)) {
          ++tri;
          emit(x, y, z);
        }
      }
    }
    ops.triangles += tri;
  });
  return ops;
}

// Window arguments (intersect_engine.h): [0, y) for E1, (x, z) for E4.

/// E1: visit z; for y in N+(z), intersect N+(z) below y with N+(y).
template <typename Emit, typename Isect>
OpCounts SliceE1(const OrientedGraph& g, Cut lo, Cut hi, Emit emit,
                 Isect isect) {
  OpCounts ops;
  ForEachRow(Method::kE1, g, lo, hi, [&](NodeId z, size_t p0, size_t p1) {
    const auto out = g.OutNeighbors(z);
    for (size_t idx = p0; idx < p1; ++idx) {
      const NodeId y = out[idx];
      const auto local = out.first(idx);  // elements of N+(z) below y
      const auto remote = g.OutNeighbors(y);
      ops.local_scans += static_cast<int64_t>(local.size());
      ops.remote_scans += static_cast<int64_t>(remote.size());
      isect(local, {z, true}, remote, {y, true}, 0, y,
            &ops.merge_comparisons, [&](NodeId x) {
              ++ops.triangles;
              emit(x, y, z);
            });
    }
  });
  return ops;
}

/// E4: visit z; for x in N+(z), intersect N+(z) above x with N-(x) below z.
template <typename Emit, typename Isect>
OpCounts SliceE4(const OrientedGraph& g, Cut lo, Cut hi, Emit emit,
                 Isect isect) {
  OpCounts ops;
  ForEachRow(Method::kE4, g, lo, hi, [&](NodeId z, size_t p0, size_t p1) {
    const auto out = g.OutNeighbors(z);
    for (size_t idx = p0; idx < p1; ++idx) {
      const NodeId x = out[idx];
      const auto local = out.subspan(idx + 1);  // y candidates above x
      const auto remote = PrefixBelow(g.InNeighbors(x), z);
      ops.local_scans += static_cast<int64_t>(local.size());
      ops.remote_scans += static_cast<int64_t>(remote.size());
      isect(local, {z, true}, remote, {x, false}, x + 1, z,
            &ops.merge_comparisons, [&](NodeId y) {
              ++ops.triangles;
              emit(x, y, z);
            });
    }
  });
  return ops;
}

template <typename Emit>
OpCounts DispatchSlice(Method m, const OrientedGraph& g,
                       const DirectedEdgeSet* arcs, Cut lo, Cut hi,
                       Emit emit, simd::IntersectEngine* engine) {
  switch (m) {
    case Method::kT1: return SliceT1(g, *arcs, lo, hi, emit);
    case Method::kT2: return SliceT2(g, *arcs, lo, hi, emit);
    case Method::kE1:
      return sei::WithIsect(engine, [&](auto isect) {
        return SliceE1(g, lo, hi, emit, isect);
      });
    case Method::kE4:
      return sei::WithIsect(engine, [&](auto isect) {
        return SliceE4(g, lo, hi, emit, isect);
      });
    default: break;
  }
  TRILIST_DCHECK(false);
  return OpCounts{};
}

}  // namespace

OpCounts RunSlice(Method m, const OrientedGraph& g,
                  const DirectedEdgeSet* arcs, Cut lo, Cut hi,
                  TriangleSink* sink, simd::IntersectEngine* engine) {
  if (sink == nullptr) {  // count only: ops.triangles is the count
    return DispatchSlice(m, g, arcs, lo, hi, NoEmit{}, engine);
  }
  return DispatchSlice(
      m, g, arcs, lo, hi,
      [sink](NodeId x, NodeId y, NodeId z) { sink->Consume(x, y, z); },
      engine);
}

OpCounts RunFundamental(Method m, const OrientedGraph& g,
                        const DirectedEdgeSet* arcs, TriangleSink* sink,
                        simd::IntersectEngine* engine) {
  const Cut end{static_cast<NodeId>(g.num_nodes()), 0};
  // A counting sink only needs the total, as in the parallel engine: run
  // the count-only slice and credit the sink once.
  if (auto* counter = dynamic_cast<CountingSink*>(sink)) {
    const OpCounts ops = RunSlice(m, g, arcs, Cut{}, end, nullptr, engine);
    counter->Add(static_cast<uint64_t>(ops.triangles));
    return ops;
  }
  return RunSlice(m, g, arcs, Cut{}, end, sink, engine);
}

}  // namespace trilist
