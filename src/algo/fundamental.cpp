#include "src/algo/fundamental.h"

#include <optional>
#include <type_traits>
#include <utility>

#include "src/algo/intersect.h"
#include "src/algo/sei_common.h"
#include "src/algo/simd/bitmap_index.h"

namespace trilist {

namespace {

/// N+(v) when `out`, else N-(v).
[[gnu::always_inline]] inline std::span<const NodeId> List(
    const OrientedGraph& g, NodeId v, bool out) {
  return out ? g.OutNeighbors(v) : g.InNeighbors(v);
}

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

/// The emitter of the listing slices.
struct SinkEmit {
  TriangleSink* sink;
  void operator()(NodeId x, NodeId y, NodeId z) const {
    sink->Consume(x, y, z);
  }
};

/// True for the count-only instantiation. Its probe loops add each
/// check's result to the count instead of branching on it: on dense
/// inputs about half of all checks hit, so that branch would mispredict.
template <typename Emit>
constexpr bool kCountOnly = std::is_same_v<Emit, NoEmit>;

/// The count-only E_k slices' direct merges, run two positions at a time
/// by IntersectMergePairCount (intersect.h): a position is held until the
/// next one arrives, and a position left over at the end of a row
/// (Flush) merges alone. A position whose two lists differ in length by
/// more than kMaxSkew merges alone at once, since only IntersectMergeT
/// skips the long runs such a pair has. On the hub graph (`generate --n
/// 100000 --alpha 1.3 --trunc linear`, theta_D), min of 2-3 alternating
/// runs against 16: no guard ran E3, E4 and E6 2.2-2.8x slower, a ratio
/// of 4 ran E1 and E3-E6 2-19% slower, and 64 measured alike. Both ways
/// count what IntersectMergeT counts, so every counter is unchanged.
class PairedMerge {
 public:
  static constexpr size_t kMaxSkew = 16;

  void Add(std::span<const NodeId> a, std::span<const NodeId> b) {
    if (a.empty() || b.empty()) return;  // no step, no match
    if (a.size() > kMaxSkew * b.size() || b.size() > kMaxSkew * a.size()) {
      Alone(a, b);
    } else if (!held_) {
      held_a_ = a;
      held_b_ = b;
      held_ = true;
    } else {
      const auto lanes = IntersectMergePairCount(held_a_, held_b_, a, b);
      comparisons_ += lanes[0].comparisons + lanes[1].comparisons;
      matches_ += lanes[0].matches + lanes[1].matches;
      held_ = false;
    }
  }

  /// Merges the held position, if any.
  void Flush() {
    if (held_) Alone(held_a_, held_b_);
    held_ = false;
  }

  int64_t comparisons() const { return comparisons_; }
  int64_t matches() const { return matches_; }

 private:
  // Flattened, so the merge counts its matches in a register with no
  // branch: called out of line, IntersectMergeT adds each match to
  // matches_ in memory behind a branch.
  [[gnu::flatten]] void Alone(std::span<const NodeId> a,
                              std::span<const NodeId> b) {
    int64_t matches = 0;
    comparisons_ += IntersectMergeT(a, b, [&matches](NodeId) { ++matches; });
    matches_ += matches;
  }

  std::span<const NodeId> held_a_;
  std::span<const NodeId> held_b_;
  bool held_ = false;
  int64_t comparisons_ = 0;
  int64_t matches_ = 0;
};

/// The corner of pattern `p` playing `role`: the outer node o, the outer
/// list's element w, or the found node c.
constexpr NodeId Corner(const SearchPattern& p, Role role, NodeId o,
                        NodeId w, NodeId c) {
  return role == p.outer ? o : role == p.inner ? w : c;
}

/// The role of c: the one neither o nor w plays.
constexpr Role FoundRole(const SearchPattern& p) {
  for (const Role r : {Role::kX, Role::kY, Role::kZ}) {
    if (r != p.outer && r != p.inner) return r;
  }
  return Role::kX;
}

/// The label window [lo, hi) of the found node c under pattern `p`, with
/// the other two corners o and w: x in [0, y), y in (x, z), z in (y, n).
/// Both spans of a scanning position lie inside it.
constexpr std::pair<NodeId, NodeId> FoundWindow(const SearchPattern& p,
                                                NodeId o, NodeId w,
                                                NodeId n) {
  switch (FoundRole(p)) {
    case Role::kX:
      return {0, Corner(p, Role::kY, o, w, 0)};
    case Role::kY:
      return {Corner(p, Role::kX, o, w, 0) + 1,
              Corner(p, Role::kZ, o, w, 0)};
    case Role::kZ:
      break;
  }
  return {Corner(p, Role::kY, o, w, 0) + 1, n};
}

/// What every row of a slice reads besides its node and positions.
struct SliceArgs {
  const OrientedGraph& g;
  const DirectedEdgeSet* arcs;
  const simd::BitmapIndex* hubs;
  Cut lo;
  Cut hi;
  Marker* marker;
};

/// Method M at the outer positions [p0, p1) of node o: the search pattern
/// of M walked with M's family check (see the file comment of
/// fundamental.h), counted into *ops. Kept out of line, one call per row,
/// so the probe loops keep their counters in registers. kHubs (scanning
/// methods only) puts the bitmap backend's hub shortcut in front of the
/// merge; without it a position never tests for the index.
template <Method M, typename Emit, bool kHubs>
[[gnu::noinline]] void Row(const SliceArgs& a, NodeId o, size_t p0,
                           size_t p1, Emit emit, OpCounts* ops_out) {
  constexpr SearchPattern P = PatternOf(M);
  constexpr Family F = MethodFamily(M);
  const OrientedGraph& g = a.g;
  const DirectedEdgeSet* arcs = a.arcs;
  OpCounts& ops = *ops_out;
  const auto outer = List(g, o, P.outer_out);
  const auto other = List(g, o, !P.outer_out);
  if constexpr (F == Family::kLookupEdgeIterator) {
    const auto marked = P.local == LocalPart::kOther ? other : outer;
    // Charged by the slice holding position 0, so a row split across
    // chunks is built once in the counters.
    if (p0 == 0) ops.hash_inserts += static_cast<int64_t>(marked.size());
    if (p0 < p1) a.marker->MarkAll(marked);
  }
  // Count-only E_k pairs the positions it merges; the emitting slices
  // merge each position as it comes, so emission stays in serial order.
  constexpr bool kScanning = F == Family::kScanningEdgeIterator;
  constexpr bool kPaired = kScanning && kCountOnly<Emit>;
  [[maybe_unused]] PairedMerge paired;
  // The hub shortcut: every local span is a piece of o's row, so its
  // bitmap is looked up once.
  [[maybe_unused]] simd::BitmapIndex::HubRef local_hub;
  if constexpr (kHubs) {
    constexpr bool kLocalOut =
        P.local == LocalPart::kOther ? !P.outer_out : P.outer_out;
    local_hub = a.hubs->RowHub(o, kLocalOut);
  }
  int64_t tri = 0;
  for (size_t p = p0; p < p1; ++p) {
    const NodeId w = outer[p];
    const auto local = P.local == LocalPart::kOther    ? other
                       : P.local == LocalPart::kBefore ? outer.first(p)
                                                       : outer.subspan(p + 1);
    const auto found = [&](NodeId c) {
      ++tri;
      emit(Corner(P, Role::kX, o, w, c), Corner(P, Role::kY, o, w, c),
           Corner(P, Role::kZ, o, w, c));
    };
    if constexpr (F == Family::kVertexIterator) {
      ops.candidate_checks += static_cast<int64_t>(local.size());
      if constexpr (P.remote_out) {  // c in N+(w): probe w's row
        const auto row = arcs->Row(w);
        for (const NodeId c : local) {
          if constexpr (kCountOnly<Emit>) {
            tri += row.Contains(c);
          } else if (row.Contains(c)) {
            found(c);
          }
        }
      } else {  // c in N-(w): probe the arc c -> w
        for (const NodeId c : local) {
          if constexpr (kCountOnly<Emit>) {
            tri += arcs->Contains(c, w);
          } else if (arcs->Contains(c, w)) {
            found(c);
          }
        }
      }
    } else {
      auto remote = List(g, w, P.remote_out);
      if constexpr (P.restriction == Restriction::kAbove) {
        remote = sei::SuffixAbove(remote, o);
        ++ops.binary_searches;
      }
      if constexpr (F == Family::kScanningEdgeIterator) {
        if constexpr (P.restriction == Restriction::kBelow) {
          remote = sei::PrefixBelow(remote, o);
        }
        ops.local_scans += static_cast<int64_t>(local.size());
        ops.remote_scans += static_cast<int64_t>(remote.size());
        if constexpr (kHubs) {
          const auto [lo, hi] = FoundWindow(
              P, o, w, static_cast<NodeId>(g.num_nodes()));
          if (simd::HubIntersect(local_hub, local,
                                 a.hubs->RowHub(w, P.remote_out), remote,
                                 lo, hi, &ops.merge_comparisons, found)) {
            continue;
          }
        }
        if constexpr (kPaired) {
          paired.Add(local, remote);
        } else {
          ops.merge_comparisons += IntersectMergeT(local, remote, found);
        }
      } else {
        // A remote list cut below o is its sorted prefix: the probes stop
        // at o, with no search for the cut.
        int64_t probes = 0;
        for (const NodeId c : remote) {
          if constexpr (P.restriction == Restriction::kBelow) {
            if (c >= o) break;
          }
          ++probes;
          if constexpr (kCountOnly<Emit>) {
            tri += a.marker->Has(c);
          } else if (a.marker->Has(c)) {
            found(c);
          }
        }
        ops.lookups += probes;
      }
    }
  }
  if constexpr (kPaired) {
    paired.Flush();
    ops.merge_comparisons += paired.comparisons();
    tri += paired.matches();
  }
  ops.triangles += tri;
}

/// Method M over the slice [a.lo, a.hi).
template <Method M, typename Emit, bool kHubs>
OpCounts Slice(const SliceArgs& a, Emit emit) {
  OpCounts ops;
  ForEachRow(M, a.g, a.lo, a.hi, [&](NodeId o, size_t p0, size_t p1) {
    Row<M, Emit, kHubs>(a, o, p0, p1, emit, &ops);
  });
  return ops;
}

/// One instantiation per method, indexed by Method; with kHubs, a second
/// one for each scanning edge iterator only.
template <typename Emit, bool kHubs, size_t... I>
OpCounts DispatchSlice(Method m, const SliceArgs& a, Emit emit,
                       std::index_sequence<I...>) {
  using Fn = OpCounts (*)(const SliceArgs&, Emit);
  static constexpr Fn kSlices[] = {
      &Slice<static_cast<Method>(I), Emit,
             kHubs && MethodFamily(static_cast<Method>(I)) ==
                          Family::kScanningEdgeIterator>...};
  return kSlices[static_cast<size_t>(m)](a, emit);
}

}  // namespace

int64_t PositionWeight(Method m, const OrientedGraph& g, NodeId v,
                       size_t p) {
  const SearchPattern& pat = PatternOf(m);
  const auto outer = List(g, v, pat.outer_out);
  const size_t local = pat.local == LocalPart::kOther
                           ? List(g, v, !pat.outer_out).size()
                       : pat.local == LocalPart::kBefore
                           ? p
                           : outer.size() - 1 - p;
  const Family family = MethodFamily(m);
  if (family == Family::kVertexIterator) return static_cast<int64_t>(local);
  const auto remote =
      static_cast<int64_t>(List(g, outer[p], pat.remote_out).size());
  if (family == Family::kLookupEdgeIterator) return remote;
  return static_cast<int64_t>(local) + remote;
}

OpCounts RunSlice(Method m, const OrientedGraph& g,
                  const DirectedEdgeSet* arcs, Cut lo, Cut hi,
                  TriangleSink* sink, const simd::BitmapIndex* hubs,
                  Marker* marker) {
  const SliceArgs a{g, arcs, hubs, lo, hi, marker};
  constexpr auto kMethods = std::make_index_sequence<kNumMethods>{};
  if (sink == nullptr) {  // count only: ops.triangles is the count
    return hubs != nullptr
               ? DispatchSlice<NoEmit, true>(m, a, NoEmit{}, kMethods)
               : DispatchSlice<NoEmit, false>(m, a, NoEmit{}, kMethods);
  }
  const SinkEmit emit{sink};
  return hubs != nullptr
             ? DispatchSlice<SinkEmit, true>(m, a, emit, kMethods)
             : DispatchSlice<SinkEmit, false>(m, a, emit, kMethods);
}

OpCounts RunSerial(Method m, const OrientedGraph& g,
                   const DirectedEdgeSet* arcs, TriangleSink* sink,
                   const simd::BitmapIndex* hubs) {
  const Cut end{static_cast<NodeId>(g.num_nodes()), 0};
  std::optional<Marker> marker;
  if (MethodFamily(m) == Family::kLookupEdgeIterator) {
    marker.emplace(g.num_nodes());
  }
  Marker* const mark = marker ? &*marker : nullptr;
  // A counting sink only needs the total, as in the parallel engine: run
  // the count-only slice and credit the sink once.
  if (auto* counter = dynamic_cast<CountingSink*>(sink)) {
    const OpCounts ops =
        RunSlice(m, g, arcs, Cut{}, end, nullptr, hubs, mark);
    counter->Add(static_cast<uint64_t>(ops.triangles));
    return ops;
  }
  return RunSlice(m, g, arcs, Cut{}, end, sink, hubs, mark);
}

}  // namespace trilist
