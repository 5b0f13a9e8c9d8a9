#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/algo/registry.h"
#include "src/algo/simd/bitmap_index.h"
#include "src/algo/simd/intersect_engine.h"
#include "src/algo/triangle_sink.h"
#include "src/gen/erdos_renyi.h"
#include "src/graph/builder.h"
#include "src/obs/degree_profile.h"
#include "src/order/pipeline.h"
#include "src/run/runner.h"
#include "src/util/rng.h"

/// \file intersect_backend_test.cpp
/// Cross-backend parity for the scanning edge iterators: every
/// intersection backend (merge, gallop, auto, simd, bitmap) must list the
/// exact same triangles in the exact same order, serial and parallel, and
/// the backends sharing the merge counter contract must report identical
/// merge_comparisons. The paper's cost metric (local + remote scans) is
/// backend-independent by construction, and the per-node attribution
/// invariant measured == PaperCost must survive backend routing.

namespace trilist {
namespace {

constexpr Method kSeiMethods[] = {Method::kE1, Method::kE2, Method::kE3,
                                  Method::kE4, Method::kE5, Method::kE6};

constexpr IntersectBackend kAllBackends[] = {
    IntersectBackend::kMerge, IntersectBackend::kGallop,
    IntersectBackend::kAuto, IntersectBackend::kSimd,
    IntersectBackend::kBitmap};

/// Graphs chosen to hit every engine path: hub-heavy stars and power-law
/// tails (bitmap word-AND + probes), dense blocks (vector blocks), and
/// sparse noise (scalar tails / short-span early outs).
OrientedGraph MakeOriented(const std::string& kind, PermutationKind order) {
  Rng rng(4242);
  Graph g = MakeEmpty(0);
  if (kind == "gnp_dense") {
    g = GenerateGnp(90, 0.3, &rng);
  } else if (kind == "gnp_sparse") {
    g = GenerateGnp(300, 0.02, &rng);
  } else if (kind == "star_plus") {
    // A big star whose leaves also form a cycle: hub rows meet long and
    // short rows in every kernel.
    GraphBuilder b(64);
    for (NodeId v = 1; v < 64; ++v) b.AddEdge(0, v);
    for (NodeId v = 1; v < 64; ++v) {
      b.AddEdge(v, v + 1 == 64 ? 1 : v + 1);
    }
    g = std::move(b).Build().ValueOrDie();
  } else if (kind == "k12") {
    g = MakeComplete(12);
  } else if (kind == "pareto_a1.3") {
    // Hub-heavy power law: linear truncation keeps hubs of near-n
    // degree beside degree-1 rows, the regime where gallop and bitmap
    // routing part ways with merge.
    GenerateSpec spec;
    spec.n = 1500;
    spec.alpha = 1.3;
    spec.truncation = TruncationKind::kLinear;
    spec.generator = GeneratorKind::kConfiguration;
    g = GenerateGraph(spec, &rng).ValueOrDie();
  } else {
    ADD_FAILURE() << "unknown graph kind " << kind;
  }
  Rng orient_rng(7);
  return OrientNamed(g, order, &orient_rng);
}

ExecPolicy PolicyFor(IntersectBackend backend, int threads,
                     int bitmap_min_degree) {
  ExecPolicy exec;
  exec.threads = threads;
  exec.intersect = backend;
  exec.bitmap_min_degree = bitmap_min_degree;
  return exec;
}

/// Counters every backend must reproduce exactly; merge_comparisons is
/// checked separately (contract depends on the backend).
void ExpectBackendInvariant(const OpCounts& ref, const OpCounts& got,
                            const std::string& label) {
  EXPECT_EQ(got.triangles, ref.triangles) << label;
  EXPECT_EQ(got.local_scans, ref.local_scans) << label;
  EXPECT_EQ(got.remote_scans, ref.remote_scans) << label;
  EXPECT_EQ(got.binary_searches, ref.binary_searches) << label;
  EXPECT_EQ(got.PaperCost(), ref.PaperCost()) << label;
}

bool SharesMergeCounterContract(IntersectBackend b) {
  return b == IntersectBackend::kMerge || b == IntersectBackend::kSimd ||
         b == IntersectBackend::kBitmap;
}

TEST(IntersectBackendTest, SerialParityAcrossAllBackends) {
  for (const std::string kind :
       {"gnp_dense", "gnp_sparse", "star_plus", "k12", "pareto_a1.3"}) {
    // min_degree 1 forces every row into the bitmap index, so the
    // word-AND path actually runs even on small test graphs.
    for (const int min_degree : {0, 1}) {
      const OrientedGraph og =
          MakeOriented(kind, PermutationKind::kDescending);
      for (const Method m : kSeiMethods) {
        CollectingSink ref_sink;
        const OpCounts ref = RunMethod(
            m, og, &ref_sink,
            PolicyFor(IntersectBackend::kMerge, 1, min_degree));
        for (const IntersectBackend backend : kAllBackends) {
          const std::string label = kind + "/" + MethodName(m) + "/" +
                                    IntersectBackendName(backend) +
                                    "/min_degree=" +
                                    std::to_string(min_degree);
          CollectingSink sink;
          const OpCounts got =
              RunMethod(m, og, &sink, PolicyFor(backend, 1, min_degree));
          ExpectBackendInvariant(ref, got, label);
          EXPECT_EQ(sink.triangles(), ref_sink.triangles()) << label;
          if (SharesMergeCounterContract(backend)) {
            EXPECT_EQ(got.merge_comparisons, ref.merge_comparisons)
                << label;
          }
        }
      }
    }
  }
}

TEST(IntersectBackendTest, ParallelParityAcrossAllBackends) {
  // The parallel engine covers E1 and E4; chunks replay in serial order,
  // so emission must stay identical under every backend too.
  for (const std::string kind : {"gnp_dense", "star_plus", "pareto_a1.3"}) {
    const OrientedGraph og = MakeOriented(kind, PermutationKind::kDescending);
    for (const Method m : {Method::kE1, Method::kE4}) {
      CollectingSink ref_sink;
      const OpCounts ref = RunMethod(
          m, og, &ref_sink, PolicyFor(IntersectBackend::kMerge, 1, 1));
      for (const IntersectBackend backend : kAllBackends) {
        const std::string label = kind + "/" + MethodName(m) +
                                  "/parallel/" +
                                  IntersectBackendName(backend);
        CollectingSink sink;
        const OpCounts got =
            RunMethod(m, og, &sink, PolicyFor(backend, 3, 1));
        ExpectBackendInvariant(ref, got, label);
        EXPECT_EQ(sink.triangles(), ref_sink.triangles()) << label;
        if (SharesMergeCounterContract(backend)) {
          EXPECT_EQ(got.merge_comparisons, ref.merge_comparisons) << label;
        }
      }
    }
  }
}

TEST(IntersectBackendTest, NonSeiMethodsIgnoreTheBackend) {
  const OrientedGraph og =
      MakeOriented("gnp_dense", PermutationKind::kDescending);
  for (const Method m : {Method::kT1, Method::kT2, Method::kL1}) {
    CollectingSink ref_sink;
    const OpCounts ref = RunMethod(m, og, &ref_sink);
    CollectingSink sink;
    const OpCounts got = RunMethod(
        m, og, &sink, PolicyFor(IntersectBackend::kBitmap, 1, 1));
    EXPECT_EQ(got.triangles, ref.triangles) << MethodName(m);
    EXPECT_EQ(got.candidate_checks, ref.candidate_checks) << MethodName(m);
    EXPECT_EQ(got.lookups, ref.lookups) << MethodName(m);
    EXPECT_EQ(sink.triangles(), ref_sink.triangles()) << MethodName(m);
  }
}

TEST(IntersectBackendTest, AttributionInvariantHoldsForEveryBackend) {
  // The paper metric counts span lengths, which no intersection algorithm
  // changes, so the per-node Table 1 charges must sum to PaperCost under
  // every backend.
  const OrientedGraph og =
      MakeOriented("star_plus", PermutationKind::kDescending);
  for (const Method m : kSeiMethods) {
    const obs::DegreeProfile profile = obs::BuildDegreeProfile(m, og);
    for (const IntersectBackend backend : kAllBackends) {
      const std::string label = std::string(MethodName(m)) + "/" +
                                IntersectBackendName(backend);
      CountingSink sink;
      const OpCounts ops =
          RunMethod(m, og, &sink, PolicyFor(backend, 1, 1));
      EXPECT_EQ(profile.total_measured, ops.PaperCost()) << label;
    }
  }
}

TEST(IntersectBackendTest, BitmapIndexStructure) {
  const OrientedGraph og =
      MakeOriented("star_plus", PermutationKind::kDescending);
  simd::BitmapIndex::Options opts;
  opts.min_degree = 4;
  const simd::BitmapIndex index = simd::BitmapIndex::Build(og, opts);
  EXPECT_EQ(index.threshold(), 4);
  EXPECT_GT(index.num_hubs(), 0u);
  size_t hubs = 0;
  const auto n = static_cast<NodeId>(og.num_nodes());
  for (NodeId v = 0; v < n; ++v) {
    for (const bool out : {true, false}) {
      const auto row = out ? og.OutNeighbors(v) : og.InNeighbors(v);
      const auto hub = out ? index.OutHub(v) : index.InHub(v);
      if (static_cast<int64_t>(row.size()) >= opts.min_degree) {
        ASSERT_TRUE(static_cast<bool>(hub)) << v << " out=" << out;
        ++hubs;
        // The bitmap holds exactly the row's labels, nothing else.
        for (const NodeId u : row) {
          EXPECT_TRUE(hub.Test(u)) << v << " " << u;
        }
        size_t bits = 0;
        for (NodeId u = 0; u < n; ++u) bits += hub.Test(u) ? 1 : 0;
        EXPECT_EQ(bits, row.size()) << v << " out=" << out;
      } else {
        EXPECT_FALSE(static_cast<bool>(hub)) << v << " out=" << out;
      }
      // No row ever contains its own node.
      EXPECT_FALSE(hub.Test(v));
    }
  }
  EXPECT_EQ(hubs, index.num_hubs());
  EXPECT_GT(hubs, 0u);
  EXPECT_GT(index.bytes(), 0u);
}

TEST(IntersectBackendTest, ParseAndNameRoundTrip) {
  for (const IntersectBackend backend : kAllBackends) {
    IntersectBackend parsed = IntersectBackend::kMerge;
    ASSERT_TRUE(
        ParseIntersectBackend(IntersectBackendName(backend), &parsed));
    EXPECT_EQ(parsed, backend);
  }
  IntersectBackend parsed = IntersectBackend::kAuto;
  EXPECT_FALSE(ParseIntersectBackend("bogus", &parsed));
  EXPECT_EQ(parsed, IntersectBackend::kAuto);  // untouched on failure
}

}  // namespace
}  // namespace trilist
