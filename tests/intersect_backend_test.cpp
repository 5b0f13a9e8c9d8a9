#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/algo/registry.h"
#include "src/algo/simd/bitmap_index.h"
#include "src/algo/triangle_sink.h"
#include "src/gen/erdos_renyi.h"
#include "src/graph/builder.h"
#include "src/obs/degree_profile.h"
#include "src/order/pipeline.h"
#include "src/run/runner.h"
#include "src/util/rng.h"
#include "tests/expect_same_ops.h"

/// \file intersect_backend_test.cpp
/// Cross-backend parity for the scanning edge iterators: both
/// intersection backends (merge, bitmap) must list the exact same
/// triangles in the exact same order, serial and parallel, and report
/// identical OpCounts, merge_comparisons included (the hub shortcut
/// accounts the scalar merge's count). The paper's cost metric
/// (local + remote scans) is backend-independent by construction, and the
/// per-node attribution invariant measured == PaperCost must survive
/// backend routing.

namespace trilist {
namespace {

constexpr Method kSeiMethods[] = {Method::kE1, Method::kE2, Method::kE3,
                                  Method::kE4, Method::kE5, Method::kE6};

constexpr IntersectBackend kAllBackends[] = {IntersectBackend::kMerge,
                                             IntersectBackend::kBitmap};

/// Graphs chosen to hit every path: hub-heavy stars and power-law tails
/// (bitmap word-AND + probes beside merged positions), dense blocks
/// (long merges), and sparse noise (short and empty spans).
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
    // degree beside degree-1 rows, the regime where bitmap routing parts
    // ways with merge.
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

/// A bitmap index whose hubs are the rows of at least `min_degree`
/// neighbors.
std::shared_ptr<const simd::BitmapIndex> Hubs(const OrientedGraph& og,
                                              int64_t min_degree) {
  simd::BitmapIndex::Options opts;
  opts.min_degree = min_degree;
  return std::make_shared<const simd::BitmapIndex>(
      simd::BitmapIndex::Build(og, opts));
}

/// A bitmap index with every nonempty row a hub (threshold 1), so the
/// word-AND path actually runs even on small test graphs.
std::shared_ptr<const simd::BitmapIndex> AllHubs(const OrientedGraph& og) {
  return Hubs(og, 1);
}

/// A policy on `backend`; `hubs` (may be null: the auto threshold) is the
/// prebuilt index the bitmap backend uses.
ExecPolicy PolicyFor(IntersectBackend backend, int threads,
                     std::shared_ptr<const simd::BitmapIndex> hubs) {
  ExecPolicy exec;
  exec.threads = threads;
  exec.intersect = backend;
  exec.bitmap_index = std::move(hubs);
  return exec;
}

TEST(IntersectBackendTest, SerialParityAcrossAllBackends) {
  for (const std::string kind :
       {"gnp_dense", "gnp_sparse", "star_plus", "k12", "pareto_a1.3"}) {
    const OrientedGraph og = MakeOriented(kind, PermutationKind::kDescending);
    // The auto hub threshold, then every row a hub.
    for (const bool all_hubs : {false, true}) {
      const auto hubs = all_hubs ? AllHubs(og) : nullptr;
      for (const Method m : kSeiMethods) {
        CollectingSink ref_sink;
        const OpCounts ref = RunMethod(m, og, &ref_sink);
        for (const IntersectBackend backend : kAllBackends) {
          const std::string label = kind + "/" + MethodName(m) + "/" +
                                    IntersectBackendName(backend) +
                                    (all_hubs ? "/all hubs" : "");
          CollectingSink sink;
          const OpCounts got =
              RunMethod(m, og, &sink, PolicyFor(backend, 1, hubs));
          ExpectSameOps(got, ref, label);
          EXPECT_EQ(sink.triangles(), ref_sink.triangles()) << label;
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
    const auto hubs = AllHubs(og);
    for (const Method m : {Method::kE1, Method::kE4}) {
      CollectingSink ref_sink;
      const OpCounts ref = RunMethod(m, og, &ref_sink);
      for (const IntersectBackend backend : kAllBackends) {
        const std::string label = kind + "/" + MethodName(m) +
                                  "/parallel/" +
                                  IntersectBackendName(backend);
        CollectingSink sink;
        const OpCounts got =
            RunMethod(m, og, &sink, PolicyFor(backend, 3, hubs));
        ExpectSameOps(got, ref, label);
        EXPECT_EQ(sink.triangles(), ref_sink.triangles()) << label;
      }
    }
  }
}

TEST(IntersectBackendTest, CountOnlyParityAcrossAllBackends) {
  // A CountingSink runs the count-only slices, which merge positions two
  // at a time; under bitmap the hub shortcut takes its positions first
  // and the rest pair as on the merge backend. With the auto threshold
  // (on most graphs here: no hub), a threshold of 8 (hub and non-hub
  // rows meet in one slice) and every row a hub, both backends must
  // report the emitting merge's OpCounts at 1 and 3 threads.
  for (const std::string kind :
       {"gnp_dense", "gnp_sparse", "star_plus", "k12", "pareto_a1.3"}) {
    const OrientedGraph og = MakeOriented(kind, PermutationKind::kDescending);
    for (const int64_t min_degree : {0, 8, 1}) {
      const auto hubs = min_degree > 0 ? Hubs(og, min_degree) : nullptr;
      for (const Method m : kSeiMethods) {
        CollectingSink ref_sink;
        const OpCounts ref = RunMethod(m, og, &ref_sink);
        for (const int threads : {1, 3}) {
          for (const IntersectBackend backend : kAllBackends) {
            const std::string label =
                kind + "/" + MethodName(m) + "/count/" +
                IntersectBackendName(backend) + "/threads " +
                std::to_string(threads) + "/hub degree " +
                std::to_string(min_degree);
            CountingSink sink;
            const OpCounts got =
                RunMethod(m, og, &sink, PolicyFor(backend, threads, hubs));
            ExpectSameOps(got, ref, label);
            EXPECT_EQ(sink.count(), ref_sink.triangles().size()) << label;
          }
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
        m, og, &sink, PolicyFor(IntersectBackend::kBitmap, 1, AllHubs(og)));
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
  const auto hubs = AllHubs(og);
  for (const Method m : kSeiMethods) {
    const obs::DegreeProfile profile = obs::BuildDegreeProfile(m, og);
    for (const IntersectBackend backend : kAllBackends) {
      const std::string label = std::string(MethodName(m)) + "/" +
                                IntersectBackendName(backend);
      CountingSink sink;
      const OpCounts ops =
          RunMethod(m, og, &sink, PolicyFor(backend, 1, hubs));
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
  // `gallop` is a retired backend and `auto` is the planner's
  // (trilist_cli), not a backend.
  for (const char* name : {"bogus", "gallop", "auto"}) {
    IntersectBackend parsed = IntersectBackend::kBitmap;
    EXPECT_FALSE(ParseIntersectBackend(name, &parsed)) << name;
    EXPECT_EQ(parsed, IntersectBackend::kBitmap) << name;  // untouched
  }
}

}  // namespace
}  // namespace trilist
