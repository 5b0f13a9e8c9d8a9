#include "src/run/runner.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/algo/registry.h"
#include "src/graph/binfmt.h"
#include "src/graph/edge_set.h"
#include "src/graph/io.h"
#include "src/obs/trace.h"
#include "src/order/pipeline.h"
#include "src/util/rng.h"
#include "tests/expect_same_ops.h"

namespace trilist {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

GenerateSpec SmallPareto() {
  GenerateSpec gen;
  gen.n = 3000;
  gen.alpha = 1.7;
  return gen;
}

TEST(ResolveThreadsTest, ZeroMeansAllHardwareThreads) {
  EXPECT_GE(ResolveThreads(0), 1);
  EXPECT_GE(ResolveThreads(-3), 1);
  EXPECT_EQ(ResolveThreads(1), 1);
  EXPECT_EQ(ResolveThreads(5), 5);
}

// The engine contract the CLI documents: any --threads value produces
// bit-identical triangles and operation counters for every fundamental
// method.
TEST(RunnerTest, SerialAndParallelRunsAgree) {
  RunSpec spec;
  spec.source = GraphSource::FromGenerator(SmallPareto());
  spec.methods = FundamentalMethods();
  spec.exec.threads = 1;
  auto serial = RunPipeline(spec);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  spec.exec.threads = 4;
  auto parallel = RunPipeline(spec);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_EQ(parallel->threads, 4);
  ASSERT_EQ(serial->methods.size(), parallel->methods.size());
  for (size_t i = 0; i < serial->methods.size(); ++i) {
    const MethodReport& s = serial->methods[i];
    const MethodReport& p = parallel->methods[i];
    EXPECT_FALSE(s.parallel);
    EXPECT_TRUE(p.parallel) << MethodName(p.method);
    EXPECT_EQ(s.triangles, p.triangles) << MethodName(s.method);
    ExpectSameOps(s.ops, p.ops, MethodName(s.method));
    EXPECT_DOUBLE_EQ(s.formula_cost, p.formula_cost);
  }
}

// --threads 0 means "auto": the report must show the resolved hardware
// width (and compute utilization over it), while preserving the request,
// and the listing must be bit-identical to an explicit request of the
// same width.
TEST(RunnerTest, ThreadsZeroResolvesToHardwareWidth) {
  RunSpec spec;
  spec.source = GraphSource::FromGenerator(SmallPareto());
  spec.methods = {Method::kT1, Method::kE1};
  spec.exec.threads = 0;
  auto auto_run = RunPipeline(spec);
  ASSERT_TRUE(auto_run.ok()) << auto_run.status().ToString();

  const int resolved = ResolveThreads(0);
  EXPECT_EQ(auto_run->threads, resolved);
  EXPECT_EQ(auto_run->requested_threads, 0);
  EXPECT_NE(auto_run->ToJson().find("\"requested_threads\": 0"),
            std::string::npos);

  spec.exec.threads = resolved;
  auto explicit_run = RunPipeline(spec);
  ASSERT_TRUE(explicit_run.ok()) << explicit_run.status().ToString();
  EXPECT_EQ(explicit_run->threads, resolved);
  EXPECT_EQ(explicit_run->requested_threads, resolved);
  ASSERT_EQ(auto_run->methods.size(), explicit_run->methods.size());
  for (size_t i = 0; i < auto_run->methods.size(); ++i) {
    const MethodReport& a = auto_run->methods[i];
    const MethodReport& e = explicit_run->methods[i];
    EXPECT_EQ(a.parallel, e.parallel) << MethodName(a.method);
    EXPECT_EQ(a.triangles, e.triangles) << MethodName(a.method);
    ExpectSameOps(a.ops, e.ops, MethodName(a.method));
  }
}

// The profiling pass fills one degree profile per method whose measured
// total reproduces the method's paper-metric cost.
TEST(RunnerTest, DegreeProfilePassMatchesPaperCost) {
  RunSpec spec;
  spec.source = GraphSource::FromGenerator(SmallPareto());
  spec.methods = {Method::kT1, Method::kE1, Method::kL1};
  spec.degree_profile = true;
  auto report = RunPipeline(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(report->degree_profiles.size(), spec.methods.size());
  EXPECT_GT(report->stages.WallOf("profile"), 0.0);
  for (size_t i = 0; i < spec.methods.size(); ++i) {
    const obs::DegreeProfile& p = report->degree_profiles[i];
    EXPECT_EQ(p.method, spec.methods[i]);
    EXPECT_EQ(p.total_measured, report->methods[i].ops.PaperCost())
        << MethodName(p.method);
    EXPECT_GT(p.total_predicted, 0.0) << MethodName(p.method);
  }
  // Off by default: no profile pass, no "profile" stage.
  spec.degree_profile = false;
  auto plain = RunPipeline(spec);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->degree_profiles.empty());
  EXPECT_EQ(plain->stages.WallOf("profile"), 0.0);
}

// A `.tlg` container with an embedded orientation must produce the same
// listing as the text edge list of the same graph, while skipping the
// order/orient stages entirely.
TEST(RunnerTest, TextAndCachedTlgSourcesAgree) {
  Rng rng(99);
  auto graph = GenerateGraph(SmallPareto(), &rng);
  ASSERT_TRUE(graph.ok());
  const std::string text_path = TempPath("runner_parity.txt");
  const std::string tlg_path = TempPath("runner_parity.tlg");
  ASSERT_TRUE(WriteEdgeListFile(*graph, text_path).ok());
  const OrientSpec orient{PermutationKind::kDescending, 0};
  TlgWriteOptions wopts;
  wopts.orientations = {orient};
  ASSERT_TRUE(WriteTlgFile(*graph, tlg_path, wopts).ok());

  RunSpec spec;
  spec.orient = orient;
  spec.methods = FundamentalMethods();

  spec.source = GraphSource::FromFile(text_path);
  auto from_text = RunPipeline(spec);
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  EXPECT_FALSE(from_text->cached_orientation);

  spec.source = GraphSource::FromFile(tlg_path);
  auto from_tlg = RunPipeline(spec);
  ASSERT_TRUE(from_tlg.ok()) << from_tlg.status().ToString();
  EXPECT_TRUE(from_tlg->cached_orientation);
  EXPECT_EQ(from_tlg->stages.WallOf("order"), 0.0);
  EXPECT_EQ(from_tlg->stages.WallOf("orient"), 0.0);

  EXPECT_EQ(from_text->num_nodes, from_tlg->num_nodes);
  EXPECT_EQ(from_text->num_edges, from_tlg->num_edges);
  ASSERT_EQ(from_text->methods.size(), from_tlg->methods.size());
  for (size_t i = 0; i < from_text->methods.size(); ++i) {
    const MethodReport& t = from_text->methods[i];
    const MethodReport& c = from_tlg->methods[i];
    EXPECT_EQ(t.triangles, c.triangles) << MethodName(t.method);
    ExpectSameOps(t.ops, c.ops, MethodName(t.method));
  }
}

// A traced `.tlg` run splits its load stage: the CRC sweep is its own
// "tlg.verify" span, recorded within the "load" stage span.
TEST(RunnerTest, TracedTlgRunHasAVerifySpan) {
  Rng rng(7);
  auto graph = GenerateGraph(SmallPareto(), &rng);
  ASSERT_TRUE(graph.ok());
  const std::string tlg_path = TempPath("runner_traced.tlg");
  ASSERT_TRUE(WriteTlgFile(*graph, tlg_path).ok());

  RunSpec spec;
  spec.source = GraphSource::FromFile(tlg_path);
  spec.methods = {Method::kE1};
  obs::Tracer::Disable();
  obs::Tracer::Clear();
  obs::Tracer::Enable();
  auto report = RunPipeline(spec);
  obs::Tracer::Disable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string json = obs::Tracer::ToChromeJson();
  obs::Tracer::Clear();
#if TRILIST_TRACING
  EXPECT_NE(json.find("\"name\": \"load\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"tlg.verify\""), std::string::npos);
#else
  EXPECT_EQ(json.find("\"name\": \"tlg.verify\""), std::string::npos);
#endif
}

// A traced vertex-iterator run records the arc index's footprint as arg
// "bytes" of its "arcs" span, so a trace attributes the index's memory to
// the stage that built it.
TEST(RunnerTest, TracedArcsSpanRecordsIndexBytes) {
  Rng rng(7);
  auto graph = GenerateGraph(SmallPareto(), &rng);
  ASSERT_TRUE(graph.ok());
  const size_t bytes =
      DirectedEdgeSet(OrientNamed(*graph, PermutationKind::kDescending))
          .bytes();

  RunSpec spec;
  spec.source = GraphSource::FromGraph(*graph);
  spec.methods = {Method::kT1};
  obs::Tracer::Disable();
  obs::Tracer::Clear();
  obs::Tracer::Enable();
  auto report = RunPipeline(spec);
  obs::Tracer::Disable();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string json = obs::Tracer::ToChromeJson();
  obs::Tracer::Clear();
#if TRILIST_TRACING
  const size_t arcs = json.find("\"name\": \"arcs\"");
  ASSERT_NE(arcs, std::string::npos);
  const size_t end = json.find('}', json.find("\"args\"", arcs));
  const std::string want = "\"bytes\": " + std::to_string(bytes);
  EXPECT_NE(json.substr(arcs, end - arcs).find(want), std::string::npos)
      << want << " not in " << json.substr(arcs, end - arcs);
#else
  EXPECT_EQ(json.find("\"name\": \"arcs\""), std::string::npos);
#endif
}

// An in-memory source must match the generate source it came from, and
// repeats must agree with a single pass.
TEST(RunnerTest, InMemorySourceAndRepeatsAreConsistent) {
  Rng rng(1);
  auto graph = GenerateGraph(SmallPareto(), &rng);
  ASSERT_TRUE(graph.ok());

  RunSpec generated;
  generated.source = GraphSource::FromGenerator(SmallPareto());
  generated.seed = 1;
  auto from_gen = RunPipeline(generated);
  ASSERT_TRUE(from_gen.ok());

  RunSpec in_memory;
  in_memory.source = GraphSource::FromGraph(*graph);
  in_memory.repeats = 3;
  auto from_mem = RunPipeline(in_memory);
  ASSERT_TRUE(from_mem.ok());

  EXPECT_EQ(from_gen->Triangles(), from_mem->Triangles());
  EXPECT_GE(from_mem->methods[0].wall_total_s,
            from_mem->methods[0].wall_s);
}

// A memory budget switches E1/E2 to the partitioned executors: the
// counts and CPU counters are bit-identical to the in-memory run and
// the report carries a populated I/O ledger.
TEST(RunnerTest, MemoryBudgetedRunMatchesInMemory) {
  // Budgets below 1 MiB act as 1 MiB, half of which funds a partition:
  // G(2000, 0.1) has ~200k arcs (~800 KB), so the floor forces several.
  GenerateSpec gen;
  gen.n = 2000;
  gen.generator = GeneratorKind::kGnp;
  gen.gnp_p = 0.1;
  RunSpec spec;
  spec.source = GraphSource::FromGenerator(gen);
  spec.methods = {Method::kE1, Method::kE2};
  auto in_memory = RunPipeline(spec);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  EXPECT_FALSE(in_memory->partitioned);

  spec.mem_budget_bytes = 1 << 20;
  auto budgeted = RunPipeline(spec);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  EXPECT_TRUE(budgeted->partitioned);
  EXPECT_GT(budgeted->io_partitions, 1);
  EXPECT_GT(budgeted->io.passes, 0);
  EXPECT_GT(budgeted->io.bytes_loaded, 0);
  EXPECT_GT(budgeted->io.bytes_streamed, 0);
  ASSERT_EQ(budgeted->methods.size(), in_memory->methods.size());
  for (size_t i = 0; i < budgeted->methods.size(); ++i) {
    EXPECT_EQ(budgeted->methods[i].triangles,
              in_memory->methods[i].triangles);
    ExpectSameOps(budgeted->methods[i].ops, in_memory->methods[i].ops,
                  MethodName(budgeted->methods[i].method));
  }
  EXPECT_NE(budgeted->ToJson().find("\"partitioned\": true"),
            std::string::npos);
}

// Only E1/E2 have partitioned executors; anything else under a budget
// is an explicit error, not a silent in-memory fallback.
TEST(RunnerTest, MemoryBudgetRejectsUnsupportedMethods) {
  RunSpec spec;
  GenerateSpec gen;
  gen.n = 400;
  spec.source = GraphSource::FromGenerator(gen);
  spec.methods = {Method::kT1};
  spec.mem_budget_bytes = 1 << 20;
  auto report = RunPipeline(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

// RunExperiment's shared-helper path: the telemetry clock sees every
// phase and the run is reproducible for a fixed seed.
TEST(RunnerTest, GenerateSpecSamplingIsDeterministic) {
  Rng rng_a(7);
  Rng rng_b(7);
  const std::vector<int64_t> a = SampleGraphicDegrees(SmallPareto(), &rng_a);
  const std::vector<int64_t> b = SampleGraphicDegrees(SmallPareto(), &rng_b);
  EXPECT_EQ(a, b);
  auto g1 = GenerateGraph(SmallPareto(), &rng_a);
  ASSERT_TRUE(g1.ok());
  EXPECT_GT(g1->num_edges(), 0u);
}

}  // namespace
}  // namespace trilist
