#include "src/ooc/convert.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "src/algo/registry.h"
#include "src/algo/triangle_sink.h"
#include "src/gen/erdos_renyi.h"
#include "src/graph/binfmt.h"
#include "src/graph/graph.h"
#include "src/graph/ingest.h"
#include "src/graph/io.h"
#include "src/ooc/chunk_reader.h"
#include "src/order/pipeline.h"
#include "src/run/runner.h"
#include "src/util/rng.h"
#include "src/xm/partitioned.h"
#include "tests/expect_same_ops.h"

namespace trilist::ooc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<unsigned char> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void Spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// A compact-ID edge-list file big enough to force spilling under the
/// 1 MiB budget floor (both arcs of every edge enter the sorter).
std::string SampleEdgeListFile(const std::string& name) {
  Rng rng(31);
  const Graph g = GenerateGnp(5000, 0.02, &rng);
  const std::string path = TempPath(name);
  EXPECT_TRUE(WriteEdgeListFile(g, path).ok());
  return path;
}

/// Small budget so every stage of the pipeline actually spills.
OocConvertOptions TightOptions() {
  OocConvertOptions options;
  options.mem_budget_bytes = 1 << 20;
  options.tmpdir = ::testing::TempDir();
  return options;
}

TEST(ChunkReaderTest, ReassemblesFileInOrder) {
  const std::string path = TempPath("chunks.bin");
  {
    std::ofstream out(path, std::ios::binary);
    Rng rng(5);
    for (int i = 0; i < 300000; ++i) {
      const char c = static_cast<char>(rng.Next() & 0xff);
      out.write(&c, 1);
    }
  }
  const std::vector<unsigned char> want = Slurp(path);
  for (const bool direct : {true, false}) {
    ChunkReaderOptions ropts;
    ropts.chunk_bytes = 8 << 10;  // many chunks through the slot ring
    ropts.queue_depth = 3;
    ropts.workers = 2;
    ropts.direct_io = direct;
    auto opened = ChunkReader::Open(path, ropts);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ChunkReader& reader = opened.ValueOrDie();
    EXPECT_EQ(reader.file_size(), want.size());
    std::vector<unsigned char> got;
    while (true) {
      auto chunk = reader.Next();
      ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
      if (chunk->empty()) break;
      got.insert(got.end(), chunk->begin(), chunk->end());
    }
    EXPECT_EQ(got, want) << "direct=" << direct;
    EXPECT_EQ(reader.stats().bytes_read,
              static_cast<int64_t>(want.size()));
    EXPECT_GT(reader.stats().chunks, 10);
  }
}

TEST(ChunkReaderTest, MissingFileIsClearError) {
  EXPECT_FALSE(ChunkReader::Open("/nonexistent/trilist-input").ok());
}

TEST(OocConvertTest, ByteIdenticalToInMemoryPipeline) {
  const std::string text = SampleEdgeListFile("ooc_sample.txt");
  const std::vector<OrientSpec> orients = {
      {PermutationKind::kDescending, 0},
      {PermutationKind::kAscending, 0},
      {PermutationKind::kRoundRobin, 0},
      {PermutationKind::kComplementaryRoundRobin, 0},
      {PermutationKind::kUniform, 77},
      {PermutationKind::kSplit, 0}};

  const std::string mem_path = TempPath("ooc_mem.tlg");
  auto ingested = IngestEdgeListFile(text);
  ASSERT_TRUE(ingested.ok());
  TlgWriteOptions wopts;
  wopts.orientations = orients;
  ASSERT_TRUE(WriteTlgFile(ingested->graph, mem_path, wopts).ok());

  const std::string ooc_path = TempPath("ooc_out.tlg");
  OocConvertOptions options = TightOptions();
  options.orientations = orients;
  auto report = OocConvertFile(text, ooc_path, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(Slurp(mem_path), Slurp(ooc_path));
  EXPECT_GT(report->spill_runs, 0) << "budget must force real spilling";
  EXPECT_GT(report->spill_bytes, 0);
  EXPECT_GT(report->input_bytes, 0);
  EXPECT_GT(report->output_bytes, 0);
  EXPECT_EQ(report->ingest.num_edges, ingested->stats.num_edges);
}

TEST(OocConvertTest, DirtyInputStatsMatchInMemoryIngester) {
  const std::string path = TempPath("ooc_dirty.txt");
  Spit(path,
       "# comment header\n"
       "0 1\n"
       "1 0\n"        // duplicate (reversed)
       "2 2\n"        // self-loop
       "\n"
       "   \n"
       "% other comment\n"
       "1 2\r\n"      // CRLF
       "0\t2\n"       // tab separated
       "0 2\n");      // duplicate
  auto ingested = IngestEdgeListFile(path);
  ASSERT_TRUE(ingested.ok());

  const std::string out = TempPath("ooc_dirty.tlg");
  auto report = OocConvertFile(path, out, TightOptions());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const IngestStats& a = report->ingest;
  const IngestStats& b = ingested->stats;
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.comment_lines, b.comment_lines);
  EXPECT_EQ(a.blank_lines, b.blank_lines);
  EXPECT_EQ(a.edges_in, b.edges_in);
  EXPECT_EQ(a.self_loops_dropped, b.self_loops_dropped);
  EXPECT_EQ(a.duplicates_dropped, b.duplicates_dropped);
  EXPECT_EQ(a.max_input_id, b.max_input_id);
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.num_edges, b.num_edges);

  auto t = TlgFile::Open(out);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->graph().num_nodes(), 3u);
  EXPECT_EQ(t->graph().num_edges(), 3u);
}

TEST(OocConvertTest, MalformedLineReportsGlobalLineNumber) {
  const std::string path = TempPath("ooc_bad.txt");
  Spit(path, "0 1\n1 2\nnot an edge\n2 3\n");
  const std::string out = TempPath("ooc_bad.tlg");
  auto report = OocConvertFile(path, out, TightOptions());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("line 3"), std::string::npos)
      << report.status().ToString();
}

TEST(OocConvertTest, DegenerateOrientationRejected) {
  const std::string path = TempPath("ooc_degen.txt");
  Spit(path, "0 1\n1 2\n");
  OocConvertOptions options = TightOptions();
  options.orientations = {{PermutationKind::kDegenerate, 0}};
  auto report =
      OocConvertFile(path, TempPath("ooc_degen.tlg"), options);
  EXPECT_FALSE(report.ok());
}

TEST(OocConvertTest, TmpdirSpaceCheckFailsFastWithClearMessage) {
  const std::string text = SampleEdgeListFile("ooc_space.txt");
  OocConvertOptions options = TightOptions();
  options.free_bytes_override = 1024;  // pretend a nearly-full tmpfs
  auto report = OocConvertFile(text, TempPath("ooc_space.tlg"), options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().ToString().find("--tmpdir"),
            std::string::npos)
      << report.status().ToString();

  const Status direct = CheckTmpdirSpace(text, ::testing::TempDir(),
                                         /*num_orientations=*/1,
                                         /*free_bytes_override=*/1024);
  EXPECT_FALSE(direct.ok());
}

// A budgeted run over a `.tlg` is the paged path: the container opens
// demand-paged and the runner's partitioned executor evicts behind its
// scan. Counts and ops equal the in-memory kernels; the ledger follows
// the budget rule (B/2 per resident partition).
TEST(OocPagedCountTest, RunnerMatchesInMemoryExecutorsAndLedger) {
  const std::string text = SampleEdgeListFile("ooc_count.txt");
  const std::string path = TempPath("ooc_count.tlg");
  OocConvertOptions options = TightOptions();
  options.orientations = {{PermutationKind::kDescending, 0}};
  ASSERT_TRUE(OocConvertFile(text, path, options).ok());

  auto t = TlgFile::Open(path);
  ASSERT_TRUE(t.ok());
  const OrientedGraph* og =
      t->FindOrientation({PermutationKind::kDescending, 0});
  ASSERT_NE(og, nullptr);
  TlgLoadOptions paged;
  paged.paged = true;
  auto mapped = TlgFile::Open(path, paged);
  ASSERT_TRUE(mapped.ok());

  constexpr int64_t kBudget = 1 << 20;
  const Partitioning parts = Partitioning::ForMemoryBudget(*og, kBudget / 2);
  const auto passes = static_cast<int64_t>(parts.num_partitions());
  const auto graph_bytes =
      static_cast<int64_t>(og->num_arcs() * sizeof(NodeId));
  for (const Method m : {Method::kE1, Method::kE2}) {
    RunSpec spec;
    spec.source = GraphSource::FromFile(path);
    spec.orient = {PermutationKind::kDescending, 0};
    spec.methods = {m};
    spec.mem_budget_bytes = kBudget;
    auto report = RunPipeline(spec);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->partitioned);
    EXPECT_TRUE(report->cached_orientation);

    // Reference: the in-memory kernel, which shares no loop with the
    // partitioned executor the paged path runs.
    CountingSink sink;
    const OpCounts want = RunMethod(m, *og, &sink);
    ExpectSameOps(report->methods.front().ops, want, MethodName(m));
    EXPECT_EQ(report->Triangles(), sink.count());

    // Ledger: one resident load of the whole graph across passes, one
    // full stream per pass.
    EXPECT_EQ(report->io_partitions, passes);
    EXPECT_EQ(report->io.passes, passes);
    EXPECT_EQ(report->io.bytes_loaded, graph_bytes);
    EXPECT_EQ(report->io.bytes_streamed, passes * graph_bytes);
    if (mapped->mmap_backed() && passes > 1) {
      EXPECT_GT(report->io_evictions, 0);
    }
  }
}

// A budgeted run must not orient a whole container in RAM: a missing
// orientation is an error that names the `convert` flags embedding it.
TEST(OocPagedCountTest, MissingOrientationIsClearError) {
  const std::string text = SampleEdgeListFile("ooc_missing.txt");
  const std::string path = TempPath("ooc_missing.tlg");
  OocConvertOptions options = TightOptions();
  options.orientations = {{PermutationKind::kDescending, 0}};
  ASSERT_TRUE(OocConvertFile(text, path, options).ok());

  RunSpec spec;
  spec.source = GraphSource::FromFile(path);
  spec.orient = {PermutationKind::kUniform, 5};
  spec.mem_budget_bytes = 1 << 20;
  auto report = RunPipeline(spec);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().ToString().find("convert --orders U --seed 5"),
            std::string::npos)
      << report.status().ToString();
}

}  // namespace
}  // namespace trilist::ooc
