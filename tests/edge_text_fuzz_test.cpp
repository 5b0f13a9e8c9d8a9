// Seeded mutation test of the edge-list text front doors: bit flips,
// truncations and spliced junk over a generated edge list. Every mutant
// must come back as a Status or a graph (no crash, no sanitizer report),
// and the strict reader, the tolerant ingester and the out-of-core
// converter must agree wherever their contracts overlap — they share one
// parser, so a mutant one of them reads differently is a bug.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/algo/brute_force.h"
#include "src/gen/erdos_renyi.h"
#include "src/graph/binfmt.h"
#include "src/graph/ingest.h"
#include "src/graph/io.h"
#include "src/ooc/convert.h"
#include "src/util/rng.h"

namespace trilist {
namespace {

constexpr int kMutants = 2048;
constexpr int kConvertEvery = 16;

// Junk spliced in at line starts (or the end of the text). Its digit
// runs are single digits on their own line, or too large for a node ID
// wherever they land, and the base graph's IDs have two digits, so no
// mutant describes a compact graph of more than about 10^5 nodes.
const std::vector<std::string>& Junk() {
  static const std::vector<std::string> junk = {
      "#",          "% nodes 7\n", "\r\n",     "\t",
      " ",          "\n",          "x",        "-",
      "+",          ".",           "0x",       std::string(1, '\0'),
      "5 5\n",      "1 0\n",       "3\t4 0.5\n", "# nodes \n",
      "4294967295", "18446744073709551616",
  };
  return junk;
}

/// One mutant of `base`: an optional truncation, then bit flips in the
/// surviving bytes, then junk splices. Splicing last keeps a flip from
/// shrinking a spliced oversized ID into a huge valid one.
std::string Mutate(const std::string& base, Rng* rng) {
  std::string text = base;
  const bool truncate = rng->NextBounded(4) == 0;
  int flips = static_cast<int>(rng->NextBounded(4));
  const int splices = static_cast<int>(rng->NextBounded(3));
  if (!truncate && flips == 0 && splices == 0) flips = 1;
  if (truncate) text.resize(rng->NextBounded(text.size() + 1));
  for (int i = 0; i < flips && !text.empty(); ++i) {
    text[rng->NextBounded(text.size())] ^=
        static_cast<char>(1u << rng->NextBounded(8));
  }
  for (int i = 0; i < splices; ++i) {
    size_t at = rng->NextBounded(text.size() + 1);
    if (at > 0) {
      at = text.find('\n', at - 1);
      at = at == std::string::npos ? text.size() : at + 1;
    }
    const std::vector<std::string>& junk = Junk();
    text.insert(at, junk[rng->NextBounded(junk.size())]);
  }
  return text;
}

void ExpectSameGraph(const Graph& got, const Graph& want,
                     const std::string& what) {
  EXPECT_EQ(got.num_nodes(), want.num_nodes()) << what;
  EXPECT_EQ(got.EdgeList(), want.EdgeList()) << what;
}

/// Converts `text` out of core and checks it against the in-memory
/// ingest of the same bytes (when that succeeded).
void CheckConvert(const std::string& text,
                  const Result<IngestedGraph>& ingested, int mutant) {
  const std::string in_path = ::testing::TempDir() + "/fuzz_mutant.txt";
  const std::string out_path = ::testing::TempDir() + "/fuzz_mutant.tlg";
  {
    std::ofstream out(in_path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  ooc::OocConvertOptions options;
  options.mem_budget_bytes = 1 << 20;
  options.chunk_bytes = 4096;  // several reader chunks per mutant
  options.tmpdir = ::testing::TempDir();
  const std::string what = "mutant " + std::to_string(mutant);
  auto report = ooc::OocConvertFile(in_path, out_path, options);
  if (ingested.ok()) {
    // Convert keeps the input's IDs, so it only matches a compact ingest
    // exactly; a relabeled one may name IDs past the NodeId range.
    const IngestedGraph& want = *ingested;
    if (!want.stats.relabeled) {
      ASSERT_TRUE(report.ok()) << what << ": " << report.status().ToString();
    }
    if (report.ok()) {
      auto tlg = TlgFile::Open(out_path);
      ASSERT_TRUE(tlg.ok()) << what << ": " << tlg.status().ToString();
      EXPECT_EQ(tlg->graph().num_edges(), want.graph.num_edges()) << what;
      EXPECT_EQ(report->ingest.edges_in, want.stats.edges_in) << what;
      if (!want.stats.relabeled) {
        ExpectSameGraph(tlg->graph(), want.graph, what);
      }
    }
  } else if (report.ok()) {
    // Ingest only refuses malformed text and oversized graphs, both of
    // which convert refuses too.
    ADD_FAILURE() << what << ": convert accepted what ingest refused ("
                  << ingested.status().ToString() << ")";
  }
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
}

TEST(EdgeTextFuzzTest, MutantsFailCleanlyAndFrontDoorsAgree) {
  Rng gen_rng(18);
  const Graph g = GenerateGnp(99, 0.3, &gen_rng);
  std::ostringstream written;
  WriteEdgeList(g, &written);
  const std::string base = written.str();

  Rng rng(2026);
  int strict_accepted = 0;
  int ingest_accepted = 0;
  for (int m = 0; m < kMutants; ++m) {
    const std::string text = Mutate(base, &rng);
    const std::string what = "mutant " + std::to_string(m);
    std::istringstream stream(text);
    const Result<Graph> strict = ReadEdgeList(&stream);
    IngestOptions options;
    options.threads = m % 2 == 0 ? 1 : 4;
    const Result<IngestedGraph> ingested = IngestEdgeList(text, options);
    if (ingested.ok()) ++ingest_accepted;
    if (strict.ok()) {
      ++strict_accepted;
      ASSERT_TRUE(ingested.ok())
          << what << ": ingest refused what the strict reader accepted: "
          << ingested.status().ToString();
      EXPECT_EQ(ingested->graph.num_edges(), strict->num_edges()) << what;
      EXPECT_EQ(CountTrianglesReference(ingested->graph),
                CountTrianglesReference(*strict))
          << what;
      if (!ingested->stats.relabeled) {
        ExpectSameGraph(ingested->graph, *strict, what);
      }
    }
    if (m % kConvertEvery == 0) CheckConvert(text, ingested, m);
  }
  // The mutants must exercise both outcomes of every front door.
  EXPECT_GT(strict_accepted, kMutants / 20);
  EXPECT_LT(strict_accepted, kMutants / 2);
  EXPECT_GT(ingest_accepted, strict_accepted);
  EXPECT_LT(ingest_accepted, kMutants);
}

}  // namespace
}  // namespace trilist
