#include "src/graph/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <ios>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "src/algo/brute_force.h"
#include "src/gen/erdos_renyi.h"
#include "src/graph/builder.h"
#include "src/util/rng.h"

namespace trilist {
namespace {

/// Path edges "i i+1" up to the reader's 1 MiB block boundary, then
/// `line` placed to straddle it, then a few more path edges. Sets
/// `line_no` to the 1-based line number of `line`.
std::string TextStraddlingBlock(const std::string& line, size_t* line_no) {
  constexpr size_t kBlock = 1 << 20;
  std::string text = "# nodes 200000\n";
  size_t lines = 1;
  size_t i = 10;
  while (text.size() + 16 < kBlock - line.size() / 2) {
    text += std::to_string(i) + " " + std::to_string(i + 1) + "\n";
    ++lines;
    ++i;
  }
  // A comment pads the text so `line` starts mid-way before the boundary.
  text += "#" + std::string(kBlock - line.size() / 2 - text.size() - 2, '.') +
          "\n";
  text += line;
  *line_no = lines + 2;
  for (size_t k = 0; k < 3; ++k, ++i) {
    text += std::to_string(i) + " " + std::to_string(i + 1) + "\n";
  }
  return text;
}

/// Serves `text`, then fails the way a disk read error does.
class FailingBuf : public std::streambuf {
 public:
  explicit FailingBuf(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 protected:
  int_type underflow() override {
    throw std::ios_base::failure("read error");
  }

 private:
  std::string text_;
};

TEST(EdgeListIoTest, RoundTripsSmallGraph) {
  const Graph g = MakeBowTie(4);
  std::stringstream buf;
  WriteEdgeList(g, &buf);
  auto r = ReadEdgeList(&buf);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_nodes(), g.num_nodes());
  EXPECT_EQ(r->EdgeList(), g.EdgeList());
}

TEST(EdgeListIoTest, RoundTripsRandomGraph) {
  Rng rng(3);
  const Graph g = GenerateGnp(500, 0.02, &rng);
  std::stringstream buf;
  WriteEdgeList(g, &buf);
  auto r = ReadEdgeList(&buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->EdgeList(), g.EdgeList());
  EXPECT_EQ(CountTrianglesReference(*r), CountTrianglesReference(g));
}

TEST(EdgeListIoTest, PreservesIsolatedNodesViaHeader) {
  // Node 4 is isolated; without the header its existence would be lost.
  auto g = Graph::FromEdges(5, {{0, 1}, {2, 3}}).ValueOrDie();
  std::stringstream buf;
  WriteEdgeList(g, &buf);
  auto r = ReadEdgeList(&buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_nodes(), 5u);
  // The header is binding: an ID at or past N is an error, not growth.
  for (const char* bad : {"# nodes 3\n0 3\n", "0 5\n# nodes 3\n"}) {
    std::stringstream past(bad);
    EXPECT_FALSE(ReadEdgeList(&past).ok()) << bad;
  }
}

TEST(EdgeListIoTest, InfersNodeCountWithoutHeader) {
  std::stringstream buf("0 1\n5 2\n");
  auto r = ReadEdgeList(&buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_nodes(), 6u);
  EXPECT_TRUE(r->HasEdge(5, 2));
  // IDs must fit NodeId with n = max ID + 1 still representable.
  for (const char* big : {"0 4294967295\n", "0 4294967294\n",
                          "# nodes 4294967295\n0 1\n"}) {
    std::stringstream huge(big);
    auto h = ReadEdgeList(&huge);
    ASSERT_FALSE(h.ok()) << big;
    EXPECT_EQ(h.status().code(), StatusCode::kOutOfRange) << big;
  }
}

TEST(EdgeListIoTest, SkipsCommentsAndBlankLines) {
  std::stringstream buf(
      "# a comment\n% another style\n\n0 1\n# nodes 10\n1 2\n");
  auto r = ReadEdgeList(&buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_nodes(), 10u);
  EXPECT_EQ(r->num_edges(), 2u);
  // Whitespace-only lines, CRLF endings, tab separators, indented
  // comments and trailing columns are the shared dialect; the first
  // header wins.
  std::stringstream messy(
      "# nodes 10\r\n  \t\r\n0\t1\r\n1 2 0.5\n \t# nodes 4\n\r\n2\t 3 \n");
  auto m = ReadEdgeList(&messy);
  ASSERT_TRUE(m.ok()) << m.status().ToString();
  EXPECT_EQ(m->num_nodes(), 10u);
  EXPECT_EQ(m->EdgeList(), (std::vector<Edge>{{0, 1}, {1, 2}, {2, 3}}));
}

TEST(EdgeListIoTest, RejectsMalformedLine) {
  // A field must end at whitespace: "0 1x" is not the edge (0, 1).
  for (const char* bad : {"0 1\nnot numbers\n", "0 1\n0 1x\n",
                          "0 1\n0\n", "0 1\n-1 2\n", "0 1\n0 1x"}) {
    std::stringstream buf(bad);
    auto r = ReadEdgeList(&buf);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
        << r.status().ToString();
  }
  // The reader parses 1 MiB blocks; a line cut by a block boundary is
  // parsed whole, and a malformed one reports its line in the input.
  size_t line_no = 0;
  std::stringstream good(TextStraddlingBlock("7 0\n", &line_no));
  auto ok = ReadEdgeList(&good);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok->HasEdge(7, 0));
  std::stringstream bad(TextStraddlingBlock("7 12abc\n", &line_no));
  auto r = ReadEdgeList(&bad);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line " + std::to_string(line_no) +
                                      ":"),
            std::string::npos)
      << r.status().ToString();
}

TEST(EdgeListIoTest, RejectsSelfLoopAndDuplicate) {
  for (const char* bad : {"1 1\n", "0 1\n1 0\n", "0 1\r\n2\t2\r\n",
                          "0 1\n0\t1 7\n"}) {
    std::stringstream buf(bad);
    auto r = ReadEdgeList(&buf);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(EdgeListIoTest, EmptyInputIsEmptyGraph) {
  std::stringstream buf("");
  auto r = ReadEdgeList(&buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_nodes(), 0u);
}

TEST(EdgeListIoTest, FileRoundTrip) {
  const Graph g = MakeComplete(6);
  const std::string path = ::testing::TempDir() + "/trilist_io_test.txt";
  ASSERT_TRUE(WriteEdgeListFile(g, path).ok());
  auto r = ReadEdgeListFile(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->EdgeList(), g.EdgeList());
  std::remove(path.c_str());
}

TEST(EdgeListIoTest, MissingFileErrors) {
  auto r = ReadEdgeListFile("/nonexistent/definitely/missing.txt");
  EXPECT_FALSE(r.ok());
}

TEST(EdgeListIoTest, RejectsDirectoryAndReadError) {
  auto dir = ReadEdgeListFile(::testing::TempDir());
  ASSERT_FALSE(dir.ok());
  EXPECT_NE(dir.status().message().find("not a regular file"),
            std::string::npos)
      << dir.status().ToString();
  // A stream that fails mid-read is an error, not the edges before it.
  FailingBuf buf("0 1\n1 2\n");
  std::istream in(&buf);
  auto r = ReadEdgeList(&in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(BitsetOracleTest, AgreesWithOtherOracles) {
  Rng rng(9);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = GenerateGnp(150, 0.02 + 0.03 * trial, &rng);
    EXPECT_EQ(CountTrianglesBitset(g), CountTrianglesReference(g)) << trial;
  }
  EXPECT_EQ(CountTrianglesBitset(MakeComplete(10)), 120u);
  EXPECT_EQ(CountTrianglesBitset(MakeEmpty(10)), 0u);
  EXPECT_EQ(CountTrianglesBitset(MakeStar(20)), 0u);
}

}  // namespace
}  // namespace trilist
