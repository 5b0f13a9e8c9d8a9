#include "src/graph/binfmt_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "src/gen/erdos_renyi.h"
#include "src/graph/binfmt.h"
#include "src/graph/binfmt_layout.h"
#include "src/graph/graph.h"
#include "src/order/pipeline.h"
#include "src/util/rng.h"

namespace trilist {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<unsigned char> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

Graph SampleGraph() {
  Rng rng(99);
  return GenerateGnp(300, 0.04, &rng);
}

/// Writes `path` through the stream writer by replaying the payload
/// bytes of an existing in-memory-written container `ref_path`,
/// appending in deliberately awkward 7-byte chunks so the test crosses
/// both buffer and section boundaries.
Status StreamCopy(const std::string& ref_path, const std::string& path,
                  const TlgStreamWriterOptions& options = {}) {
  auto ref = TlgFile::Open(ref_path);
  if (!ref.ok()) return ref.status();
  const std::vector<unsigned char> bytes = Slurp(ref_path);
  std::vector<TlgStreamSectionPlan> plan;
  for (const TlgFile::SectionInfo& s : ref->sections()) {
    plan.push_back({s.type, s.aux, s.length});
  }
  auto created = TlgStreamWriter::Create(
      path, ref->graph().num_nodes(), ref->graph().num_edges(), plan,
      options);
  if (!created.ok()) return created.status();
  TlgStreamWriter& writer = created.ValueOrDie();
  for (const TlgFile::SectionInfo& s : ref->sections()) {
    uint64_t done = 0;
    while (done < s.length) {
      const uint64_t take = std::min<uint64_t>(7, s.length - done);
      TRILIST_RETURN_NOT_OK(
          writer.Append(bytes.data() + s.offset + done, take));
      done += take;
    }
  }
  return writer.Finish();
}

TEST(BinfmtStreamTest, ByteIdenticalToInMemoryWriter) {
  const Graph g = SampleGraph();
  const std::string ref_path = TempPath("stream_ref.tlg");
  const std::string out_path = TempPath("stream_out.tlg");
  TlgWriteOptions opts;
  opts.orientations = {OrientSpec{PermutationKind::kDescending, 0},
                       OrientSpec{PermutationKind::kUniform, 42}};
  ASSERT_TRUE(WriteTlgFile(g, ref_path, opts).ok());
  ASSERT_TRUE(StreamCopy(ref_path, out_path).ok());
  EXPECT_EQ(Slurp(ref_path), Slurp(out_path));
  auto reopened = TlgFile::Open(out_path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->graph().num_edges(), g.num_edges());
}

TEST(BinfmtStreamTest, ShortWriteLeavesNoValidFile) {
  const Graph g = SampleGraph();
  const std::string ref_path = TempPath("stream_ref2.tlg");
  const std::string out_path = TempPath("stream_fail.tlg");
  ASSERT_TRUE(WriteTlgFile(g, ref_path).ok());
  TlgStreamWriterOptions options;
  options.debug_fail_after_bytes = 4096;  // dies mid-payload
  const Status st = StreamCopy(ref_path, out_path, options);
  EXPECT_FALSE(st.ok());
  // The magic is written last (at Finish), so the aborted file can
  // never open as a half-valid graph.
  EXPECT_FALSE(TlgFile::Open(out_path).ok());
}

TEST(BinfmtStreamTest, FaultBudgetCountsFileBytesNotRewrites) {
  // The directory and header land over bytes reserved at Create, so a
  // fault budget of exactly the final file size must not trip.
  const Graph g = SampleGraph();
  const std::string ref_path = TempPath("stream_ref5.tlg");
  const std::string out_path = TempPath("stream_exact.tlg");
  ASSERT_TRUE(WriteTlgFile(g, ref_path).ok());
  TlgStreamWriterOptions options;
  options.debug_fail_after_bytes = Slurp(ref_path).size();
  const Status st = StreamCopy(ref_path, out_path, options);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(Slurp(ref_path), Slurp(out_path));
}

TEST(BinfmtStreamTest, AbandonedWriterLeavesNoValidFile) {
  const std::string out_path = TempPath("stream_abandon.tlg");
  {
    std::vector<TlgStreamSectionPlan> plan = {
        {tlg::kSecCsrOffsets, 0, 16}};
    auto created = TlgStreamWriter::Create(out_path, 1, 0, plan);
    ASSERT_TRUE(created.ok());
    const uint64_t offsets[2] = {0, 0};
    ASSERT_TRUE(created.ValueOrDie().Append(offsets, sizeof(offsets)).ok());
    // Writer destroyed without Finish: simulated kill mid-write.
  }
  EXPECT_FALSE(TlgFile::Open(out_path).ok());
}

TEST(BinfmtStreamTest, FinishRequiresCompletePayload) {
  const std::string out_path = TempPath("stream_incomplete.tlg");
  std::vector<TlgStreamSectionPlan> plan = {{tlg::kSecCsrOffsets, 0, 16}};
  auto created = TlgStreamWriter::Create(out_path, 1, 0, plan);
  ASSERT_TRUE(created.ok());
  TlgStreamWriter& writer = created.ValueOrDie();
  const uint64_t half = 0;
  ASSERT_TRUE(writer.Append(&half, sizeof(half)).ok());
  EXPECT_FALSE(writer.Finish().ok());
  EXPECT_FALSE(TlgFile::Open(out_path).ok());
}

TEST(BinfmtStreamTest, OverAppendFails) {
  const std::string out_path = TempPath("stream_over.tlg");
  std::vector<TlgStreamSectionPlan> plan = {{tlg::kSecCsrOffsets, 0, 8}};
  auto created = TlgStreamWriter::Create(out_path, 1, 0, plan);
  ASSERT_TRUE(created.ok());
  const uint64_t word[2] = {0, 0};
  EXPECT_FALSE(created.ValueOrDie().Append(word, sizeof(word)).ok());
}

TEST(BinfmtStreamTest, DiskFullSurfacesAsStatusNotCrash) {
  // Simulate a full disk with RLIMIT_FSIZE: writes past the cap fail
  // with EFBIG once SIGXFSZ is ignored. The writer must surface a
  // Status, and the abandoned file must not open.
  const Graph g = SampleGraph();
  const std::string ref_path = TempPath("stream_ref3.tlg");
  const std::string out_path = TempPath("stream_enospc.tlg");
  ASSERT_TRUE(WriteTlgFile(g, ref_path).ok());

  struct sigaction ignore = {};
  ignore.sa_handler = SIG_IGN;
  struct sigaction saved_action = {};
  ASSERT_EQ(::sigaction(SIGXFSZ, &ignore, &saved_action), 0);
  struct rlimit saved_limit = {};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_limit), 0);
  struct rlimit capped = saved_limit;
  capped.rlim_cur = 8192;  // smaller than the container
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &capped), 0);

  const Status st = StreamCopy(ref_path, out_path);

  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved_limit), 0);
  ASSERT_EQ(::sigaction(SIGXFSZ, &saved_action, nullptr), 0);

  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(TlgFile::Open(out_path).ok());
}

TEST(BinfmtStreamTest, TruncationAfterFinishIsCaughtByLoader) {
  const Graph g = SampleGraph();
  const std::string ref_path = TempPath("stream_ref4.tlg");
  const std::string out_path = TempPath("stream_trunc.tlg");
  ASSERT_TRUE(WriteTlgFile(g, ref_path).ok());
  ASSERT_TRUE(StreamCopy(ref_path, out_path).ok());
  const std::vector<unsigned char> bytes = Slurp(out_path);
  ASSERT_GT(bytes.size(), 100u);
  ASSERT_EQ(::truncate(out_path.c_str(),
                       static_cast<off_t>(bytes.size() - 64)),
            0);
  EXPECT_FALSE(TlgFile::Open(out_path).ok());
}

}  // namespace
}  // namespace trilist
