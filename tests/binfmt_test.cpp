#include "src/graph/binfmt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/algo/registry.h"
#include "src/gen/erdos_renyi.h"
#include "src/graph/builder.h"
#include "src/graph/io.h"
#include "src/graph/mmap_file.h"
#include "src/order/pipeline.h"
#include "src/util/crc32.h"
#include "src/util/rng.h"

namespace trilist {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Graph SampleGraph() {
  Rng rng(17);
  return GenerateGnp(400, 0.03, &rng);
}

/// Whole-file read/write helpers for the corruption tests.
std::vector<unsigned char> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void Spit(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
T ReadAt(const std::vector<unsigned char>& bytes, size_t offset) {
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

template <typename T>
void WriteAt(std::vector<unsigned char>* bytes, size_t offset, T value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

// On-disk layout constants mirrored from binfmt.cpp (pinned by its
// static_asserts); the corruption tests patch files at these offsets.
constexpr size_t kHeaderSize = 40;
constexpr size_t kEntrySize = 32;
constexpr size_t kHeaderTableCrcOff = 32;
constexpr size_t kEntryOffsetOff = 8;
constexpr size_t kEntryLengthOff = 16;
constexpr size_t kEntryCrcOff = 24;

/// Recomputes a section's CRC and the table CRC after a payload patch, so
/// corruption reaches the structural validator instead of tripping the
/// checksum first.
void FixUpCrcs(std::vector<unsigned char>* bytes, size_t section_index) {
  const size_t entry = kHeaderSize + section_index * kEntrySize;
  const auto offset = ReadAt<uint64_t>(*bytes, entry + kEntryOffsetOff);
  const auto length = ReadAt<uint64_t>(*bytes, entry + kEntryLengthOff);
  WriteAt<uint32_t>(bytes, entry + kEntryCrcOff,
                    Crc32Update(0, bytes->data() + offset, length));
  const auto count = ReadAt<uint32_t>(*bytes, 12);
  WriteAt<uint32_t>(bytes, kHeaderTableCrcOff,
                    Crc32Update(0, bytes->data() + kHeaderSize,
                                count * kEntrySize));
}

TEST(TlgRoundTripTest, PreservesGraphAndDegrees) {
  const Graph g = SampleGraph();
  const std::string path = TempPath("roundtrip.tlg");
  ASSERT_TRUE(WriteTlgFile(g, path).ok());
  auto t = TlgFile::Open(path);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->graph().num_nodes(), g.num_nodes());
  EXPECT_EQ(t->graph().num_edges(), g.num_edges());
  EXPECT_EQ(t->graph().EdgeList(), g.EdgeList());
  const auto degrees = g.Degrees();
  ASSERT_EQ(t->degrees().size(), degrees.size());
  EXPECT_TRUE(std::equal(t->degrees().begin(), t->degrees().end(),
                         degrees.begin()));
  EXPECT_EQ(t->version(), 1u);
  EXPECT_TRUE(LooksLikeTlgFile(path));
  std::remove(path.c_str());
}

TEST(TlgRoundTripTest, EmptyAndEdgeCaseGraphs) {
  for (const Graph& g :
       {Graph::FromEdges(0, {}).ValueOrDie(),
        Graph::FromEdges(5, {}).ValueOrDie(), MakeStar(7),
        MakeComplete(4)}) {
    const std::string path = TempPath("edgecase.tlg");
    ASSERT_TRUE(WriteTlgFile(g, path).ok());
    auto t = TlgFile::Open(path);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_EQ(t->graph().num_nodes(), g.num_nodes());
    EXPECT_EQ(t->graph().EdgeList(), g.EdgeList());
    std::remove(path.c_str());
  }
}

TEST(TlgRoundTripTest, GraphViewOutlivesContainer) {
  const Graph g = SampleGraph();
  const std::string path = TempPath("outlive.tlg");
  ASSERT_TRUE(WriteTlgFile(g, path).ok());
  Graph view;
  {
    auto t = TlgFile::Open(path);
    ASSERT_TRUE(t.ok());
    view = t->graph();  // copy shares the pinned mapping
  }
  EXPECT_EQ(view.EdgeList(), g.EdgeList());
  std::remove(path.c_str());
}

TEST(TlgRoundTripTest, ReadFallbackMatchesMmap) {
  const Graph g = SampleGraph();
  const std::string path = TempPath("fallback.tlg");
  ASSERT_TRUE(WriteTlgFile(g, path).ok());
  TlgLoadOptions opts;
  opts.backing = MmapFile::Backing::kRead;
  auto t = TlgFile::Open(path, opts);
  ASSERT_TRUE(t.ok());
  EXPECT_FALSE(t->mmap_backed());
  EXPECT_EQ(t->graph().EdgeList(), g.EdgeList());
  std::remove(path.c_str());
}

// A fixed oracle for the on-disk layout: every writer shares one section
// plan, so writer-vs-writer byte identity cannot catch a layout drift.
// Values taken from `trilist_cli convert --orders D,U --seed 7` on this
// edge list before the writers were merged.
TEST(TlgGoldenTest, K4PlusPathBytesArePinned) {
  auto g = Graph::FromEdges(
      6, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}});
  ASSERT_TRUE(g.ok());
  const std::string path = TempPath("golden.tlg");
  TlgWriteOptions wopts;
  wopts.orientations = {OrientSpec{PermutationKind::kDescending, 0},
                        OrientSpec{PermutationKind::kUniform, 7}};
  ASSERT_TRUE(WriteTlgFile(*g, path, wopts).ok());
  const std::vector<unsigned char> bytes = Slurp(path);
  EXPECT_EQ(bytes.size(), 816u);
  EXPECT_EQ(Crc32Update(0, bytes.data(), bytes.size()), 0x41fb10d8u);
  std::remove(path.c_str());
}

TEST(TlgOrientationCacheTest, BitIdenticalToFreshPipeline) {
  const Graph g = SampleGraph();
  const std::string path = TempPath("orient.tlg");
  TlgWriteOptions wopts;
  wopts.orientations = {
      OrientSpec{PermutationKind::kDescending, 0},
      OrientSpec{PermutationKind::kRoundRobin, 0},
      OrientSpec{PermutationKind::kUniform, 42},
      OrientSpec{PermutationKind::kDegenerate, 0},
  };
  ASSERT_TRUE(WriteTlgFile(g, path, wopts).ok());
  auto t = TlgFile::Open(path);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->orientation_specs().size(), wopts.orientations.size());
  for (const OrientSpec& spec : wopts.orientations) {
    const OrientedGraph* cached = t->FindOrientation(spec);
    ASSERT_NE(cached, nullptr);
    const OrientedGraph fresh = OrientWithSpec(t->graph(), spec);
    const auto eq = [](auto a, auto b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    };
    EXPECT_TRUE(eq(cached->RawOutOffsets(), fresh.RawOutOffsets()));
    EXPECT_TRUE(eq(cached->RawOutNeighbors(), fresh.RawOutNeighbors()));
    EXPECT_TRUE(eq(cached->RawInOffsets(), fresh.RawInOffsets()));
    EXPECT_TRUE(eq(cached->RawInNeighbors(), fresh.RawInNeighbors()));
    EXPECT_TRUE(eq(cached->original_of(), fresh.original_of()));
  }
  // A different uniform seed is a different orientation: cache miss.
  EXPECT_EQ(t->FindOrientation(OrientSpec{PermutationKind::kUniform, 43}),
            nullptr);
  // Seeds are irrelevant for deterministic families: cache hit.
  EXPECT_NE(
      t->FindOrientation(OrientSpec{PermutationKind::kDescending, 999}),
      nullptr);
  std::remove(path.c_str());
}

TEST(TlgEngineEquivalenceTest, AllFundamentalMethodsSerialAndParallel) {
  // The acceptance experiment: text edge list -> .tlg -> mmap load; all
  // four fundamental methods must report identical triangle counts AND
  // identical operation counts on both loading paths, serial and
  // parallel.
  const Graph g = SampleGraph();
  const std::string text_path = TempPath("equiv.txt");
  const std::string tlg_path = TempPath("equiv.tlg");
  ASSERT_TRUE(WriteEdgeListFile(g, text_path).ok());
  const OrientSpec spec{PermutationKind::kDescending, 0};
  TlgWriteOptions wopts;
  wopts.orientations = {spec};
  ASSERT_TRUE(WriteTlgFile(g, tlg_path, wopts).ok());

  auto text_graph = ReadEdgeListFile(text_path);
  ASSERT_TRUE(text_graph.ok());
  auto tlg = TlgFile::Open(tlg_path);
  ASSERT_TRUE(tlg.ok());
  const OrientedGraph og_text = OrientWithSpec(*text_graph, spec);
  const OrientedGraph* og_tlg = tlg->FindOrientation(spec);
  ASSERT_NE(og_tlg, nullptr);

  for (Method m : {Method::kT1, Method::kT2, Method::kE1, Method::kE4}) {
    for (int threads : {1, 4}) {
      ExecPolicy exec;
      exec.threads = threads;
      CountingSink s_text;
      CountingSink s_tlg;
      const OpCounts ops_text = RunMethod(m, og_text, &s_text, exec);
      const OpCounts ops_tlg = RunMethod(m, *og_tlg, &s_tlg, exec);
      EXPECT_EQ(s_text.count(), s_tlg.count())
          << MethodName(m) << " threads=" << threads;
      EXPECT_EQ(ops_text.PaperCost(), ops_tlg.PaperCost())
          << MethodName(m) << " threads=" << threads;
    }
  }
  std::remove(text_path.c_str());
  std::remove(tlg_path.c_str());
}

class TlgFaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("fault.tlg");
    TlgWriteOptions wopts;
    wopts.orientations = {OrientSpec{PermutationKind::kDescending, 0}};
    ASSERT_TRUE(WriteTlgFile(SampleGraph(), path_, wopts).ok());
    bytes_ = Slurp(path_);
    ASSERT_GT(bytes_.size(), kHeaderSize);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Writes the (patched) image and asserts Open fails cleanly with the
  /// given substring in the error message.
  void ExpectOpenFails(const std::string& what) {
    Spit(path_, bytes_);
    auto t = TlgFile::Open(path_);
    ASSERT_FALSE(t.ok()) << "expected failure: " << what;
    EXPECT_NE(t.status().message().find(what), std::string::npos)
        << "got: " << t.status().ToString();
  }

  std::string path_;
  std::vector<unsigned char> bytes_;
};

TEST_F(TlgFaultInjectionTest, ZeroLengthFile) {
  bytes_.clear();
  ExpectOpenFails("shorter than the 40-byte header");
}

TEST_F(TlgFaultInjectionTest, TruncatedHeader) {
  bytes_.resize(kHeaderSize / 2);
  ExpectOpenFails("shorter than the 40-byte header");
}

TEST_F(TlgFaultInjectionTest, WrongMagic) {
  bytes_[0] ^= 0xFF;
  ExpectOpenFails("bad magic");
}

TEST_F(TlgFaultInjectionTest, UnsupportedVersion) {
  WriteAt<uint32_t>(&bytes_, 8, 99);
  ExpectOpenFails("unsupported .tlg version");
}

TEST_F(TlgFaultInjectionTest, TruncatedSectionTable) {
  bytes_.resize(kHeaderSize + kEntrySize - 4);
  ExpectOpenFails("section table extends past end of file");
}

TEST_F(TlgFaultInjectionTest, TruncatedPayload) {
  bytes_.resize(bytes_.size() * 3 / 5);
  ExpectOpenFails("extends past end of file");
}

TEST_F(TlgFaultInjectionTest, CorruptedSectionTableCrc) {
  bytes_[kHeaderSize + 4] ^= 0x01;  // flip a bit inside the table
  ExpectOpenFails("section table CRC mismatch");
}

TEST_F(TlgFaultInjectionTest, CorruptedPayloadCrc) {
  // Flip a byte in the last section's payload without fixing its CRC.
  const size_t entry = kHeaderSize;
  const auto offset = ReadAt<uint64_t>(bytes_, entry + kEntryOffsetOff);
  bytes_[offset + 3] ^= 0xFF;
  ExpectOpenFails("CRC mismatch");
}

TEST_F(TlgFaultInjectionTest, OversizedSectionOffset) {
  const size_t entry = kHeaderSize + kEntrySize;  // csr_neighbors
  WriteAt<uint64_t>(&bytes_, entry + kEntryOffsetOff,
                    uint64_t{1} << 60);  // aligned but far out of range
  const auto count = ReadAt<uint32_t>(bytes_, 12);
  WriteAt<uint32_t>(&bytes_, kHeaderTableCrcOff,
                    Crc32Update(0, bytes_.data() + kHeaderSize,
                                count * kEntrySize));
  ExpectOpenFails("section extends past end of file");
}

TEST_F(TlgFaultInjectionTest, ForgedHugeEdgeCountRejectedBeforeLengthMath) {
  // num_edges = 2^61 makes `2 * m * sizeof(NodeId)` wrap to 0 mod 2^64.
  // Paired with a zero-length csr_neighbors section and recomputed CRCs
  // (checksums are attacker-forgeable), every length and checksum test
  // would pass and the loader would build a ~2^62-element view over an
  // empty payload. The impossible count must be rejected up front.
  WriteAt<uint64_t>(&bytes_, 24, uint64_t{1} << 61);  // header num_edges
  const size_t entry = kHeaderSize + kEntrySize;  // csr_neighbors
  WriteAt<uint64_t>(&bytes_, entry + kEntryLengthOff, uint64_t{0});
  WriteAt<uint32_t>(&bytes_, entry + kEntryCrcOff,
                    Crc32Update(0, bytes_.data(), 0));
  const auto count = ReadAt<uint32_t>(bytes_, 12);
  WriteAt<uint32_t>(&bytes_, kHeaderTableCrcOff,
                    Crc32Update(0, bytes_.data() + kHeaderSize,
                                count * kEntrySize));
  ExpectOpenFails("edge count impossible for file size");
}

TEST_F(TlgFaultInjectionTest, ForgedHugeNodeCountRejectedBeforeLengthMath) {
  // Within the 32-bit ID space but needing a 16 GiB offsets section —
  // impossible for this file, and rejected before any length arithmetic.
  WriteAt<uint64_t>(&bytes_, 16, uint64_t{1} << 31);  // header num_nodes
  ExpectOpenFails("node count impossible for file size");
}

TEST_F(TlgFaultInjectionTest, MisalignedSectionOffset) {
  const size_t entry = kHeaderSize + kEntrySize;
  const auto offset = ReadAt<uint64_t>(bytes_, entry + kEntryOffsetOff);
  WriteAt<uint64_t>(&bytes_, entry + kEntryOffsetOff, offset + 4);
  const auto count = ReadAt<uint32_t>(bytes_, 12);
  WriteAt<uint32_t>(&bytes_, kHeaderTableCrcOff,
                    Crc32Update(0, bytes_.data() + kHeaderSize,
                                count * kEntrySize));
  ExpectOpenFails("not 8-byte aligned");
}

TEST_F(TlgFaultInjectionTest, NeighborOutOfRangeSurvivesCrcFixup) {
  // Patch a neighbor ID to garbage AND repair both CRCs: the structural
  // validator, not the checksum, must catch it.
  const size_t entry = kHeaderSize + kEntrySize;  // csr_neighbors
  const auto offset = ReadAt<uint64_t>(bytes_, entry + kEntryOffsetOff);
  WriteAt<uint32_t>(&bytes_, offset, 0xFFFFFFF0u);
  FixUpCrcs(&bytes_, 1);
  ExpectOpenFails("neighbor out of range");
}

TEST(TlgMiscTest, MissingFileAndNonTlgFile) {
  EXPECT_FALSE(TlgFile::Open("/nonexistent/missing.tlg").ok());
  EXPECT_FALSE(LooksLikeTlgFile("/nonexistent/missing.tlg"));
  const std::string path = TempPath("not_a_tlg.txt");
  std::ofstream(path) << "0 1\n";
  EXPECT_FALSE(LooksLikeTlgFile(path));
  EXPECT_FALSE(TlgFile::Open(path).ok());
  std::remove(path.c_str());
}

TEST(MmapFileTest, MapsAndFallsBackIdentically) {
  const std::string path = TempPath("mmap_probe.bin");
  std::ofstream(path, std::ios::binary) << "hello mmap world";
  auto mapped = MmapFile::Open(path, MmapFile::Backing::kMmap);
  auto read = MmapFile::Open(path, MmapFile::Backing::kRead);
  ASSERT_TRUE(mapped.ok());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(mapped->is_mapped());
  EXPECT_FALSE(read->is_mapped());
  ASSERT_EQ(mapped->size(), read->size());
  EXPECT_EQ(std::memcmp(mapped->bytes().data(), read->bytes().data(),
                        read->size()),
            0);
  std::remove(path.c_str());
  EXPECT_FALSE(MmapFile::Open("/nonexistent/nope").ok());
  EXPECT_FALSE(MmapFile::Open("/tmp").ok());  // directories rejected
}

}  // namespace
}  // namespace trilist
