#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/algo/cost.h"
#include "src/dyn/dyn_graph.h"
#include "src/dyn/mutation_log.h"
#include "src/graph/graph.h"
#include "src/serve/client.h"
#include "src/serve/net.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/wire.h"

/// \file dyn_serve_test.cpp
/// The dynamic-graph serving surface: kMutate wire codec (including the
/// adversarial decode matrix — forged counts, truncation, unknown
/// opcodes), the epoch/COW view lifecycle through a live server, and the
/// mutate/query interleaving that TSan exercises in CI (`-L dyn`).

namespace trilist::serve {
namespace {

// ---------------------------------------------------------------------------
// Fixtures (same conventions as serve_test.cpp: per-test tmpdir names so
// parallel ctest invocations never collide).

/// K4 on {0..3} (4 triangles) plus the pendant path 3-4-5.
std::string WriteK4File(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fprintf(f, "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 5\n");
  std::fclose(f);
  return path;
}

std::unique_ptr<TriangleServer> StartUnixServer(
    const std::string& test_name,
    const std::map<std::string, std::string>& named, ServerOptions options) {
  options.unix_path = ::testing::TempDir() + "trilist_dyn_" + test_name +
                      "_" + std::to_string(::getpid()) + ".sock";
  ::unlink(options.unix_path.c_str());
  options.catalog.named = named;
  auto server = TriangleServer::Start(options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).ValueOrDie();
}

ServeClient MustConnect(const TriangleServer& server) {
  auto client = ServeClient::ConnectUnix(server.unix_path());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return std::move(client).ValueOrDie();
}

MutateRequest Ops(const std::string& graph,
                  std::vector<dyn::EdgeMutation> ops) {
  MutateRequest request;
  request.graph = graph;
  request.ops = std::move(ops);
  return request;
}

// ---------------------------------------------------------------------------
// Mutate wire codec: round trips

TEST(MutateCodecTest, RequestRoundTrips) {
  const MutateRequest request =
      Ops("web", {{0, 1, true}, {7, 2, false}, {1u << 30, 5, true}});
  const std::string payload = EncodeMutateRequest(request);

  MsgType type;
  std::string body;
  ASSERT_TRUE(DecodeHeader(payload, &type, &body).ok());
  EXPECT_EQ(type, MsgType::kMutate);

  MutateRequest decoded;
  ASSERT_TRUE(DecodeMutateRequest(body, &decoded).ok());
  EXPECT_EQ(decoded.graph, "web");
  EXPECT_EQ(decoded.ops, request.ops);
}

TEST(MutateCodecTest, ReplyRoundTrips) {
  MutateReply reply;
  reply.epoch = 3;
  reply.seq = 1234;
  reply.applied_inserts = 10;
  reply.applied_deletes = 2;
  reply.noops = 1;
  reply.triangles = 42;
  reply.num_nodes = 100;
  reply.num_edges = 250;
  reply.overlay_arcs = 24;
  reply.compacted = 1;
  reply.predicted_ops = 96.5;
  reply.wall_s = 0.125;

  const std::string payload = EncodeMutateReply(reply);
  MsgType type;
  std::string body;
  ASSERT_TRUE(DecodeHeader(payload, &type, &body).ok());
  EXPECT_EQ(type, MsgType::kMutateOk);

  MutateReply decoded;
  ASSERT_TRUE(DecodeMutateReply(body, &decoded).ok());
  EXPECT_EQ(decoded.epoch, 3u);
  EXPECT_EQ(decoded.seq, 1234u);
  EXPECT_EQ(decoded.triangles, 42u);
  EXPECT_EQ(decoded.overlay_arcs, 24u);
  EXPECT_EQ(decoded.compacted, 1);
  EXPECT_EQ(decoded.predicted_ops, 96.5);
}

// ---------------------------------------------------------------------------
// Adversarial decode matrix: every hostile frame shape is rejected with
// a typed error, and never with an allocation proportional to what the
// frame *claims* (only to what it carries).

TEST(MutateCodecTest, UnknownOpcodeIsRejectedByTheHeader) {
  for (const uint16_t raw : {uint16_t{10}, uint16_t{999}, uint16_t{0xffff},
                             uint16_t{0}}) {
    WireWriter w;
    w.U32(kFrameMagic);
    w.U16(kProtocolVersion);
    w.U16(raw);
    const std::string payload = std::move(w).Take();
    MsgType type;
    std::string body;
    const Status st = DecodeHeader(payload, &type, &body);
    EXPECT_FALSE(st.ok()) << "accepted opcode " << raw;
  }
}

TEST(MutateCodecTest, EveryTruncatedFramePrefixIsRejected) {
  const std::string payload =
      EncodeMutateRequest(Ops("k4", {{0, 1, true}, {2, 3, false}}));
  MsgType type;
  std::string body;
  ASSERT_TRUE(DecodeHeader(payload, &type, &body).ok());

  MutateRequest decoded;
  ASSERT_TRUE(DecodeMutateRequest(body, &decoded).ok());  // intact: fine
  for (size_t len = 0; len < body.size(); ++len) {
    MutateRequest scratch;
    EXPECT_FALSE(DecodeMutateRequest(body.substr(0, len), &scratch).ok())
        << "prefix length " << len;
  }
}

TEST(MutateCodecTest, ForgedCountIsRejectedBeforeAnyReserve) {
  // Claims the maximum legal batch but carries two ops' worth of bytes:
  // the decoder must bounce it off Remaining() before reserving.
  WireWriter w;
  w.Str("k4");
  w.U32(kMaxMutationsPerFrame);
  w.U8(1);
  w.U32(0);
  w.U32(1);
  const std::string body = std::move(w).Take();

  MutateRequest request;
  const Status st = DecodeMutateRequest(body, &request);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("exceeds frame body"), std::string::npos)
      << st.message();
  // No allocation proportional to the declared million ops.
  EXPECT_EQ(request.ops.capacity(), 0u);
}

TEST(MutateCodecTest, CountOutsideTheLegalRangeIsRejected) {
  for (const uint32_t count : {uint32_t{0}, kMaxMutationsPerFrame + 1}) {
    WireWriter w;
    w.Str("k4");
    w.U32(count);
    const std::string body = std::move(w).Take();
    MutateRequest request;
    const Status st = DecodeMutateRequest(body, &request);
    ASSERT_FALSE(st.ok()) << "accepted count " << count;
    EXPECT_NE(st.message().find("out of range"), std::string::npos);
  }
}

TEST(MutateCodecTest, ZeroLengthGraphNameIsRejected) {
  WireWriter w;
  w.Str("");
  w.U32(1);
  w.U8(1);
  w.U32(0);
  w.U32(1);
  const std::string body = std::move(w).Take();
  MutateRequest request;
  const Status st = DecodeMutateRequest(body, &request);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("empty graph name"), std::string::npos);
}

TEST(MutateCodecTest, BadOpByteAndSelfLoopAndTrailingBytesAreRejected) {
  const auto one_op_body = [](uint8_t op, uint32_t u, uint32_t v,
                              const std::string& trailing) {
    WireWriter w;
    w.Str("k4");
    w.U32(1);
    w.U8(op);
    w.U32(u);
    w.U32(v);
    std::string body = std::move(w).Take();
    body += trailing;
    return body;
  };
  MutateRequest request;
  EXPECT_FALSE(DecodeMutateRequest(one_op_body(2, 0, 1, ""), &request).ok());
  EXPECT_FALSE(DecodeMutateRequest(one_op_body(1, 4, 4, ""), &request).ok());
  EXPECT_FALSE(DecodeMutateRequest(one_op_body(1, 0, 1, "x"), &request).ok());
  EXPECT_TRUE(DecodeMutateRequest(one_op_body(1, 0, 1, ""), &request).ok());
}

// ---------------------------------------------------------------------------
// Live server: the epoch lifecycle

TEST(DynServeTest, MutateBumpsEpochAndMaintainsTheExactCount) {
  const std::string path = WriteK4File("dyn_mutate_k4.txt");
  auto server = StartUnixServer("mutate", {{"k4", path}}, ServerOptions{});
  ServeClient client = MustConnect(*server);

  // Closing the wedge 3-4-5 adds one triangle to the K4's four.
  auto reply = client.Mutate(Ops("k4", {{3, 5, true}}));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->epoch, 1u);
  EXPECT_EQ(reply->seq, 1u);
  EXPECT_EQ(reply->applied_inserts, 1u);
  EXPECT_EQ(reply->triangles, 5u);
  EXPECT_EQ(reply->num_edges, 9u);
  EXPECT_GT(reply->predicted_ops, 0.0);

  // A second batch: one delete plus one noop re-insert.
  reply = client.Mutate(Ops("k4", {{0, 1, false}, {2, 3, true}}));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->epoch, 2u);
  EXPECT_EQ(reply->seq, 3u);
  EXPECT_EQ(reply->applied_deletes, 1u);
  EXPECT_EQ(reply->noops, 1u);
  EXPECT_EQ(reply->triangles, 3u);  // 0-1 supported two K4 triangles

  const ServerStats stats = server->StatsSnapshot();
  EXPECT_EQ(stats.mutations_total, 2u);
  EXPECT_EQ(stats.mutate_ok, 2u);
}

TEST(DynServeTest, QueryAfterMutateSeesTheNewEpoch) {
  const std::string path = WriteK4File("dyn_qam_k4.txt");
  auto server = StartUnixServer("qam", {{"k4", path}}, ServerOptions{});
  ServeClient client = MustConnect(*server);

  QueryRequest query;
  query.graph = "k4";
  query.orient = OrientSpec{PermutationKind::kDescending, 1};
  query.methods = {Method::kT1, Method::kT2};

  auto before = client.Query(query);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  for (const MethodResult& m : before->methods) EXPECT_EQ(m.triangles, 4u);

  auto reply = client.Mutate(Ops("k4", {{3, 5, true}, {0, 4, true}}));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->triangles, 6u);  // wedges 3-4-5 and 0-3-4 both closed

  // The same spec against the new epoch: the cached epoch-0 orientation
  // must be invalidated, not served stale.
  auto after = client.Query(query);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->num_edges, 10u);
  for (const MethodResult& m : after->methods) {
    EXPECT_EQ(m.triangles, 6u) << MethodName(m.method);
  }
}

TEST(DynServeTest, MutateUnknownGraphIsNotFound) {
  const std::string path = WriteK4File("dyn_notfound_k4.txt");
  auto server = StartUnixServer("notfound", {{"k4", path}}, ServerOptions{});
  ServeClient client = MustConnect(*server);

  auto reply = client.Mutate(Ops("nope", {{0, 1, true}}));
  ASSERT_FALSE(reply.ok());
  ASSERT_TRUE(client.last_failure_was_reply());
  EXPECT_EQ(client.last_error().code, ErrorCode::kNotFound);
}

TEST(DynServeTest, MalformedMutateBodyIsBadRequestAndKeepsTheConnection) {
  const std::string path = WriteK4File("dyn_badreq_k4.txt");
  auto server = StartUnixServer("badreq", {{"k4", path}}, ServerOptions{});

  // Raw socket: a mutate frame whose single op is a self-loop.
  auto fd = ConnectUnix(server->unix_path());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  WireWriter w;
  w.U32(kFrameMagic);
  w.U16(kProtocolVersion);
  w.U16(static_cast<uint16_t>(MsgType::kMutate));
  w.Str("k4");
  w.U32(1);
  w.U8(1);
  w.U32(4);
  w.U32(4);
  ASSERT_TRUE(SendFrame(*fd, std::move(w).Take()).ok());

  std::string response;
  bool eof = false;
  ASSERT_TRUE(RecvFrame(*fd, &response, &eof).ok());
  ASSERT_FALSE(eof);
  MsgType type;
  std::string body;
  ASSERT_TRUE(DecodeHeader(response, &type, &body).ok());
  ASSERT_EQ(type, MsgType::kError);
  ErrorReply error;
  ASSERT_TRUE(DecodeError(body, &error).ok());
  EXPECT_EQ(error.code, ErrorCode::kBadRequest);

  // The header parsed, so the server keeps the stream: a well-formed
  // frame on the same connection still succeeds.
  WireWriter ping;
  ping.U32(kFrameMagic);
  ping.U16(kProtocolVersion);
  ping.U16(static_cast<uint16_t>(MsgType::kPing));
  ASSERT_TRUE(SendFrame(*fd, std::move(ping).Take()).ok());
  ASSERT_TRUE(RecvFrame(*fd, &response, &eof).ok());
  ASSERT_TRUE(DecodeHeader(response, &type, &body).ok());
  EXPECT_EQ(type, MsgType::kPong);
  CloseFd(*fd);
}

TEST(DynServeTest, CompactionUnderServeKeepsCountsExact) {
  const std::string path = WriteK4File("dyn_compact_k4.txt");
  ServerOptions options;
  // Hair-trigger compaction: every batch that leaves overlay arcs
  // behind compacts immediately.
  options.catalog.compact_overlay_fraction = 1e-9;
  options.catalog.compact_min_arcs = 1;
  auto server = StartUnixServer("compact", {{"k4", path}}, options);
  ServeClient client = MustConnect(*server);

  auto reply = client.Mutate(Ops("k4", {{3, 5, true}}));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->compacted, 1);
  EXPECT_EQ(reply->overlay_arcs, 0u);
  EXPECT_EQ(reply->triangles, 5u);

  // Counts stay exact across the rebase, against both the maintained
  // counter and a served query.
  reply = client.Mutate(Ops("k4", {{0, 1, false}}));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->triangles, 3u);

  QueryRequest query;
  query.graph = "k4";
  query.methods = {Method::kT1};
  auto response = client.Query(query);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->methods.front().triangles, 3u);
  EXPECT_GE(server->StatsSnapshot().catalog.compactions, 1u);
}

TEST(DynServeTest, PrometheusExportsMutationCountersAndEpochGauges) {
  const std::string path = WriteK4File("dyn_prom_k4.txt");
  auto server = StartUnixServer("prom", {{"k4", path}}, ServerOptions{});
  ServeClient client = MustConnect(*server);

  ASSERT_TRUE(client.Mutate(Ops("k4", {{3, 5, true}, {3, 5, true}})).ok());

  auto text = client.Stats();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  for (const std::string& needle : {
           std::string("trilist_serve_mutations_total 1"),
           std::string("trilist_serve_mutate_ok_total 1"),
           std::string("trilist_serve_mutations_applied_total 1"),
           std::string("trilist_serve_mutation_noops_total 1"),
           std::string("trilist_serve_graph_epoch{graph=\"k4\"} 1"),
           std::string("trilist_serve_graph_seq{graph=\"k4\"} 2"),
           std::string("trilist_serve_graph_triangles{graph=\"k4\"} 5"),
           std::string("trilist_serve_mutation_latency_seconds"),
       }) {
    EXPECT_NE(text->find(needle), std::string::npos)
        << "missing: " << needle << "\n"
        << *text;
  }
}

// ---------------------------------------------------------------------------
// Concurrency: the TSan surface for the COW epoch swap. Writers push
// disjoint edge sets while readers query the same entry; every reply
// must be internally consistent and the final state is deterministic.

TEST(DynServeTest, ConcurrentMutationsAndQueriesConverge) {
  const std::string path = WriteK4File("dyn_race_k4.txt");
  ServerOptions options;
  options.workers = 4;
  options.max_queue = 256;
  auto server = StartUnixServer("race", {{"k4", path}}, options);

  // Two writers on disjoint ID ranges (so the final edge set does not
  // depend on interleaving) plus two query readers.
  constexpr int kBatches = 8;
  constexpr int kPerBatch = 4;
  std::atomic<bool> failed{false};
  const auto writer = [&](NodeId base) {
    ServeClient client = MustConnect(*server);
    for (int b = 0; b < kBatches && !failed.load(); ++b) {
      std::vector<dyn::EdgeMutation> ops;
      for (int i = 0; i < kPerBatch; ++i) {
        const NodeId u = base + static_cast<NodeId>(b * kPerBatch + i);
        ops.push_back({u, u + 1, true});
      }
      auto reply = client.Mutate(Ops("k4", ops));
      if (!reply.ok()) {
        ADD_FAILURE() << reply.status().ToString();
        failed.store(true);
      }
    }
  };
  const auto reader = [&] {
    ServeClient client = MustConnect(*server);
    QueryRequest query;
    query.graph = "k4";
    query.methods = {Method::kT1};
    for (int i = 0; i < 12 && !failed.load(); ++i) {
      auto response = client.Query(query);
      if (!response.ok()) {
        // Backpressure is a legal outcome under load; anything else is
        // a bug.
        if (!(client.last_failure_was_reply() &&
              client.last_error().code == ErrorCode::kOverloaded)) {
          ADD_FAILURE() << response.status().ToString();
          failed.store(true);
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(writer, NodeId{100});
  threads.emplace_back(writer, NodeId{300});
  threads.emplace_back(reader);
  threads.emplace_back(reader);
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load());

  // Deterministic final state: the base K4 component plus two disjoint
  // paths — same triangle count (4), known node/edge totals.
  ServeClient client = MustConnect(*server);
  QueryRequest query;
  query.graph = "k4";
  query.methods = {Method::kT1, Method::kT2};
  auto response = client.Query(query);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->num_edges, 8u + 2 * kBatches * kPerBatch);
  for (const MethodResult& m : response->methods) {
    EXPECT_EQ(m.triangles, 4u);
  }
}

}  // namespace
}  // namespace trilist::serve
