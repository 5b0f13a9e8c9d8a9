#include <dirent.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/graph/binfmt.h"
#include "src/graph/io.h"
#include "src/run/run_spec.h"
#include "src/run/runner.h"
#include "src/serve/catalog.h"
#include "src/serve/client.h"
#include "src/serve/latency_histogram.h"
#include "src/serve/net.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/serve/wire.h"

namespace trilist::serve {
namespace {

// ---------------------------------------------------------------------------
// Wire codec

TEST(WireTest, RoundTripsAllTypes) {
  WireWriter w;
  w.U8(7);
  w.U16(65535);
  w.U32(0xdeadbeef);
  w.U64(1ull << 60);
  w.I64(-42);
  w.F64(3.25);
  w.Str("hello");
  const std::string bytes = std::move(w).Take();

  WireReader r(bytes);
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double f64;
  std::string s;
  ASSERT_TRUE(r.U8(&u8).ok());
  ASSERT_TRUE(r.U16(&u16).ok());
  ASSERT_TRUE(r.U32(&u32).ok());
  ASSERT_TRUE(r.U64(&u64).ok());
  ASSERT_TRUE(r.I64(&i64).ok());
  ASSERT_TRUE(r.F64(&f64).ok());
  ASSERT_TRUE(r.Str(&s).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u16, 65535);
  EXPECT_EQ(u32, 0xdeadbeef);
  EXPECT_EQ(u64, 1ull << 60);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f64, 3.25);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(WireTest, RejectsTruncationAndTrailingBytes) {
  WireWriter w;
  w.U32(123);
  const std::string bytes = std::move(w).Take();

  // Every strict prefix fails the read without touching out-of-bounds
  // memory (the discipline shared with the .tlg loader).
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::string prefix = bytes.substr(0, len);
    WireReader r(prefix);
    uint32_t v;
    EXPECT_FALSE(r.U32(&v).ok()) << "prefix length " << len;
  }
  const std::string extended = bytes + "x";
  WireReader r(extended);
  uint32_t v;
  ASSERT_TRUE(r.U32(&v).ok());
  EXPECT_FALSE(r.ExpectEnd().ok());
}

TEST(WireTest, RejectsOversizedString) {
  // A forged length prefix must not trigger a giant allocation: the
  // reader rejects it against both the cap and the remaining bytes.
  WireWriter w;
  w.U32(0x7fffffff);  // string length claiming 2 GiB
  const std::string bytes = std::move(w).Take();
  WireReader r(bytes);
  std::string s;
  EXPECT_FALSE(r.Str(&s).ok());
}

// ---------------------------------------------------------------------------
// Protocol framing

TEST(ProtocolTest, QueryRequestRoundTrips) {
  QueryRequest request;
  request.graph = "web";
  request.orient = OrientSpec{PermutationKind::kUniform, 99};
  request.methods = {Method::kT1, Method::kE4};
  request.threads = 4;
  request.repeats = 3;

  const std::string payload = EncodeQueryRequest(request);
  MsgType type;
  std::string body;
  ASSERT_TRUE(DecodeHeader(payload, &type, &body).ok());
  EXPECT_EQ(type, MsgType::kQuery);

  QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryRequest(body, &decoded).ok());
  EXPECT_EQ(decoded.graph, "web");
  EXPECT_EQ(decoded.orient.kind, PermutationKind::kUniform);
  EXPECT_EQ(decoded.orient.seed, 99u);
  EXPECT_EQ(decoded.methods, request.methods);
  EXPECT_EQ(decoded.threads, 4);
  EXPECT_EQ(decoded.repeats, 3);
}

TEST(ProtocolTest, QueryResponseRoundTrips) {
  QueryResponse response;
  response.num_nodes = 10;
  response.num_edges = 20;
  response.catalog_hit = true;
  response.orientation_cached = true;
  response.predicted_cost = 123.5;
  response.queue_wait_s = 0.25;
  response.stages = {{"load", 0.0}, {"list", 0.125}};
  MethodResult m;
  m.method = Method::kE1;
  m.triangles = 42;
  m.paper_ops = 1000;
  m.formula_cost = 990.5;
  m.wall_s = 0.125;
  m.parallel = true;
  response.methods.push_back(m);
  response.report_json = "{\"x\": 1}\n";

  const std::string payload = EncodeQueryResponse(response);
  MsgType type;
  std::string body;
  ASSERT_TRUE(DecodeHeader(payload, &type, &body).ok());
  EXPECT_EQ(type, MsgType::kQueryOk);

  QueryResponse decoded;
  ASSERT_TRUE(DecodeQueryResponse(body, &decoded).ok());
  EXPECT_EQ(decoded.num_nodes, 10u);
  EXPECT_EQ(decoded.num_edges, 20u);
  EXPECT_TRUE(decoded.catalog_hit);
  EXPECT_TRUE(decoded.orientation_cached);
  EXPECT_EQ(decoded.predicted_cost, 123.5);
  EXPECT_EQ(decoded.queue_wait_s, 0.25);
  ASSERT_EQ(decoded.stages.size(), 2u);
  EXPECT_EQ(decoded.stages[1].name, "list");
  EXPECT_EQ(decoded.stages[1].wall_s, 0.125);
  ASSERT_EQ(decoded.methods.size(), 1u);
  EXPECT_EQ(decoded.methods[0].method, Method::kE1);
  EXPECT_EQ(decoded.methods[0].triangles, 42u);
  EXPECT_TRUE(decoded.methods[0].parallel);
  EXPECT_EQ(decoded.report_json, "{\"x\": 1}\n");
}

TEST(ProtocolTest, HeaderRejectsBadMagicVersionAndTruncation) {
  const std::string payload = EncodeEmpty(MsgType::kPing);
  MsgType type;
  std::string body;
  ASSERT_TRUE(DecodeHeader(payload, &type, &body).ok());
  EXPECT_EQ(type, MsgType::kPing);

  std::string bad_magic = payload;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeHeader(bad_magic, &type, &body).ok());

  std::string bad_version = payload;
  bad_version[4] = 9;  // little-endian version word
  EXPECT_FALSE(DecodeHeader(bad_version, &type, &body).ok());

  for (size_t len = 0; len < 8; ++len) {
    EXPECT_FALSE(DecodeHeader(payload.substr(0, len), &type, &body).ok());
  }
}

TEST(ProtocolTest, BodyDecodersRejectTruncationAndTrailingBytes) {
  QueryRequest request;
  request.graph = "g";
  const std::string payload = EncodeQueryRequest(request);
  MsgType type;
  std::string body;
  ASSERT_TRUE(DecodeHeader(payload, &type, &body).ok());

  QueryRequest decoded;
  for (size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(DecodeQueryRequest(body.substr(0, len), &decoded).ok())
        << "prefix length " << len;
  }
  EXPECT_FALSE(DecodeQueryRequest(body + std::string(1, '\0'), &decoded).ok());
}

TEST(ProtocolTest, RejectsOutOfRangeEnums) {
  QueryRequest request;
  request.graph = "g";
  const std::string payload = EncodeQueryRequest(request);
  MsgType type;
  std::string body;
  ASSERT_TRUE(DecodeHeader(payload, &type, &body).ok());
  QueryRequest decoded;

  // Body layout: graph str, u8 order, u64 seed, u32 count, u8 methods,
  // i64 threads, i64 repeats. The single method code sits 17 bytes from
  // the end; the order code right after the 5-byte graph string.
  std::string bad_method = body;
  bad_method[bad_method.size() - 17] = static_cast<char>(0xff);
  EXPECT_FALSE(DecodeQueryRequest(bad_method, &decoded).ok());

  std::string bad_order = body;
  bad_order[5] = static_cast<char>(0xff);
  EXPECT_FALSE(DecodeQueryRequest(bad_order, &decoded).ok());
}

// ---------------------------------------------------------------------------
// Latency histogram

TEST(LatencyHistogramTest, CumulativeCountsAndQuantiles) {
  LatencyHistogram h;
  h.Observe(0.00005);  // first bucket (le 1e-4)
  h.Observe(0.0003);
  h.Observe(0.01);
  h.Observe(1e9);  // beyond the last finite bucket -> +Inf
  EXPECT_EQ(h.TotalCount(), 4u);
  EXPECT_EQ(h.CumulativeCount(0), 1u);
  EXPECT_EQ(h.CumulativeCount(LatencyHistogram::kNumFiniteBuckets), 4u);
  EXPECT_NEAR(h.Sum(), 0.00035 + 0.01 + 1e9, 1e-6 * 1e9);
  // The median upper bound sits at or above the second observation.
  EXPECT_GE(h.QuantileUpperBound(0.5), 0.0003);
  EXPECT_LE(h.QuantileUpperBound(0.25), 1e-4 + 1e-12);
}

// ---------------------------------------------------------------------------
// Server fixtures

/// Writes a small deterministic edge list: a K4 on {0..3} (4 triangles)
/// plus a pendant path so degrees are not uniform.
std::string WriteK4File(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fprintf(f, "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n3 4\n4 5\n");
  std::fclose(f);
  return path;
}

/// Writes a larger graph (two K6 blocks sharing no vertex, 40 triangles)
/// used as the "expensive" job in scheduling tests.
std::string WriteTwoK6File(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  for (int base : {0, 6}) {
    for (int i = 0; i < 6; ++i) {
      for (int j = i + 1; j < 6; ++j) {
        std::fprintf(f, "%d %d\n", base + i, base + j);
      }
    }
  }
  std::fclose(f);
  return path;
}

/// Starts a unix-socket server over the given named graphs. Each test
/// gets its own socket path (per-test tmpdir naming keeps parallel ctest
/// invocations from colliding).
std::unique_ptr<TriangleServer> StartUnixServer(
    const std::string& test_name,
    const std::map<std::string, std::string>& named, ServerOptions options) {
  options.unix_path = ::testing::TempDir() + "trilist_" + test_name + "_" +
                      std::to_string(::getpid()) + ".sock";
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

double StageWallOf(const QueryResponse& response, const std::string& name) {
  for (const StageWall& s : response.stages) {
    if (s.name == name) return s.wall_s;
  }
  return -1;
}

// Acceptance (a): a warm-catalog query skips the load and orient stages
// (observable as zero stage walls in the response) and its triangle
// counts are bit-identical to the offline pipeline on the same spec.
TEST(ServerTest, WarmCatalogSkipsLoadAndOrientWithIdenticalCounts) {
  const std::string path = WriteK4File("warm_k4.txt");
  auto server = StartUnixServer("warm", {{"k4", path}}, ServerOptions{});

  QueryRequest request;
  request.graph = "k4";
  request.orient = OrientSpec{PermutationKind::kDescending, 1};
  request.methods = {Method::kT1, Method::kT2, Method::kE1, Method::kE4};

  ServeClient client = MustConnect(*server);
  auto cold = client.Query(request);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold->catalog_hit);
  EXPECT_GT(StageWallOf(*cold, "load"), 0.0);

  auto warm = client.Query(request);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(warm->catalog_hit);
  EXPECT_TRUE(warm->orientation_cached);
  EXPECT_EQ(StageWallOf(*warm, "load"), 0.0);
  EXPECT_EQ(StageWallOf(*warm, "order"), 0.0);
  EXPECT_EQ(StageWallOf(*warm, "orient"), 0.0);

  // Reference counts from the offline engine on the identical spec.
  RunSpec spec;
  spec.source = GraphSource::FromFile(path);
  spec.orient = request.orient;
  spec.methods = request.methods;
  auto reference = RunPipeline(spec);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(warm->methods.size(), reference->methods.size());
  for (size_t i = 0; i < warm->methods.size(); ++i) {
    EXPECT_EQ(warm->methods[i].triangles, reference->methods[i].triangles);
    EXPECT_EQ(warm->methods[i].paper_ops,
              static_cast<double>(reference->methods[i].ops.PaperCost()));
    EXPECT_EQ(warm->methods[i].triangles, cold->methods[i].triangles);
  }
  EXPECT_EQ(warm->methods[0].triangles, 4u);  // K4 has exactly 4 triangles
}

// A paged catalog (ServerOptions::catalog.paged) serves `.tlg` graphs
// demand-paged with counts identical to the eagerly-loaded path.
TEST(ServerTest, PagedCatalogServesIdenticalCounts) {
  const std::string text = WriteK4File("paged_k4.txt");
  auto graph = ReadEdgeListFile(text);
  ASSERT_TRUE(graph.ok());
  const std::string tlg = ::testing::TempDir() + "/paged_k4.tlg";
  TlgWriteOptions wopts;
  wopts.orientations = {OrientSpec{PermutationKind::kDescending, 1}};
  ASSERT_TRUE(WriteTlgFile(*graph, tlg, wopts).ok());

  ServerOptions options;
  options.catalog.paged = true;
  auto server = StartUnixServer("paged", {{"k4", tlg}}, options);

  QueryRequest request;
  request.graph = "k4";
  request.orient = OrientSpec{PermutationKind::kDescending, 1};
  request.methods = {Method::kT1, Method::kE1};

  ServeClient client = MustConnect(*server);
  auto response = client.Query(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->orientation_cached);
  ASSERT_EQ(response->methods.size(), 2u);
  EXPECT_EQ(response->methods[0].triangles, 4u);
  EXPECT_EQ(response->methods[1].triangles, 4u);
}

// Acceptance (b): a full admission queue produces an explicit
// backpressure rejection, not a hang.
TEST(ServerTest, FullQueueRejectsWithBackpressure) {
  const std::string path = WriteK4File("busy_k4.txt");
  ServerOptions options;
  options.workers = 1;
  options.max_queue = 1;
  options.debug_exec_delay_s = 0.5;
  auto server = StartUnixServer("busy", {{"k4", path}}, options);

  QueryRequest request;
  request.graph = "k4";

  // Saturate deterministically: send the first query and wait until the
  // worker holds it, then send the second so it lands in the single
  // queue slot (stats polling instead of fixed sleeps keeps this stable
  // under parallel ctest load). EXPECTs, not ASSERTs: the threads must
  // be joined on every exit path.
  std::atomic<int> ok_count{0};
  std::vector<std::thread> busy;
  const auto query_once = [&server, &request, &ok_count] {
    ServeClient c = MustConnect(*server);
    if (c.Query(request).ok()) ++ok_count;
  };
  busy.emplace_back(query_once);
  for (int i = 0; i < 400; ++i) {
    if (server->StatsSnapshot().in_flight >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server->StatsSnapshot().in_flight, 1u);
  busy.emplace_back(query_once);
  for (int i = 0; i < 400; ++i) {
    if (server->StatsSnapshot().requests_total >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server->StatsSnapshot().requests_total, 2u);

  ServeClient overflow = MustConnect(*server);
  auto rejected = overflow.Query(request);
  EXPECT_FALSE(rejected.ok());
  EXPECT_TRUE(overflow.last_failure_was_reply());
  EXPECT_EQ(overflow.last_error().code, ErrorCode::kOverloaded);

  for (std::thread& t : busy) t.join();
  EXPECT_EQ(ok_count.load(), 2);
  const ServerStats stats = server->StatsSnapshot();
  EXPECT_EQ(stats.rejected_overload, 1u);
  EXPECT_EQ(stats.responses_ok, 2u);
}

// Acceptance (c), in-process half: BeginDrain finishes the in-flight
// request, refuses new ones, and Wait() returns with all threads joined
// (the shell test covers the SIGTERM + exit-code half).
TEST(ServerTest, DrainFinishesInFlightAndRefusesNew) {
  const std::string path = WriteK4File("drain_k4.txt");
  ServerOptions options;
  options.workers = 1;
  options.debug_exec_delay_s = 0.2;
  auto server = StartUnixServer("drain", {{"k4", path}}, options);

  QueryRequest request;
  request.graph = "k4";

  std::atomic<bool> in_flight_ok{false};
  std::thread in_flight([&server, &request, &in_flight_ok] {
    ServeClient c = MustConnect(*server);
    in_flight_ok = c.Query(request).ok();
  });
  // A second connection opened before the drain begins: its query must
  // be refused with kDraining once the drain starts.
  ServeClient late = MustConnect(*server);
  for (int i = 0; i < 200; ++i) {
    if (server->StatsSnapshot().requests_total >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(server->StatsSnapshot().requests_total, 1u);

  server->BeginDrain();
  auto refused = late.Query(request);
  EXPECT_FALSE(refused.ok());
  if (late.last_failure_was_reply()) {
    EXPECT_EQ(late.last_error().code, ErrorCode::kDraining);
  }

  server->Wait();
  in_flight.join();
  EXPECT_TRUE(in_flight_ok.load());
  const ServerStats stats = server->StatsSnapshot();
  EXPECT_EQ(stats.responses_ok, 1u);
}

TEST(ServerTest, StatsExposeQueueCatalogAndLatency) {
  const std::string path = WriteK4File("stats_k4.txt");
  auto server = StartUnixServer("stats", {{"k4", path}}, ServerOptions{});

  ServeClient client = MustConnect(*server);
  QueryRequest request;
  request.graph = "k4";
  ASSERT_TRUE(client.Query(request).ok());
  ASSERT_TRUE(client.Query(request).ok());
  ASSERT_TRUE(client.Ping().ok());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const std::string& text = *stats;
  EXPECT_NE(text.find("trilist_serve_requests_total 2"), std::string::npos);
  EXPECT_NE(text.find("trilist_serve_responses_ok_total 2"),
            std::string::npos);
  EXPECT_NE(text.find("trilist_serve_catalog_loads_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("trilist_serve_catalog_hits_total 1"),
            std::string::npos);
  EXPECT_NE(text.find("trilist_serve_rejected_total{reason=\"overload\"} 0"),
            std::string::npos);
  // Histogram convention: cumulative buckets, then sum and count.
  EXPECT_NE(text.find("# TYPE trilist_serve_request_latency_seconds "
                      "histogram"),
            std::string::npos);
  EXPECT_NE(
      text.find("trilist_serve_request_latency_seconds_bucket{le=\"+Inf\"} "
                "2"),
      std::string::npos);
  EXPECT_NE(text.find("trilist_serve_request_latency_seconds_count 2"),
            std::string::npos);
  EXPECT_NE(
      text.find("trilist_serve_method_wall_seconds_count{method=\"E1\"} 2"),
      std::string::npos);
}

TEST(ServerTest, LruEvictionKeepsCapacityAndInFlightSafety) {
  const std::string k4 = WriteK4File("lru_k4.txt");
  const std::string k6 = WriteTwoK6File("lru_k6.txt");
  ServerOptions options;
  options.catalog.capacity = 1;
  auto server =
      StartUnixServer("lru", {{"k4", k4}, {"k6", k6}}, options);

  ServeClient client = MustConnect(*server);
  QueryRequest request;
  for (const char* name : {"k4", "k6", "k4", "k6"}) {
    request.graph = name;
    auto response = client.Query(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_FALSE(response->catalog_hit);  // capacity 1 evicts every swap
  }
  const ServerStats stats = server->StatsSnapshot();
  EXPECT_EQ(stats.catalog.resident, 1u);
  EXPECT_EQ(stats.catalog.loads, 4u);
  EXPECT_EQ(stats.catalog.evictions, 3u);
}

/// Open descriptors of this process (0 when /proc is unavailable).
size_t CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  size_t count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

/// Polls the stats snapshot until `predicate` holds (or ~2 s elapse).
template <typename Predicate>
bool WaitForStats(const TriangleServer& server, Predicate predicate) {
  for (int i = 0; i < 400; ++i) {
    if (predicate(server.StatsSnapshot())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

// Regression: a long-running daemon under connection churn must reclaim
// each connection's fd, registry entry and reader thread when the client
// disconnects — not hold them until shutdown (which exhausts
// RLIMIT_NOFILE under e.g. a per-scrape monitoring poller).
TEST(ServerTest, ConnectionChurnReclaimsFdsAndRegistryEntries) {
  const std::string path = WriteK4File("churn_k4.txt");
  auto server = StartUnixServer("churn", {{"k4", path}}, ServerOptions{});

  QueryRequest request;
  request.graph = "k4";
  {
    // Warm the catalog so churn below measures connection cost only.
    ServeClient warmup = MustConnect(*server);
    ASSERT_TRUE(warmup.Query(request).ok());
  }
  ASSERT_TRUE(WaitForStats(*server, [](const ServerStats& s) {
    return s.open_connections == 0;
  }));

  const size_t fds_before = CountOpenFds();
  constexpr int kChurn = 32;
  for (int i = 0; i < kChurn; ++i) {
    ServeClient client = MustConnect(*server);
    EXPECT_TRUE(client.Ping().ok());
    // Every fourth connection also runs a query, so reclamation is
    // exercised on the worker reply path, not just the reader path.
    if (i % 4 == 0) {
      EXPECT_TRUE(client.Query(request).ok());
    }
    // ~ServeClient closes the socket: the server sees EOF and reclaims.
  }
  EXPECT_TRUE(WaitForStats(*server, [](const ServerStats& s) {
    return s.open_connections == 0;
  }));
  EXPECT_EQ(server->StatsSnapshot().accepted_connections,
            static_cast<uint64_t>(kChurn) + 1);
  if (fds_before != 0) {
    // No fd growth proportional to churn (slack for transient state).
    EXPECT_LE(CountOpenFds(), fds_before + 2);
  }
}

// Regression: a client that sends queries but never reads its responses
// must not wedge the replying thread forever — SO_SNDTIMEO fails the
// blocked send, the connection is reclaimed, and drain still completes.
TEST(ServerTest, SlowReaderTimesOutAndIsReclaimed) {
  const std::string path = WriteK4File("slow_k4.txt");
  ServerOptions options;
  options.send_timeout_s = 0.2;
  auto server = StartUnixServer("slow", {{"k4", path}}, options);

  Result<int> fd = ConnectUnix(server->unix_path());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  ::fcntl(*fd, F_SETFL, O_NONBLOCK);

  // One raw ping frame: u32 little-endian length prefix + payload.
  const std::string payload = EncodeEmpty(MsgType::kPing);
  std::string frame;
  const uint32_t length = static_cast<uint32_t>(payload.size());
  for (int shift = 0; shift < 32; shift += 8) {
    frame.push_back(static_cast<char>((length >> shift) & 0xff));
  }
  frame += payload;

  // Spam pings while reading nothing: pong replies back up until the
  // server's send blocks past the timeout, after which it marks the
  // connection dead and shuts it down — observed here as a send failure
  // (EPIPE/ECONNRESET) on our side.
  bool server_gave_up = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t sent =
        ::send(*fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    if (sent >= 0) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      continue;
    }
    server_gave_up = true;
    break;
  }
  EXPECT_TRUE(server_gave_up);
  EXPECT_TRUE(WaitForStats(*server, [](const ServerStats& s) {
    return s.open_connections == 0;
  }));
  CloseFd(*fd);

  // The old blocking send held Wait() hostage forever here.
  server->BeginDrain();
  server->Wait();
}

// Regression: a socket file left behind by a crashed/SIGKILLed daemon
// must not make the next start fail with EADDRINUSE; a live listener's
// path must still be protected.
TEST(NetTest, StaleUnixSocketIsRecoveredButLiveOneIsProtected) {
  const std::string path = ::testing::TempDir() + "trilist_stale_" +
                           std::to_string(::getpid()) + ".sock";
  ::unlink(path.c_str());

  // Crash simulation: bind, then drop the listener without unlinking.
  Result<Listener> first = ListenUnix(path);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  CloseFd(first->fd);

  Result<Listener> second = ListenUnix(path);
  EXPECT_TRUE(second.ok()) << second.status().ToString();

  Result<Listener> third = ListenUnix(path);
  EXPECT_FALSE(third.ok());

  if (second.ok()) CloseFd(second->fd);
  ::unlink(path.c_str());
}

TEST(ServerTest, UnknownGraphIsNotFound) {
  const std::string path = WriteK4File("nf_k4.txt");
  auto server = StartUnixServer("notfound", {{"k4", path}}, ServerOptions{});
  ServeClient client = MustConnect(*server);

  QueryRequest request;
  request.graph = "no-such-graph";
  auto response = client.Query(request);
  EXPECT_FALSE(response.ok());
  ASSERT_TRUE(client.last_failure_was_reply());
  EXPECT_EQ(client.last_error().code, ErrorCode::kNotFound);

  // Path traversal attempts are rejected, not resolved.
  request.graph = "../etc/passwd";
  response = client.Query(request);
  EXPECT_FALSE(response.ok());
  ASSERT_TRUE(client.last_failure_was_reply());
  EXPECT_EQ(client.last_error().code, ErrorCode::kNotFound);
}

TEST(ServerTest, TcpEphemeralPortServes) {
  const std::string path = WriteK4File("tcp_k4.txt");
  ServerOptions options;
  options.tcp = true;
  options.port = 0;  // ephemeral: parallel test runs never collide
  options.catalog.named = {{"k4", path}};
  auto server = TriangleServer::Start(options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_NE((*server)->tcp_port(), 0);

  auto client = ServeClient::ConnectTcp("127.0.0.1", (*server)->tcp_port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client.ValueOrDie().Ping().ok());
  QueryRequest request;
  request.graph = "k4";
  auto response = client.ValueOrDie().Query(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->methods[0].triangles, 4u);
}

TEST(ServerTest, ShortestJobFirstPrefersCheaperRequest) {
  const std::string k4 = WriteK4File("sjf_k4.txt");
  const std::string k6 = WriteTwoK6File("sjf_k6.txt");
  ServerOptions options;
  options.workers = 1;
  options.shortest_job_first = true;
  options.debug_exec_delay_s = 0.25;
  auto server = StartUnixServer("sjf", {{"k4", k4}, {"k6", k6}}, options);

  // Warm both graphs so scheduling-phase acquires are instant.
  {
    ServeClient warmup = MustConnect(*server);
    QueryRequest request;
    request.graph = "k4";
    ASSERT_TRUE(warmup.Query(request).ok());
    request.graph = "k6";
    ASSERT_TRUE(warmup.Query(request).ok());
  }

  // Stats polling sequences the admissions deterministically: the
  // blocker must be executing before the costly job is queued, and the
  // costly job queued before the cheap one arrives.
  const auto wait_for = [&server](auto predicate) {
    for (int i = 0; i < 400; ++i) {
      if (predicate(server->StatsSnapshot())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  };

  using Clock = std::chrono::steady_clock;
  Clock::time_point cheap_done, costly_done;
  std::thread blocker([&server] {
    ServeClient c = MustConnect(*server);
    QueryRequest request;
    request.graph = "k4";
    EXPECT_TRUE(c.Query(request).ok());
  });
  EXPECT_TRUE(
      wait_for([](const ServerStats& s) { return s.in_flight >= 1; }));
  // While the blocker executes, enqueue the costly job first, then the
  // cheap one: SJF must run the cheap one ahead of it anyway.
  std::thread costly([&server, &costly_done] {
    ServeClient c = MustConnect(*server);
    QueryRequest request;
    request.graph = "k6";  // larger graph => larger Section-3 estimate
    EXPECT_TRUE(c.Query(request).ok());
    costly_done = Clock::now();
  });
  EXPECT_TRUE(
      wait_for([](const ServerStats& s) { return s.queue_depth >= 1; }));
  std::thread cheap([&server, &cheap_done] {
    ServeClient c = MustConnect(*server);
    QueryRequest request;
    request.graph = "k4";
    EXPECT_TRUE(c.Query(request).ok());
    cheap_done = Clock::now();
  });

  blocker.join();
  costly.join();
  cheap.join();
  EXPECT_LT(cheap_done.time_since_epoch().count(),
            costly_done.time_since_epoch().count());
}

// ---------------------------------------------------------------------------
// Catalog unit coverage (no sockets)

TEST(CatalogTest, PredictedCostGrowsWithGraphAndMethodSet) {
  const std::string k4 = WriteK4File("cost_k4.txt");
  const std::string k6 = WriteTwoK6File("cost_k6.txt");
  CatalogOptions options;
  options.named = {{"k4", k4}, {"k6", k6}};
  GraphCatalog catalog(options);

  ErrorCode code;
  auto small = catalog.Acquire("k4", &code);
  auto large = catalog.Acquire("k6", &code);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());

  const OrientSpec spec{PermutationKind::kDescending, 1};
  const auto price = [](const GraphCatalog::Acquired& a,
                        const OrientSpec& s,
                        const std::vector<Method>& methods) {
    return a.entry->cost_model().PredictedTotalCost(
        s, methods, IntersectBackend::kMerge);
  };
  const double small_cost = price(*small, spec, {Method::kE1});
  const double large_cost = price(*large, spec, {Method::kE1});
  EXPECT_GT(small_cost, 0);
  EXPECT_GT(large_cost, small_cost);

  const double two_methods = price(*small, spec, {Method::kE1, Method::kT1});
  EXPECT_GT(two_methods, small_cost);
  // Memoized: asking again returns the identical value.
  EXPECT_EQ(small_cost, price(*small, spec, {Method::kE1}));
}

// Regression: serve-time orientations are O(n + m) each and keyed by
// OrientSpec (every uniform seed distinct), so the per-entry cache must
// be a bounded LRU — a seed-sweeping client must not grow resident
// memory without limit.
TEST(CatalogTest, OrientationCacheIsBoundedLru) {
  const std::string k4 = WriteK4File("lrucap_k4.txt");
  CatalogOptions options;
  options.named = {{"k4", k4}};
  GraphCatalog catalog(options);

  ErrorCode code;
  auto acquired = catalog.Acquire("k4", &code);
  ASSERT_TRUE(acquired.ok());
  const auto orient = [&](uint64_t seed) {
    return catalog.Orient(acquired->entry,
                          OrientSpec{PermutationKind::kUniform, seed}, 1);
  };

  const uint64_t cap = CatalogEntry::kMaxCachedOrientations;
  for (uint64_t seed = 1; seed <= cap; ++seed) {
    EXPECT_FALSE(orient(seed).cached);
  }
  EXPECT_EQ(catalog.StatsSnapshot().orientations_built, cap);

  EXPECT_TRUE(orient(cap).cached);       // still resident
  EXPECT_FALSE(orient(cap + 1).cached);  // evicts the coldest (seed 1)
  EXPECT_TRUE(orient(cap).cached);       // the hit above kept it warm
  EXPECT_FALSE(orient(1).cached);        // seed 1 was evicted, rebuilds

  const CatalogStats stats = catalog.StatsSnapshot();
  EXPECT_EQ(stats.orientations_built, cap + 2);
  EXPECT_EQ(stats.orientation_hits, 2u);
}

TEST(CatalogTest, EvictedEntryStaysUsableThroughHeldReference) {
  const std::string k4 = WriteK4File("pin_k4.txt");
  const std::string k6 = WriteTwoK6File("pin_k6.txt");
  CatalogOptions options;
  options.capacity = 1;
  options.named = {{"k4", k4}, {"k6", k6}};
  GraphCatalog catalog(options);

  ErrorCode code;
  auto held = catalog.Acquire("k4", &code);
  ASSERT_TRUE(held.ok());
  // Loading the second graph evicts k4 from the registry...
  ASSERT_TRUE(catalog.Acquire("k6", &code).ok());
  EXPECT_EQ(catalog.StatsSnapshot().evictions, 1u);
  // ...but the held reference still reads valid graph data.
  EXPECT_EQ(held->entry->graph().num_nodes(), 6u);
  EXPECT_EQ(held->entry->graph().num_edges(), 8u);
  const auto oriented = catalog.Orient(
      held->entry, OrientSpec{PermutationKind::kDescending, 1}, 1);
  EXPECT_EQ(oriented.oriented.num_nodes(), 6u);
}

}  // namespace
}  // namespace trilist::serve
