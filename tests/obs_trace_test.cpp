#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/util/build_info.h"

namespace trilist::obs {
namespace {

/// Every test owns the whole tracer session (the tracer is a process
/// singleton): start from a clean, disabled state.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Disable();
    Tracer::Clear();
  }
  void TearDown() override {
    Tracer::Disable();
    Tracer::Clear();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  ASSERT_FALSE(Tracer::Enabled());
  {
    TraceSpan span("ignored");
    span.Arg("k", int64_t{1});
  }
  EXPECT_EQ(Tracer::EventCount(), 0u);
  EXPECT_EQ(Tracer::DroppedCount(), 0u);
}

TEST_F(TraceTest, EnabledSpanIsRecordedWithArgs) {
  Tracer::Enable();
  {
    TraceSpan span("listing");
    span.Arg("method", "T1");
    span.Arg("ops", int64_t{12345});
  }
  Tracer::Disable();
  EXPECT_EQ(Tracer::EventCount(), 1u);
  const std::string json = Tracer::ToChromeJson();
  EXPECT_NE(json.find("\"name\": \"listing\""), std::string::npos);
  EXPECT_NE(json.find("\"method\": \"T1\""), std::string::npos);
  EXPECT_NE(json.find("\"ops\": 12345"), std::string::npos);
}

TEST_F(TraceTest, MacroTracesEnclosingScope) {
  Tracer::Enable();
  {
    TRILIST_TRACE_SPAN("outer");
    TRILIST_TRACE_SPAN("inner");
  }
  Tracer::Disable();
  EXPECT_EQ(Tracer::EventCount(), 2u);
}

TEST_F(TraceTest, SpansOpenedBeforeEnableAreNotRecorded) {
  TraceSpan span("preexisting");
  Tracer::Enable();
  EXPECT_EQ(Tracer::EventCount(), 0u);
}

// The Chrome trace-event contract: what Perfetto actually requires from
// the document. Event bodies are rendered deterministically, so the shape
// can be checked byte-for-byte on a synthetic event.
TEST_F(TraceTest, ChromeJsonStructureIsGolden) {
  TraceEvent e;
  e.name = "chunk";
  e.start_ns = 1500;    // 1.5 us
  e.dur_ns = 2250;      // 2.25 us
  e.num_args = 2;
  e.args[0] = TraceArg{"shard", nullptr, 7};
  e.args[1] = TraceArg{"method", "E1", 0};
  Tracer::AppendForTest(e);

  const std::string json = Tracer::ToChromeJson();
  // Document frame.
  EXPECT_EQ(json.find("{\n  \"displayTimeUnit\": \"ms\","), 0u);
  EXPECT_NE(json.find("\"otherData\": {"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  // Provenance rides along in otherData.
  const BuildInfo& build = GetBuildInfo();
  EXPECT_NE(json.find(std::string("\"git_hash\": \"") + build.git_hash),
            std::string::npos);
  // The event body itself is byte-stable.
  const std::string expected_event =
      "    {\n"
      "      \"name\": \"chunk\",\n"
      "      \"cat\": \"trilist\",\n"
      "      \"ph\": \"X\",\n"
      "      \"pid\": 1,\n"
      "      \"tid\": 0,\n"
      "      \"ts\": 1.500,\n"
      "      \"dur\": 2.250,\n"
      "      \"args\": {\n"
      "        \"shard\": 7,\n"
      "        \"method\": \"E1\"\n"
      "      }\n"
      "    }\n";
  EXPECT_NE(json.find(expected_event), std::string::npos) << json;
}

TEST_F(TraceTest, OverflowDropsInsteadOfBlocking) {
  Tracer::Enable();
  for (size_t i = 0; i < Tracer::kEventsPerThread + 10; ++i) {
    TraceSpan span("flood");
  }
  Tracer::Disable();
  EXPECT_EQ(Tracer::EventCount(), Tracer::kEventsPerThread);
  EXPECT_EQ(Tracer::DroppedCount(), 10u);
  const std::string json = Tracer::ToChromeJson();
  EXPECT_NE(json.find("\"dropped_events\": 10"), std::string::npos);
}

TEST_F(TraceTest, ClearResetsEventsAndDrops) {
  Tracer::Enable();
  for (size_t i = 0; i < Tracer::kEventsPerThread + 5; ++i) {
    TraceSpan span("flood");
  }
  Tracer::Disable();
  ASSERT_GT(Tracer::EventCount(), 0u);
  ASSERT_GT(Tracer::DroppedCount(), 0u);
  Tracer::Clear();
  EXPECT_EQ(Tracer::EventCount(), 0u);
  EXPECT_EQ(Tracer::DroppedCount(), 0u);
  // The buffers stay registered and usable after Clear.
  Tracer::Enable();
  { TraceSpan span("after_clear"); }
  Tracer::Disable();
  EXPECT_EQ(Tracer::EventCount(), 1u);
}

TEST_F(TraceTest, EachThreadRecordsIntoItsOwnBuffer) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 100;
  Tracer::Enable();
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan span("worker");
        span.Arg("i", static_cast<int64_t>(i));
      }
    });
  }
  { TraceSpan span("main"); }
  for (std::thread& w : workers) w.join();
  Tracer::Disable();
  EXPECT_EQ(Tracer::EventCount(),
            static_cast<size_t>(kThreads) * kSpansPerThread + 1);
  EXPECT_EQ(Tracer::DroppedCount(), 0u);
}

TEST_F(TraceTest, EnableKeepsTheClockForSpansOpenAcrossDisable) {
  using std::chrono::milliseconds;
  // Let the epoch age first, so a clock restarted by Enable would put
  // the span's end before its start.
  std::this_thread::sleep_for(milliseconds(10));
  Tracer::Enable();
  {
    TraceSpan span("across");
    Tracer::Disable();
    std::this_thread::sleep_for(milliseconds(20));
    Tracer::Enable();
  }
  Tracer::Disable();
  ASSERT_EQ(Tracer::EventCount(), 1u);
  const std::string json = Tracer::ToChromeJson();
  const size_t at = json.find("\"dur\": ");
  ASSERT_NE(at, std::string::npos) << json;
  const double dur_us = std::strtod(json.c_str() + at + 7, nullptr);
  EXPECT_GE(dur_us, 20e3) << json;  // covers the sleep
  EXPECT_LT(dur_us, 60e6) << json;  // and did not wrap around
}

TEST_F(TraceTest, ExitedThreadsHandTheirBuffersOn) {
  constexpr int kThreads = 64;
  Tracer::Enable();
  // One thread at a time: each takes the buffer its predecessor left.
  for (int t = 0; t < kThreads; ++t) {
    std::thread([] { TraceSpan span("short_lived"); }).join();
  }
  Tracer::Disable();
  // Every span is still exported, though the buffers were passed on, and
  // an event's "tid" names its buffer: only a few buffers were used.
  EXPECT_EQ(Tracer::EventCount(), static_cast<size_t>(kThreads));
  const std::string json = Tracer::ToChromeJson();
  size_t spans = 0;
  std::set<long> tids;
  for (size_t at = json.find("\"short_lived\""); at != std::string::npos;
       at = json.find("\"short_lived\"", at + 1)) {
    ++spans;
    const size_t tid = json.find("\"tid\": ", at);
    ASSERT_NE(tid, std::string::npos) << json;
    tids.insert(std::strtol(json.c_str() + tid + 7, nullptr, 10));
  }
  EXPECT_EQ(spans, static_cast<size_t>(kThreads));
  EXPECT_LE(tids.size(), 2u) << json;
}

TEST_F(TraceTest, WriteChromeJsonRoundTrips) {
  Tracer::Enable();
  { TraceSpan span("written"); }
  Tracer::Disable();
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.json";
  ASSERT_TRUE(Tracer::WriteChromeJson(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    content.append(buf, got);
  }
  std::fclose(f);
  EXPECT_EQ(content, Tracer::ToChromeJson());
  EXPECT_FALSE(
      Tracer::WriteChromeJson("/nonexistent-dir/trace.json").ok());
}

}  // namespace
}  // namespace trilist::obs
