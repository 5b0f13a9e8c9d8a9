#include "src/run/run_report.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/run/runner.h"
#include "src/util/json_writer.h"

namespace trilist {
namespace {

/// A fully populated report with hand-picked values. Every double is a
/// binary fraction so the fixed-point rendering is exact on any platform,
/// which is what lets the JSON be golden-tested byte for byte.
RunReport MakeFixedReport() {
  RunReport r;
  r.source = "pareto(n=100, alpha=1.7, root, residual)";
  r.num_nodes = 100;
  r.num_edges = 250;
  r.order = "theta_D";
  r.orient_seed = 7;
  r.cached_orientation = false;
  r.threads = 2;
  r.requested_threads = 0;  // "auto" request resolved to 2
  r.repeats = 3;
  r.intersect_backend = "bitmap";
  r.simd_level = "avx2";
  r.build_version = "1.0.0";
  r.build_git_hash = "abcdef123456";
  r.build_compiler = "TestCompiler 0.0";
  r.build_type = "TestBuild";

  r.plan.planned = true;
  r.plan.auto_method = true;
  r.plan.auto_order = true;
  r.plan.auto_intersect = false;
  r.plan.methods = {"T1"};
  r.plan.order = "theta_D";
  r.plan.intersect = "bitmap";
  r.plan.predicted_ops = 1024.5;      // binary fractions: exact rendering
  r.plan.predicted_cost = 2048.25;
  r.plan.measured_ops = 1000.0;
  r.plan.measured_cost = 2000.5;
  r.plan.candidates = 20;

  r.stages.Add("generate", 0.015625);
  r.stages.Add("order", 0.0078125);
  r.stages.Add("orient", 0.03125);
  r.stages.Add("arcs", 0.00390625);
  r.stages.Add("list", 0.125);

  MethodReport m;
  m.method = Method::kT1;
  m.triangles = 42;
  m.ops.candidate_checks = 1000;
  m.ops.local_scans = 11;
  m.ops.remote_scans = 22;
  m.ops.merge_comparisons = 33;
  m.ops.hash_inserts = 44;
  m.ops.lookups = 55;
  m.ops.binary_searches = 66;
  m.ops.triangles = 42;
  m.formula_cost = 1000.5;
  m.wall_s = 0.0625;
  m.wall_total_s = 0.1875;
  m.parallel = true;
  m.intersect_backend = "none";
  r.methods.push_back(m);

  obs::DegreeProfile profile;
  profile.method = Method::kT1;
  obs::DegreeBucket b0;
  b0.bucket = 0;
  profile.buckets.push_back(b0);
  obs::DegreeBucket b1;
  b1.bucket = 1;
  b1.d_min = 1;
  b1.d_max = 1;
  b1.nodes = 30;
  profile.buckets.push_back(b1);
  obs::DegreeBucket b2;
  b2.bucket = 2;
  b2.d_min = 2;
  b2.d_max = 3;
  b2.nodes = 70;
  b2.measured_ops = 768;
  b2.predicted_ops = 512.0;  // residual renders exactly 0.500000
  profile.buckets.push_back(b2);
  profile.total_measured = 768;
  profile.total_predicted = 512.0;
  r.degree_profiles.push_back(profile);

  r.partitioned = true;
  r.mem_budget_bytes = 4194304;
  r.io_partitions = 2;
  r.io.passes = 2;
  r.io.bytes_loaded = 2048;
  r.io.bytes_streamed = 4096;
  r.io_evictions = 3;

  r.peak_rss_bytes = 1048576;
  r.cpu_s = 0.25;
  r.utilization = 0.875;
  return r;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// The exporter's byte-exact contract: key order, indentation and number
// formatting are all part of the schema consumed by external tooling.
// If this fails after an intentional schema change, bump
// kRunReportSchemaVersion and regenerate the golden from the test's
// failure artifact.
TEST(RunReportJson, MatchesGoldenFile) {
  const std::string golden_path =
      std::string(TRILIST_TESTDATA_DIR) + "/run_report_golden.json";
  const std::string expected = ReadFile(golden_path);
  const std::string actual = MakeFixedReport().ToJson();
  if (expected != actual) {
    const std::string dump =
        ::testing::TempDir() + "/run_report_actual.json";
    std::ofstream(dump, std::ios::binary) << actual;
    FAIL() << "JSON schema drifted from " << golden_path
           << "; actual written to " << dump;
  }
}

TEST(RunReportJson, SchemaVersionIsStamped) {
  const std::string json = MakeFixedReport().ToJson();
  EXPECT_NE(json.find("\"schema\": \"trilist.run_report\""),
            std::string::npos);
  EXPECT_NE(json.find("\"schema_version\": " +
                      std::to_string(kRunReportSchemaVersion)),
            std::string::npos);
}

// A real pipeline execution must populate every top-level schema section
// and one stage entry per pipeline phase.
TEST(RunReportJson, LivePipelineEmitsAllSections) {
  RunSpec spec;
  GenerateSpec gen;
  gen.n = 500;
  spec.source = GraphSource::FromGenerator(gen);
  spec.methods = {Method::kT1, Method::kE1};
  auto report = RunPipeline(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string json = report->ToJson();
  for (const char* key :
       {"\"build\"", "\"git_hash\"", "\"graph\"", "\"orientation\"",
        "\"exec\"", "\"requested_threads\"", "\"intersect\"",
        "\"simd_level\"", "\"io\"", "\"partitioned\"",
        "\"mem_budget_bytes\"", "\"bytes_loaded\"", "\"bytes_streamed\"",
        "\"evictions\"",
        "\"stages\"", "\"methods\"",
        "\"degree_profiles\"", "\"resources\"", "\"paper_cost\"",
        "\"formula_cost\"", "\"candidate_checks\"", "\"peak_rss_bytes\"",
        "\"utilization\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  for (const char* stage :
       {"\"generate\"", "\"order\"", "\"orient\"", "\"arcs\"",
        "\"list\""}) {
    EXPECT_NE(json.find(stage), std::string::npos)
        << "missing stage " << stage;
  }
}

TEST(RunReportTable, RendersStagesAndMethods) {
  std::ostringstream out;
  MakeFixedReport().PrintTable(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("T1"), std::string::npos);
  EXPECT_NE(text.find("order"), std::string::npos);
  EXPECT_NE(text.find("residual"), std::string::npos);
  EXPECT_NE(text.find("peak RSS"), std::string::npos);
  EXPECT_NE(text.find("out-of-core"), std::string::npos);
  EXPECT_NE(text.find("streamed, 3 evictions"), std::string::npos);
}

TEST(JsonWriter, EscapesAndNests) {
  JsonWriter w;
  w.BeginObject();
  w.Field("text", "a\"b\\c\n");
  w.Key("list");
  w.BeginArray();
  w.Int(-1);
  w.String("x");
  w.Bool(false);
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(std::move(w).Finish(),
            "{\n"
            "  \"text\": \"a\\\"b\\\\c\\n\",\n"
            "  \"list\": [\n"
            "    -1,\n"
            "    \"x\",\n"
            "    false\n"
            "  ]\n"
            "}\n");
}

}  // namespace
}  // namespace trilist
