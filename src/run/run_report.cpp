#include "src/run/run_report.h"

#include <ostream>

#include "src/util/json_writer.h"
#include "src/util/table_printer.h"

namespace trilist {

std::string RunReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Field("schema", "trilist.run_report");
  w.Field("schema_version", kRunReportSchemaVersion);

  w.Key("build");
  w.BeginObject();
  w.Field("version", build_version);
  w.Field("git_hash", build_git_hash);
  w.Field("compiler", build_compiler);
  w.Field("build_type", build_type);
  w.EndObject();

  w.Key("graph");
  w.BeginObject();
  w.Field("source", source);
  w.Field("nodes", num_nodes);
  w.Field("edges", num_edges);
  w.EndObject();

  w.Key("orientation");
  w.BeginObject();
  w.Field("order", order);
  w.Field("seed", orient_seed);
  w.Field("cached", cached_orientation);
  w.EndObject();

  w.Key("exec");
  w.BeginObject();
  w.Field("threads", threads);
  w.Field("requested_threads", requested_threads);
  w.Field("repeats", repeats);
  w.Field("intersect", intersect_backend);
  w.Field("simd_level", simd_level);
  w.EndObject();

  w.Key("plan");
  w.BeginObject();
  w.Field("planned", plan.planned);
  w.Field("auto_method", plan.auto_method);
  w.Field("auto_order", plan.auto_order);
  w.Field("auto_intersect", plan.auto_intersect);
  w.Key("methods");
  w.BeginArray();
  for (const std::string& m : plan.methods) w.String(m);
  w.EndArray();
  w.Field("order", plan.order);
  w.Field("intersect", plan.intersect);
  w.FieldDouble("predicted_ops", plan.predicted_ops, 1);
  w.FieldDouble("predicted_cost", plan.predicted_cost, 1);
  w.FieldDouble("measured_ops", plan.measured_ops, 1);
  w.FieldDouble("measured_cost", plan.measured_cost, 1);
  w.Field("candidates", plan.candidates);
  w.EndObject();

  w.Key("io");
  w.BeginObject();
  w.Field("partitioned", partitioned);
  w.Field("mem_budget_bytes", mem_budget_bytes);
  w.Field("partitions", io_partitions);
  w.Field("passes", io.passes);
  w.Field("bytes_loaded", io.bytes_loaded);
  w.Field("bytes_streamed", io.bytes_streamed);
  w.Field("total_bytes", io.TotalBytes());
  w.Field("evictions", io_evictions);
  w.EndObject();

  w.Key("stages");
  w.BeginArray();
  for (const StageSample& s : stages.stages()) {
    w.BeginObject();
    w.Field("name", s.name);
    w.FieldDouble("wall_s", s.wall_s);
    w.Field("calls", s.calls);
    w.EndObject();
  }
  w.EndArray();

  w.Key("methods");
  w.BeginArray();
  for (const MethodReport& m : methods) {
    w.BeginObject();
    w.Field("method", MethodName(m.method));
    w.Field("triangles", m.triangles);
    w.Field("paper_cost", m.ops.PaperCost());
    w.FieldDouble("formula_cost", m.formula_cost, 1);
    w.Key("ops");
    w.BeginObject();
    w.Field("candidate_checks", m.ops.candidate_checks);
    w.Field("local_scans", m.ops.local_scans);
    w.Field("remote_scans", m.ops.remote_scans);
    w.Field("merge_comparisons", m.ops.merge_comparisons);
    w.Field("hash_inserts", m.ops.hash_inserts);
    w.Field("lookups", m.ops.lookups);
    w.Field("binary_searches", m.ops.binary_searches);
    w.EndObject();
    w.FieldDouble("wall_s", m.wall_s);
    w.FieldDouble("wall_total_s", m.wall_total_s);
    w.Field("parallel", m.parallel);
    w.Field("intersect_backend", m.intersect_backend);
    w.EndObject();
  }
  w.EndArray();

  w.Key("degree_profiles");
  w.BeginArray();
  for (const obs::DegreeProfile& p : degree_profiles) {
    obs::AppendDegreeProfileJson(p, &w);
  }
  w.EndArray();

  w.Key("resources");
  w.BeginObject();
  w.Field("peak_rss_bytes", peak_rss_bytes);
  w.FieldDouble("cpu_s", cpu_s);
  w.FieldDouble("utilization", utilization, 4);
  w.EndObject();

  w.EndObject();
  return std::move(w).Finish();
}

void RunReport::PrintTable(std::ostream& out) const {
  out << source << ": n=" << FormatCount(num_nodes)
      << " m=" << FormatCount(num_edges) << ", order " << order;
  if (cached_orientation) out << " (cached orientation)";
  out << ", " << threads << (threads == 1 ? " thread" : " threads");
  if (repeats > 1) out << ", best of " << repeats;
  out << "\n";

  if (plan.planned) {
    out << "plan: ";
    for (size_t i = 0; i < plan.methods.size(); ++i) {
      out << (i > 0 ? "+" : "") << plan.methods[i];
    }
    out << " on " << plan.order << " / " << plan.intersect
        << " (predicted cost " << FormatNumber(plan.predicted_cost, 0)
        << ", " << plan.candidates << " candidates)\n";
  }

  TablePrinter stage_table({"stage", "wall", "calls"});
  for (const StageSample& s : stages.stages()) {
    stage_table.AddRow({s.name, FormatNumber(s.wall_s, 3) + "s",
                        FormatCount(static_cast<uint64_t>(s.calls))});
  }
  stage_table.AddRow({"total", FormatNumber(stages.Total(), 3) + "s", ""});
  stage_table.Print(out);

  if (!methods.empty()) {
    TablePrinter method_table(
        {"method", "triangles", "paper-metric ops", "wall", "engine",
         "intersect"});
    for (const MethodReport& m : methods) {
      method_table.AddRow(
          {MethodName(m.method), FormatCount(m.triangles),
           FormatCount(static_cast<uint64_t>(m.ops.PaperCost())),
           FormatNumber(m.wall_s, 3) + "s",
           m.parallel ? "parallel" : "serial", m.intersect_backend});
    }
    method_table.Print(out);
  }

  for (const obs::DegreeProfile& p : degree_profiles) {
    out << obs::DegreeProfileTable(p);
  }

  if (partitioned) {
    out << "out-of-core: budget "
        << FormatBytes(static_cast<double>(mem_budget_bytes)) << ", "
        << io_partitions << (io_partitions == 1 ? " partition, "
                                                : " partitions, ")
        << FormatBytes(static_cast<double>(io.bytes_loaded))
        << " loaded + "
        << FormatBytes(static_cast<double>(io.bytes_streamed))
        << " streamed, " << io_evictions << " evictions\n";
  }
  out << "peak RSS " << FormatBytes(static_cast<double>(peak_rss_bytes))
      << ", CPU " << FormatNumber(cpu_s, 2) << "s, utilization "
      << FormatNumber(utilization * 100.0, 0) << "%\n";
}

}  // namespace trilist
