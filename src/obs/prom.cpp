#include "src/obs/prom.h"

#include <cmath>
#include <cstdio>

#include "src/obs/degree_profile.h"

namespace trilist::obs {

namespace {

/// Prometheus sample values: integral doubles render without a fraction,
/// everything else with 9 significant digits — stable across platforms.
std::string FormatValue(double v) {
  if (!std::isfinite(v)) {
    if (std::isnan(v)) return "NaN";
    return v > 0 ? "+Inf" : "-Inf";
  }
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Escapes a label value per the exposition format.
void AppendEscaped(std::string* out, std::string_view value) {
  for (const char c : value) {
    switch (c) {
      case '\\': *out += "\\\\"; break;
      case '"': *out += "\\\""; break;
      case '\n': *out += "\\n"; break;
      default: *out += c;
    }
  }
}

}  // namespace

void PromWriter::Declare(std::string_view name, std::string_view help,
                         std::string_view type) {
  out_ += "# HELP ";
  out_ += name;
  out_ += ' ';
  out_ += help;
  out_ += "\n# TYPE ";
  out_ += name;
  out_ += ' ';
  out_ += type;
  out_ += '\n';
}

void PromWriter::Gauge(std::string_view name, std::string_view help) {
  Declare(name, help, "gauge");
}

void PromWriter::Counter(std::string_view name, std::string_view help) {
  Declare(name, help, "counter");
}

void PromWriter::Histogram(std::string_view name, std::string_view help) {
  Declare(name, help, "histogram");
}

void PromWriter::Sample(std::string_view name,
                        const std::vector<PromLabel>& labels, double value) {
  out_ += name;
  if (!labels.empty()) {
    out_ += '{';
    bool first = true;
    for (const PromLabel& label : labels) {
      if (!first) out_ += ',';
      first = false;
      out_ += label.first;
      out_ += "=\"";
      AppendEscaped(&out_, label.second);
      out_ += '"';
    }
    out_ += '}';
  }
  out_ += ' ';
  out_ += FormatValue(value);
  out_ += '\n';
}

std::string PromWriter::Finish() && { return std::move(out_); }

std::string RunReportToPrometheus(const RunReport& report) {
  PromWriter w;

  w.Gauge("trilist_build_info",
          "Build provenance; value is always 1, identity is in the labels");
  w.Sample("trilist_build_info",
           {{"version", report.build_version},
            {"git_hash", report.build_git_hash},
            {"compiler", report.build_compiler},
            {"build_type", report.build_type}},
           1.0);

  w.Gauge("trilist_graph_nodes", "Nodes in the listed graph");
  w.Sample("trilist_graph_nodes", static_cast<double>(report.num_nodes));
  w.Gauge("trilist_graph_edges", "Undirected edges in the listed graph");
  w.Sample("trilist_graph_edges", static_cast<double>(report.num_edges));

  w.Gauge("trilist_run_threads", "Resolved worker thread count of the run");
  w.Sample("trilist_run_threads", static_cast<double>(report.threads));

  w.Gauge("trilist_stage_wall_seconds",
          "Accumulated wall seconds per pipeline stage");
  for (const StageSample& s : report.stages.stages()) {
    w.Sample("trilist_stage_wall_seconds", {{"stage", s.name}}, s.wall_s);
  }

  w.Counter("trilist_method_triangles_total", "Triangles listed per method");
  for (const MethodReport& m : report.methods) {
    w.Sample("trilist_method_triangles_total",
             {{"method", MethodName(m.method)}},
             static_cast<double>(m.triangles));
  }

  w.Counter("trilist_method_paper_cost_ops_total",
            "Measured paper-metric operations per method");
  for (const MethodReport& m : report.methods) {
    w.Sample("trilist_method_paper_cost_ops_total",
             {{"method", MethodName(m.method)}},
             static_cast<double>(m.ops.PaperCost()));
  }

  w.Gauge("trilist_method_formula_cost_ops",
          "Closed-form cost on the realized orientation per method");
  for (const MethodReport& m : report.methods) {
    w.Sample("trilist_method_formula_cost_ops",
             {{"method", MethodName(m.method)}}, m.formula_cost);
  }

  w.Gauge("trilist_method_wall_seconds",
          "Best listing wall time per method across repeats");
  for (const MethodReport& m : report.methods) {
    w.Sample("trilist_method_wall_seconds",
             {{"method", MethodName(m.method)}}, m.wall_s);
  }

  if (!report.degree_profiles.empty()) {
    w.Gauge("trilist_degree_bucket_measured_ops",
            "Realized per-node paper-metric operations per log2-degree "
            "bucket");
    for (const DegreeProfile& p : report.degree_profiles) {
      for (const DegreeBucket& b : p.buckets) {
        w.Sample("trilist_degree_bucket_measured_ops",
                 {{"method", MethodName(p.method)},
                  {"bucket", std::to_string(b.bucket)}},
                 static_cast<double>(b.measured_ops));
      }
    }
    w.Gauge("trilist_degree_bucket_predicted_ops",
            "Model-predicted g(d)h(q) operations per log2-degree bucket");
    for (const DegreeProfile& p : report.degree_profiles) {
      for (const DegreeBucket& b : p.buckets) {
        w.Sample("trilist_degree_bucket_predicted_ops",
                 {{"method", MethodName(p.method)},
                  {"bucket", std::to_string(b.bucket)}},
                 b.predicted_ops);
      }
    }
    w.Gauge("trilist_degree_bucket_residual",
            "Relative model residual per log2-degree bucket");
    for (const DegreeProfile& p : report.degree_profiles) {
      for (const DegreeBucket& b : p.buckets) {
        w.Sample("trilist_degree_bucket_residual",
                 {{"method", MethodName(p.method)},
                  {"bucket", std::to_string(b.bucket)}},
                 b.Residual());
      }
    }
  }

  w.Gauge("trilist_peak_rss_bytes", "Peak resident set size of the process");
  w.Sample("trilist_peak_rss_bytes",
           static_cast<double>(report.peak_rss_bytes));
  w.Counter("trilist_cpu_seconds_total",
            "CPU seconds (user+system) consumed by the run");
  w.Sample("trilist_cpu_seconds_total", report.cpu_s);
  w.Gauge("trilist_utilization_ratio",
          "CPU seconds / (wall * threads) across the run");
  w.Sample("trilist_utilization_ratio", report.utilization);

  return std::move(w).Finish();
}

}  // namespace trilist::obs
